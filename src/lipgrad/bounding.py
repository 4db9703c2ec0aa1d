"""Gradient-based lower bounds over hyperintervals.

For a box with trial vertex a, gradient g = f'(a) and an overestimate k of
the gradient's Lipschitz constant,

    f(x) >= f(a) + <g, x - a> - 0.5 * k * |x - a|^2   for x in the box.

Minimizing the linear part over the box (attained at a vertex) and
relaxing the quadratic term by the squared diagonal yields the certified
bound R(k) = F - k * d, with F the linearization minimum and d half the
squared diagonal. F and d do not depend on k; R decreases in k.
"""

from __future__ import annotations


def characterize(a_rec, u_rec, a_real, b_real, i, u_i, v_i) -> tuple[float, float, float, float]:
    """F of the three children of a split, and their common d.

    Box (a, b) is trisected on axis i at the new trial point u, two thirds
    of the way toward b, and at v, one third of the way; off axis i, u is a
    and v is b. ``a_rec`` and ``u_rec`` are the records ``(f_value,
    gradient, ...)`` at a and u, and ``u_i``, ``v_i`` the real coordinates
    of u and v on axis i. Returns ``(F_middle, F_low, F_high, d)`` for the
    middle child (u, v), the low child (a, v) and the high child (u, b).
    The root box is the low child of its own split on axis 0 with
    ``u_rec = a_rec``, ``u_i = a_real[0]`` and ``v_i = b_real[0]``.

    Per axis the linear model f(a) + <g, x - a> decreases toward the b side
    exactly when g_j * (b_j - a_j) < 0; summing those terms in axis order
    gives the minimum over all box vertices. Each sum starts at +0.0, so
    skipping the other terms equals adding min(term, 0.0) for every finite
    term, bit for bit. d is half the middle child's squared diagonal, added
    left to right: from Python 3.12 on, ``sum`` adds floats with
    compensation, and the last bit of d steers selection.
    """
    ga, gu = a_rec[1], u_rec[1]
    low = middle = high = sq = 0.0
    for j in range(len(a_real)):
        if j == i:
            w = v_i - u_i
            t = gu[j] * w
            if t < 0.0:
                middle += t
            t = ga[j] * (v_i - a_real[j])
            if t < 0.0:
                low += t
            t = gu[j] * (b_real[j] - u_i)
            if t < 0.0:
                high += t
        else:  # the three children's common side
            w = b_real[j] - a_real[j]
            t = ga[j] * w
            if t < 0.0:
                low += t
            t = gu[j] * w
            if t < 0.0:
                middle += t
                high += t
        sq += w * w
    fu = u_rec[0]
    return fu + middle, a_rec[0] + low, fu + high, 0.5 * sq
