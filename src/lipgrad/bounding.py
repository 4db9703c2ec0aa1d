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


def characterize(rec, a_real, b_real) -> float:
    """F: the minimum of the gradient linearization over a box; F <= f(a).

    ``rec`` is the record at the trial vertex a, ``(f_value, gradient, ...)``,
    and ``a_real``, ``b_real`` are the box's real corners. Per axis the
    linear model f(a) + <g, x - a> decreases toward the b side exactly when
    g_j * (b_j - a_j) < 0; summing those terms in axis order gives the
    minimum over all box vertices. The sum starts at +0.0, so skipping the
    other terms equals adding min(term, 0.0) for every finite term, bit for
    bit.
    """
    f_value, gradient = rec[0], rec[1]
    total = 0.0
    for g, ar, br in zip(gradient, a_real, b_real):
        t = g * (br - ar)
        if t < 0.0:
            total += t
    return f_value + total
