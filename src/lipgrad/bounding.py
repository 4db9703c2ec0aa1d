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

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # geometry calls characterize when it creates a box
    from .geometry import Box, VertexRecord


def characterize(box: Box, rec: VertexRecord) -> float:
    """F: the minimum of the gradient linearization over the box; F <= f(a).

    Per axis the linear model f(a) + <g, x - a> decreases toward the b side
    exactly when g_j * (b_j - a_j) < 0; summing those terms in axis order
    gives the minimum over all box vertices. The sum starts at +0.0, so
    skipping the other terms equals adding min(term, 0.0) for every finite
    term, bit for bit.
    """
    total = 0.0
    for g, ar, br in zip(rec.gradient, box.a_real, box.b_real):
        t = g * (br - ar)
        if t < 0.0:
            total += t
    return rec.f_value + total


def eval_minorant(box: Box, rec: VertexRecord, khat: float, x) -> float:
    """The quadratic minorant Q(x, khat) at a point of the box.

    Intended for property tests and diagrams, not the search itself.
    """
    if khat <= 0:
        raise ValueError("khat must be positive")
    q = rec.f_value
    norm_sq = 0.0
    for j, (ar, br) in enumerate(zip(box.a_real, box.b_real)):
        lo, hi = (ar, br) if ar <= br else (br, ar)
        slack = 1e-9 * max(1.0, hi - lo)
        if not lo - slack <= x[j] <= hi + slack:
            raise ValueError(f"point outside box on axis {j}: {x[j]} not in [{lo}, {hi}]")
        dx = x[j] - ar
        q += rec.gradient[j] * dx
        norm_sq += dx * dx
    return q - 0.5 * khat * norm_sq
