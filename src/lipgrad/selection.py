"""Nondominated box selection on the (d, F) diagram.

Each box is a dot with abscissa d (half squared diagonal) and ordinate F
(minimum of its gradient linearization). For a Lipschitz estimate k > 0 the
bound of a box is F - k * d, so the boxes achieving the smallest bound for
at least one k are exactly the dots on the lower-right convex hull of the
diagram, from the global minimum-F dot to the largest-d dot. DIRECT-style
center dots reuse the same machinery with F = f(center).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .geometry import heap_min_entries

# A dot is the plain tuple (box_id, d, F): every method builds its dots
# afresh each iteration, and a plain tuple is the cheapest thing to build and
# index.
DotTuple = tuple[int, float, float]


class HullResult(NamedTuple):
    """Nondominated dots ordered by increasing d.

    ``slopes[i]`` is k_hi, the upper end of the interval of Lipschitz
    estimates for which ``dots[i]`` attains the minimal bound; the
    largest-d dot has k_hi = inf. The lower end is the previous distinct
    dot's k_hi, 0 for the first. Dots tied at the same (d, F) share k_hi.
    """

    dots: tuple[DotTuple, ...]
    slopes: tuple[float, ...]

    @property
    def selected(self) -> tuple[int, ...]:
        """The box ids of ``dots``, in their order."""
        return tuple(dot[0] for dot in self.dots)


def group_representatives(partition, s_lo: int, s_hi: int) -> list[DotTuple]:
    """Minimal-F dot(s) of every nonempty group with s in [s_lo, s_hi].

    Ties on F within a group are all included; empty groups are skipped.
    """
    groups, boxes = partition.groups, partition.boxes
    return [(box[1], box[6], box[0])  # (id, d, F)
            for s in range(s_lo, s_hi + 1) for box in heap_min_entries(groups[s], boxes)]


_BY_D_F_ID = itemgetter(1, 2, 0)


def nondominated(dots) -> HullResult:
    """Dots with the smallest bound F - k*d for at least one k > 0.

    Collinear dots on a hull edge tie at the edge's slope and are all kept,
    as are dots sharing the same (d, F).
    """
    if not dots:
        raise ValueError("nondominated() needs at least one dot")
    # lower chain over the distinct d, each with its lowest F and the dots
    # tying it: in (d, F, id) order the first dot at a d has the lowest F
    ordered = sorted(dots, key=_BY_D_F_ID)
    if ordered[0][1] <= 0:  # the smallest d comes first
        raise ValueError(f"dot {ordered[0][0]} has nonpositive d")
    hull: list[tuple[float, float, list[DotTuple]]] = []
    for dot in ordered:
        _, d, F = dot
        if hull and d == hull[-1][0]:
            if F == hull[-1][1]:
                hull[-1][2].append(dot)
            continue
        # pop while the last vertex lies above the chord to (d, F)
        while len(hull) >= 2:
            (d1, F1, _), (d2, F2, _) = hull[-2], hull[-1]
            if (d2 - d1) * (F - F1) - (F2 - F1) * (d - d1) < 0:
                hull.pop()
            else:
                break
        hull.append((d, F, [dot]))

    # start at the minimum-F vertex (largest d among minima); anything left
    # of it is dominated for every positive slope
    start, f_min = 0, hull[0][1]
    for i, (_, F, _) in enumerate(hull):
        if F <= f_min:
            start, f_min = i, F

    sel_dots: list[DotTuple] = []
    slopes: list[float] = []
    last = len(hull) - 1
    for i in range(start, last + 1):
        d1, F1, ties = hull[i]
        if i < last:
            d2, F2, _ = hull[i + 1]
            k_hi = (F2 - F1) / (d2 - d1)
        else:
            k_hi = math.inf
        for dot in ties:
            sel_dots.append(dot)
            slopes.append(k_hi)
    return HullResult(tuple(sel_dots), tuple(slopes))


def improvement_filter(hull: HullResult, f_min: float, xi: float) -> list[int]:
    """Hull dots whose best attainable bound undercuts f_min - xi.

    Each dot is tested at k_hi, the top of its slope interval, where its
    bound is smallest; the largest-d dot has k_hi = inf and always passes.
    """
    keep = []
    for (box_id, d, F), k_hi in zip(hull.dots, hull.slopes):
        if math.isinf(k_hi) or F - k_hi * d <= f_min - xi:
            keep.append(box_id)
    return keep


def choose(dots, f_min: float, epsilon: float) -> list[int]:
    """Boxes to subdivide: the nondominated dots that pass the margin
    xi = epsilon * |f_min|; ``OptConfig`` checked epsilon when it was made."""
    return improvement_filter(nondominated(dots), f_min, epsilon * abs(f_min))

