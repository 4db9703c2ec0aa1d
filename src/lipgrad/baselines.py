"""Center-sampling DIRECT and its locally-biased variant.

Both methods partition the domain (normalized to the unit cube) into boxes
sampled at their centers, select potentially optimal boxes as the
nondominated dots of a (size measure, center value) diagram with the same
improvement margin as the gradient method, and trisect selected boxes along
all of their longest sides, best-sampled axis first. Neither method ever
reads gradients.

A split deepens every shallowest axis, so a box's depths are k or k + 1
with k = s // dim for its depth sum s: s fixes the box's shape, and both
group boxes by s in a ``geometry.BoxTable``. DIRECT measures a group by
half its squared diagonal and admits every minimal-value tie of the group
into the diagram. The locally-biased variant measures by the longest side,
which merges the groups of one longest-side level into a single dot: the
level's lowest center value, ties to the lower id. That bias keeps it from
spraying subdivisions across many near-optimal boxes.

Internal measures (group sizes, history diagonals) are in normalized
coordinates.
"""

from __future__ import annotations

from .geometry import BoxTable, grid_fraction, heap_min, heap_min_entries, pow3
from .stopping import (
    OptConfig,
    RunReport,
    RunState,
    check_stop,
    close_report,
    iterate,
    record_trial,
)


# A center box is the plain tuple (f_center, id, s, corner_nums, depths,
# center): ``corner_nums[j] / 3**depths[j]`` is the normalized lower corner on
# axis j, the box side there is 3**-depths[j], s is the depth sum, and
# ``center`` is the cell's center ``_CenterBoxes.center(corner_nums, depths)``,
# where f_center was sampled, at every depth. Each item is an int, a float or a
# tuple of them, so a collection untracks each box. A split's middle child
# keeps its parent's id and f_center, not re-evaluated.
CenterTuple = tuple[float, int, int, tuple[int, ...], tuple[int, ...], tuple[float, ...]]


def _diag_d(s: int, dim: int) -> float:
    """Half squared diagonal of the boxes with depth sum s, normalized: with
    k, r = divmod(s, dim) they have dim - r sides of 3**-k and r of 3**-(k + 1),
    so it is one int/int division, correctly rounded."""
    k, r = divmod(s, dim)
    return (9 * (dim - r) + r) / (2 * pow3(2 * k + 2))


class _CenterBoxes(BoxTable):
    def center(self, corner_nums, depths) -> tuple[float, ...]:
        # (2 num + 1) / (2 * 3**dep) is one int/int division, correctly rounded at any depth
        return tuple(
            lo + (2 * num + 1) / (2 * pow3(dep)) * ed
            for num, dep, lo, ed in zip(corner_nums, depths, self.lower, self.edge)
        )

    def corners(self, box: CenterTuple):
        a = b = ()
        for num, dep in zip(box[3], box[4]):
            a += grid_fraction(num, dep)
            b += grid_fraction(num + 1, dep)
        return a, b


class _CenterState(RunState):
    def __init__(self, problem, config: OptConfig, locally_biased: bool):
        self.locally_biased = locally_biased

        # Step 0: the root's center is always sampled, as p_max >= 1
        partition, zeros = _CenterBoxes(problem), (0,) * problem.dim
        x = partition.center(zeros, zeros)
        f0 = problem.value(x)
        partition.add_boxes(0, _diag_d(0, problem.dim), ((f0, 1, 0, zeros, zeros, x),))
        super().__init__(config, "center", partition, x, f0)

    def _sample(self, x: tuple[float, ...]) -> float | None:
        """Evaluate f at a box center; returns nothing if a stop rule fired first."""
        check_stop(self)
        if not self.stop_reason:
            value = self.problem.value(x)
            record_trial(self, x, value)
            return value

    def select(self) -> list[tuple]:
        """The diagram's ``(id, d, F)`` dots: group minima, or level minima."""
        boxes, groups, q_inf = self.partition.boxes, self.partition.groups, self.partition.q_inf
        if not self.locally_biased:  # every tied minimum of every group
            return [(box[1], groups[s].d, box[0]) for s in range(q_inf, len(groups))
                    for box in heap_min_entries(groups[s], boxes)]
        dim = self.problem.dim
        levels = {}  # the least (f_center, id) per longest-side level
        for s in range(q_inf, len(groups)):
            box, level = heap_min(groups[s], boxes), s // dim
            if box is not None and (level not in levels or box < levels[level]):
                levels[level] = box
        # d: half squared longest side, 1 / (2 * 9**level) by one int/int division
        return [(box[1], 1 / (2 * pow3(2 * level)), box[0]) for level, box in levels.items()]

    def subdivide(self, box_id: int) -> None:
        """Trisect along every longest side, best-sampled axis first."""
        part, dim = self.partition, self.problem.dim
        f_center, _, s, nums, deps, center = part.boxes[box_id]
        dmin = s // dim
        side = 2 * pow3(dmin + 1)
        samples = []
        for j, dep in enumerate(deps):
            if dep != dmin:
                continue
            # a child's center is the parent's with coordinate j replaced,
            # computed as center computes it
            lo, ed, lo_num = part.lower[j], part.edge[j], 3 * nums[j]
            head, tail = center[:j], center[j + 1:]
            x_lo = head + (lo + (2 * lo_num + 1) / side * ed,) + tail
            f_lo = self._sample(x_lo)
            x_hi = head + (lo + (2 * lo_num + 5) / side * ed,) + tail
            f_hi = self._sample(x_hi)
            if self.stop_reason:  # fired at x_lo or x_hi: _sample takes no trial after it
                return
            samples.append((min(f_lo, f_hi), j, f_lo, f_hi, x_lo, x_hi))
        samples.sort()

        next_id = part.m + 1  # ids stay dense: the middle child keeps box_id
        groups = part.groups
        # s: the children's depth sum. Each child stores its sampled point and the middle
        # child its parent's, the same exact center: each is center(corner_nums, depths)
        for s, (_, j, f_lo, f_hi, x_lo, x_hi) in enumerate(samples, s + 1):
            deps = deps[:j] + (dmin + 1,) + deps[j + 1:]
            d = groups[s].d if s < len(groups) else _diag_d(s, dim)  # _diag_d made every group's d
            lo_num = 3 * nums[j]
            head, tail = nums[:j], nums[j + 1:]
            part.add_boxes(s, d, ((f_lo, next_id, s, head + (lo_num,) + tail, deps, x_lo),
                                  (f_hi, next_id + 1, s, head + (lo_num + 2,) + tail, deps, x_hi)))
            next_id += 2
            nums = head + (lo_num + 1,) + tail
        part.add_boxes(s, d, ((f_center, box_id, s, nums, deps, center),))  # retires the split box


def _run(problem, config: OptConfig, locally_biased: bool, method: str) -> RunReport:
    state = _CenterState(problem, config, locally_biased)
    while not state.stop_reason:
        iterate(state, state.select(), _CenterState.subdivide)
    return close_report(state, method)


def direct_run(problem, config: OptConfig) -> RunReport:
    """Classic DIRECT (gradient-free) under the common stop rules."""
    return _run(problem, config, locally_biased=False, method="direct")


def directl_run(problem, config: OptConfig) -> RunReport:
    """Locally-biased DIRECT: one representative per longest-side level."""
    return _run(problem, config, locally_biased=True, method="directl")
