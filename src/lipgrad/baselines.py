"""Center-sampling DIRECT and its locally-biased variant.

Both methods partition the domain (normalized to the unit cube) into boxes
sampled at their centers, select potentially optimal boxes as the
nondominated dots of a (size measure, center value) diagram with the same
improvement margin as the gradient method, and trisect selected boxes along
all of their longest sides, best-sampled axis first. Neither method ever
reads gradients.

DIRECT measures boxes by half their squared diagonal and admits every
minimal-value tie of a diagonal group into the diagram. The locally-biased
variant measures by the longest side, which merges boxes of different
shapes into far fewer groups, and admits exactly one representative per
group (lowest center value, ties to the lower id), the bias that keeps it
from spraying subdivisions across many near-optimal boxes.

Internal measures (group sizes, history diagonals) are in normalized
coordinates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import selection
from .geometry import grid_fraction, heap_min_entries, pow3, vertex_str
from .optimizer import OptConfig
from .stopping import (
    REASON_BUDGET,
    RunReport,
    check_stop,
    close_report,
    log_history,
    record_trial,
)


@dataclass(slots=True)
class CenterBox:
    """A box of the center-sampling partition.

    ``corner_nums[j] / 3**depths[j]`` is the normalized lower corner on axis
    j; the box side there is 3**-depths[j]. The middle child of a split
    keeps its parent's center, so that sample is never re-evaluated.
    """

    id: int
    corner_nums: tuple[int, ...]
    depths: tuple[int, ...]
    f_center: float

    @property
    def group_key(self) -> tuple[int, ...]:
        return tuple(sorted(self.depths))


def _diag_d(key: tuple[int, ...]) -> float:
    """Half squared diagonal of a sorted depth vector, normalized."""
    return 0.5 * sum(1.0 / pow3(2 * d) for d in key)


class _CenterState:
    def __init__(self, problem, config: OptConfig, locally_biased: bool):
        self.problem = problem
        self.config = config
        self.locally_biased = locally_biased
        self.lower = tuple(float(v) for v in problem.lower)
        self.edge = tuple(float(u) - l for l, u in zip(self.lower, problem.upper))
        self.boxes: dict[int, CenterBox] = {}
        # selection groups: sorted depth vector (DIRECT) or longest-side
        # level = min depth (locally biased)
        self.groups: dict = {}
        self._heaps: dict = {}
        # tied minimal (f_center, id) entries per group, dropped when they
        # may change
        self._mins: dict = {}
        self._d_cache: dict = {}
        # diagonal bookkeeping is always by sorted depth vector
        self._diag_counts: dict[tuple[int, ...], int] = {}
        self.trials = 0
        self.f_min = math.inf
        self.x_min: tuple[float, ...] = ()
        self.phase = "center"
        self.stop_reason = None
        self.history: list[tuple[int, float, float]] = []
        self.trace = [] if config.keep_trace else None

        n = problem.dim
        f0 = self._sample((0,) * n, (0,) * n)
        self._add_box(CenterBox(1, (0,) * n, (0,) * n, f0))
        self.initial_diag_sq = self.max_diagonal_sq()
        log_history(self)

    def _select_key(self, box: CenterBox):
        if self.locally_biased:
            return min(box.depths)
        return box.group_key

    def _key_d(self, key) -> float:
        if self.locally_biased:
            return 0.5 / pow3(2 * key)  # half squared longest side
        return _diag_d(key)

    def _center_point(self, corner_nums, depths) -> tuple[float, ...]:
        return tuple(
            lo + (num + 0.5) / pow3(dep) * ed
            for num, dep, lo, ed in zip(corner_nums, depths, self.lower, self.edge)
        )

    def _sample(self, corner_nums, depths) -> float:
        """Evaluate f at a box center; returns nan if a stop rule fired first."""
        if self.trials >= self.config.p_max:
            self.stop_reason = REASON_BUDGET
            return math.nan
        x = self._center_point(corner_nums, depths)
        value = self.problem.value(x)
        self.trials += 1
        if record_trial(self, x, value):
            self.x_min = x
        return value

    def _add_box(self, box: CenterBox) -> None:
        self.boxes[box.id] = box
        key = self._select_key(box)
        live = self.groups.get(key)
        if live is None:  # the group's first box
            live = self.groups[key] = set()
            self._heaps[key] = []
            self._d_cache[key] = self._key_d(key)
        live.add(box.id)
        heapq.heappush(self._heaps[key], (box.f_center, box.id))
        cached = self._mins.get(key)
        if cached is not None and box.f_center <= cached[0][0]:
            del self._mins[key]
        dkey = box.group_key
        self._diag_counts[dkey] = self._diag_counts.get(dkey, 0) + 1

    def _remove_box(self, box: CenterBox) -> None:
        del self.boxes[box.id]
        key = self._select_key(box)
        self.groups[key].discard(box.id)
        cached = self._mins.get(key)
        if cached is not None and (box.f_center, box.id) in cached:
            del self._mins[key]
        self._diag_counts[box.group_key] -= 1

    def max_diagonal_sq(self) -> float:
        return 2.0 * max(
            _diag_d(key) for key, count in self._diag_counts.items() if count
        )

    def select(self) -> list[int]:
        """Potentially optimal boxes: group minima -> hull -> margin filter."""
        dots = []
        for key, live in self.groups.items():
            if not live:
                continue
            entries = self._mins.get(key)
            if entries is None:
                entries = self._mins[key] = heap_min_entries(self._heaps[key], live)
            if self.locally_biased:
                entries = entries[:1]
            d = self._d_cache[key]
            for F, box_id in entries:
                s = sum(self.boxes[box_id].depths)
                dots.append(selection.Dot(box_id, d, F, s))
        return selection.choose(dots, self.f_min, self.config.epsilon)

    def subdivide(self, box_id: int) -> None:
        """Trisect along every longest side, best-sampled axis first."""
        box = self.boxes[box_id]
        dmin = min(box.depths)
        axes = [j for j, dep in enumerate(box.depths) if dep == dmin]
        samples = []
        for j in axes:
            nums = box.corner_nums
            deps = box.depths
            child_deps = deps[:j] + (deps[j] + 1,) + deps[j + 1:]
            lo_nums = nums[:j] + (3 * nums[j],) + nums[j + 1:]
            hi_nums = nums[:j] + (3 * nums[j] + 2,) + nums[j + 1:]
            f_lo = self._sample(lo_nums, child_deps)
            if self.stop_reason:
                return
            f_hi = self._sample(hi_nums, child_deps)
            if self.stop_reason:
                return
            samples.append((min(f_lo, f_hi), j, f_lo, f_hi))
        samples.sort()

        current = box
        self._remove_box(box)
        next_id = len(self.boxes) + 2  # ids stay dense: parent id is reserved
        for _, j, f_lo, f_hi in samples:
            deps = current.depths[:j] + (current.depths[j] + 1,) + current.depths[j + 1:]
            base = 3 * current.corner_nums[j]
            lo_nums = current.corner_nums[:j] + (base,) + current.corner_nums[j + 1:]
            mid_nums = current.corner_nums[:j] + (base + 1,) + current.corner_nums[j + 1:]
            hi_nums = current.corner_nums[:j] + (base + 2,) + current.corner_nums[j + 1:]
            self._add_box(CenterBox(next_id, lo_nums, deps, f_lo))
            self._add_box(CenterBox(next_id + 1, hi_nums, deps, f_hi))
            next_id += 2
            current = CenterBox(current.id, mid_nums, deps, current.f_center)
        self._add_box(current)

    def iterate(self) -> None:
        for box_id in self.select():
            self.subdivide(box_id)
            if self.stop_reason:
                break
            check_stop(self)
            if self.stop_reason:
                break
        log_history(self)

    def snapshot_lines(self) -> list[str]:
        lines = []
        for box in sorted(self.boxes.values(), key=lambda b: b.id):
            corner = list(zip(box.corner_nums, box.depths))
            a = vertex_str(tuple(grid_fraction(n, d) for n, d in corner))
            b = vertex_str(tuple(grid_fraction(n + 1, d) for n, d in corner))
            lines.append(f"{box.id} {sum(box.depths)} {a} {b}")
        return lines


def _run(problem, config: OptConfig, locally_biased: bool, method: str) -> RunReport:
    state = _CenterState(problem, config, locally_biased)
    check_stop(state)
    while not state.stop_reason:
        state.iterate()
    return close_report(state, method, len(state.boxes), state.x_min, state.snapshot_lines)


def direct_run(problem, config: OptConfig) -> RunReport:
    """Classic DIRECT (gradient-free) under the common stop rules."""
    return _run(problem, config, locally_biased=False, method="direct")


def directl_run(problem, config: OptConfig) -> RunReport:
    """Locally-biased DIRECT: longest-side groups, one representative each."""
    return _run(problem, config, locally_biased=True, method="directl")
