"""Exact base-3 hyperinterval partitioning with a shared vertex database.

Trisection only ever produces coordinates of the form k / 3^m along each
axis, so vertices are stored as exact grid fractions relative to the domain
and database lookups never rely on floating-point comparisons. Every value
and gradient is therefore computed at most once per distinct vertex.

Boxes carry an oriented main diagonal (a, b): ``a`` is the trial vertex,
held as its record in the database, and the coordinates of ``b`` need not be
larger than those of ``a``. Every box of a group has the same side on each
axis, so a box keeps ``b`` as one orientation int on its group's grid plus
its real point.

Boxes of equal size form a group: its half squared diagonal and a lazy
heap of its boxes, from which each read takes the least live boxes in place.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bounding

_POW3 = [1]


def pow3(k: int) -> int:
    """3**k with memoization."""
    while len(_POW3) <= k:
        _POW3.append(_POW3[-1] * 3)
    return _POW3[k]


# A grid coordinate num / 3**depth in [0, 1] is a normalized (num, depth)
# pair. A grid point is one flat tuple of ints (num_0, depth_0, num_1,
# depth_1, ...), one pair per axis, relative to the domain, so the first
# collection that sees it untracks it. Nested pair tuples would take one
# collection more, and so would every box holding the point: most boxes
# would then reach the oldest generation still tracked.
GridFraction = tuple[int, int]
GridVertex = tuple[int, ...]


def vertex_str(v: GridVertex) -> str:
    return ",".join(f"{num}/{pow3(depth)}" for num, depth in zip(v[::2], v[1::2]))


def grid_fraction(num: int, depth: int) -> GridFraction:
    """Normalized grid fraction: depth 0, or numerator not divisible by 3."""
    if depth < 0 or num < 0 or num > pow3(depth):
        raise ValueError(f"not a grid coordinate in [0, 1]: {num}/3^{depth}")
    while depth > 0 and num % 3 == 0:
        num //= 3
        depth -= 1
    return (num, depth)


def vertex_real(v: GridVertex, lower, edge) -> tuple[float, ...]:
    """Real coordinates of a grid point on the domain ``lower + [0, edge]``."""
    return tuple(
        lo + num / pow3(depth) * ed
        for num, depth, lo, ed in zip(v[::2], v[1::2], lower, edge)
    )


# A vertex's record is the plain tuple (f_value, gradient, vertex, point) and
# a box the plain tuple (F, id, s, rec, orient, b_real, d): ``rec`` is the
# record of the trial vertex a, the very object the vertex database holds,
# ``F`` the bound set when the partition makes the box and ``d`` half the
# squared real diagonal. Bit j of ``orient`` is set when the opposite corner b
# lies below a on axis j, and ``b_real`` is b's real point. Every item is an
# int, a float or a tuple of them, so a collection untracks each record and
# box and later ones skip them; they hold no cycles.
Record = tuple[float, tuple[float, ...], GridVertex, tuple[float, ...]]
BoxTuple = tuple[float, int, int, Record, int, tuple[float, ...], float]


@dataclass(slots=True, eq=False)
class Group:
    """A group of equal-size boxes: the unit every method selects among.

    ``d`` is the half squared diagonal the group stands for and ``heap`` a
    lazy-deletion heap of its boxes: an entry is live exactly when it is
    ``boxes[id]``, and ``heap_min`` and ``heap_min_entries`` read its minima.
    """

    d: float
    heap: list = field(default_factory=list)


def heap_min(group: Group, boxes: list) -> Optional[tuple]:
    """The least live box ``(key, id, ...)`` of ``group``, or None. Dead
    entries, which are not ``boxes[id]``, are popped while they sit at the
    root, so the live root is the least ``(key, id)`` of the group."""
    heap = group.heap
    while heap and boxes[heap[0][1]] is not heap[0]:
        heapq.heappop(heap)
    return heap[0] if heap else None


def heap_min_entries(group: Group, boxes: list) -> list:
    """Every minimum-key live box of ``group``: ``[]`` when it has none, else
    the least first, then the other ties in heap order. Dead roots are popped
    as in ``heap_min``. By heap order the ties form a subtree at the root: it
    is walked in place, only when a child of the root ties it, and no live
    entry is popped or pushed back."""
    heap = group.heap
    while heap and boxes[heap[0][1]] is not heap[0]:
        heapq.heappop(heap)
    if not heap:
        return []
    root, n = heap[0], len(heap)
    key = root[0]
    if not (n > 1 and heap[1][0] == key or n > 2 and heap[2][0] == key):
        return [root]
    out, todo = [root], [1, 2]
    for p in todo:  # todo grows with the children of every tie
        if p < n and heap[p][0] == key:
            entry = heap[p]
            if boxes[entry[1]] is entry:
                out.append(entry)
            todo += (2 * p + 1, 2 * p + 2)
    return out


class BoxTable:
    """Every method's live boxes by dense id and their groups by index s.

    Grid coordinate u on axis j is the real ``lower[j] + u * edge[j]`` of the
    domain of ``problem``. A box is a plain tuple ``(key, id, s, ...)`` in group s,
    and is its own heap entry: ids are unique, so comparisons stop at ``(key, id)``.
    ``boxes[i]`` is the live box with id i, for i in 1..m; slot 0 is unused.
    No group is ever deleted; ``q_inf`` is the lowest with a live box. A
    subclass gives ``corners(box)``, the grid points of corners a and b.
    """

    def __init__(self, problem):
        self.problem = problem
        self.lower = problem.lower
        self.edge = tuple(u - l for l, u in zip(self.lower, problem.upper))
        self.boxes: list = [None]
        self.groups: list[Group] = []
        self.q_inf = 0

    @property
    def q_0(self) -> int:
        """Index of the group of the smallest boxes."""
        return len(self.groups) - 1

    @property
    def m(self) -> int:
        return len(self.boxes) - 1

    def add_boxes(self, s: int, d: float, new: tuple) -> None:
        """File the new boxes of group s, a new group with half squared
        diagonal ``d`` when s is one past the last: a split files its
        children by ascending s. Each box goes on its group's heap. A box
        whose id is live, the split's child that keeps its id, takes its
        slot and retires the split box; when that box was in group q_inf,
        q_inf advances while its group reads empty. The others are
        appended, their ids following on from the last."""
        groups, boxes = self.groups, self.boxes
        if s == len(groups):  # the group's first boxes
            groups.append(Group(d))
        heap, end = groups[s].heap, len(boxes)
        split = None
        for box in new:
            heapq.heappush(heap, box)
            if box[1] < end:
                split, boxes[box[1]] = boxes[box[1]], box
            else:
                boxes.append(box)
        if split is not None and split[2] == self.q_inf:
            while heap_min(groups[self.q_inf], boxes) is None:
                self.q_inf += 1

    def max_diagonal_sq(self) -> float:
        """Squared diagonal of the largest live boxes (group q_inf): one value
        per group, as its boxes share their sides, so no last-ulp jitter."""
        return 2.0 * self.groups[self.q_inf].d

    def snapshot_lines(self) -> list[str]:
        """One line per box: id, s, a-coords, b-coords as exact fractions."""
        lines = []
        for box in self.boxes[1:]:
            a, b = self.corners(box)
            lines.append(f"{box[1]} {box[2]} {vertex_str(a)} {vertex_str(b)}")
        return lines


class Partition(BoxTable):
    """The live set of hyperintervals plus the shared vertex database.

    Confined to a single optimizer run; not safe for concurrent mutation.
    Every entry of ``vertex_db`` is one trial of ``problem``, in evaluation
    order, and every box holds the record of its trial vertex from there.
    Group s holds the boxes split s times.
    """

    def __init__(self, problem, start_vertex: str = "a"):
        super().__init__(problem)
        self.vertex_db: dict[GridVertex, Record] = {}
        # depths[s][j]: the splits of axis j in a box of group s, whose side
        # there is edge[j] / 3**depths[s][j]; splits[s]: what a split of group
        # s reads, (axis i, the children's depth k on it, 3**k, lower[i],
        # edge[i]); both tables grow in split_axis
        dim = len(self.lower)
        self.depths: list[tuple[int, ...]] = [(0,) * dim]
        self._splits: list[tuple[int, int, int, float, float]] = []

        va, vb, orient = (0, 0) * dim, (1, 0) * dim, 0  # the corners 0 and 1
        if start_vertex == "b":
            va, vb, orient = vb, va, (1 << dim) - 1
        a_real = vertex_real(va, self.lower, self.edge)
        b_real = vertex_real(vb, self.lower, self.edge)
        rec = self.get_or_eval(va, a_real, 0, a_real[0])
        # the root is the low child of its own split on axis 0 at u = a, v = b;
        # every other box's d is smaller, so one check bounds the run's d above
        _, F, _, d = bounding.characterize(rec, rec, a_real, b_real, 0, a_real[0], b_real[0])
        if not sys.float_info.min <= d < math.inf:
            raise ValueError(f"problem {problem.name}: the domain is too "
                             f"{'wide' if d > 1.0 else 'narrow'}, its half squared "
                             f"diagonal is not a positive normal float")
        self.add_boxes(0, d, ((F, 1, 0, rec, orient, b_real, d),))

    def get_or_eval(self, v: GridVertex, base: tuple[float, ...], i: int, x_i: float) -> Record:
        """Read the record for ``v`` or evaluate f and f' there exactly once.

        ``base`` with coordinate ``i`` set to ``x_i`` must be
        ``vertex_real(v, self.lower, self.edge)``; that point is built only
        on a miss.
        """
        rec = self.vertex_db.get(v)
        if rec is None:
            x = base[:i] + (x_i,) + base[i + 1:]
            f_value, gradient = self.problem.value_and_grad(x)
            rec = self.vertex_db[v] = (f_value, gradient, v, x)
        return rec

    def trisect(self, t: int) -> tuple[BoxTuple, BoxTuple, BoxTuple, Optional[Record]]:
        """Split box ``t`` perpendicular to its longest side into equal thirds.

        The middle child keeps id ``t``; the children adjacent to the old
        ``a`` and ``b`` vertices get ids m+1 and m+2. The low child keeps the
        parent's record, the other two get the record at the new trial point
        u. Returns the children, each with its bound F, plus the record at u,
        or None if it was reused.
        """
        _, _, s, a_rec, orient, b_real, _ = self.boxes[t]
        _, _, a, a_real = a_rec
        splits = self._splits
        if s >= len(splits):
            self.split_axis(s)
        i, k, p3, lo_i, ed_i = splits[s]
        j = 2 * i  # axis i's (num, depth) in a grid point
        an = a[j] * _POW3[k - a[j + 1]]  # a multiple of 3: a is on the parent's grid
        step = -1 if orient >> i & 1 else 1  # toward b, so u = a + 2/3 (b - a) is normalized
        # and the children's new b is a + 1/3 (b - a); int / int rounds as vertex_real does
        u = a[:j] + (an + 2 * step, k) + a[j + 2:]
        u_i = lo_i + (an + 2 * step) / p3 * ed_i
        v_i = lo_i + (an + step) / p3 * ed_i
        v_real = b_real[:i] + (v_i,) + b_real[i + 1:]

        before = len(self.vertex_db)
        rec = self.get_or_eval(u, a_real, i, u_i)
        new_rec = rec if len(self.vertex_db) > before else None

        # children share side lengths, hence one d for all three
        F_middle, F_low, F_high, d = bounding.characterize(a_rec, rec, a_real, b_real, i, u_i, v_i)
        s += 1
        m = len(self.boxes) - 1
        middle = (F_middle, t, s, rec, orient ^ (1 << i), v_real, d)
        low = (F_low, m + 1, s, a_rec, orient, v_real, d)
        high = (F_high, m + 2, s, rec, orient, b_real, d)
        self.add_boxes(s, d, (middle, low, high))
        return middle, low, high, new_rec

    def split_axis(self, s: int) -> int:
        """The axis along which every box of group ``s`` is trisected.

        Each box of group s has been split s times, always along its longest
        real side (lowest axis on ties), so all of them share one side vector
        and one split axis. The tables grow once per new group, comparing
        exact side lengths.
        """
        splits, depths, edge = self._splits, self.depths, self.edge
        while len(splits) <= s:
            k = depths[-1]
            i = max(range(len(k)), key=lambda j: Fraction(edge[j]) / pow3(k[j]))
            splits.append((i, k[i] + 1, pow3(k[i] + 1), self.lower[i], edge[i]))
            depths.append(k[:i] + (k[i] + 1,) + k[i + 1:])
        return splits[s][0]

    def corners(self, box: BoxTuple) -> tuple[GridVertex, GridVertex]:
        """The grid points of a box's corners a and b; b is one side of the
        group's grid from a on every axis, down where ``orient`` has its bit."""
        _, _, s, rec, orient, *_ = box
        a, b = rec[2], ()
        for j, k in enumerate(self.depths[s]):
            step = -1 if orient >> j & 1 else 1
            b += grid_fraction(a[2 * j] * pow3(k - a[2 * j + 1]) + step, k)
        return a, b
