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
"""

from __future__ import annotations

import heapq
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


def half_diag_sq(a_real, b_real) -> float:
    """Half the squared distance between two real points.

    The squares are added left to right in axis order: from Python 3.12 on,
    ``sum`` adds floats with compensation, and the last bit of ``d`` steers
    selection.
    """
    total = 0.0
    for ar, br in zip(a_real, b_real):
        total += (br - ar) ** 2
    return 0.5 * total


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


def heap_min_entries(heap: list, boxes: list) -> list:
    """All minimum-key boxes ``(key, id, ...)`` of a lazy-deletion heap.

    An entry is live exactly when it is ``boxes[id]``; the others are
    discarded. Ties on the key are all returned (sorted by id, unique in a
    heap, so comparisons stop there) and pushed back.
    """
    out = []
    while heap:
        entry = heap[0]
        if boxes[entry[1]] is not entry:
            heapq.heappop(heap)
            continue
        if out and entry[0] != out[0][0]:
            break
        out.append(heapq.heappop(heap))
    for entry in out:
        heapq.heappush(heap, entry)
    return out


def heap_top(heap: list, boxes: list) -> tuple:
    """The least live box ``(key, id, ...)`` of a lazy-deletion heap with a
    live entry; the dead entries above it are discarded."""
    while boxes[heap[0][1]] is not heap[0]:
        heapq.heappop(heap)
    return heap[0]


@dataclass(slots=True, eq=False)
class Group:
    """A group of equal-size boxes: the unit every method selects among.

    ``heap`` is a lazy-deletion heap of the group's boxes and ``n`` the
    number of them still live; ``mins`` caches the tied minimal boxes and
    is None when they may have changed. ``d`` is the half squared diagonal
    the group stands for.
    """

    d: float
    heap: list = field(default_factory=list)
    mins: Optional[list] = None
    n: int = 0

    def add(self, box: tuple) -> None:
        heapq.heappush(self.heap, box)
        if self.mins is not None and box[0] <= self.mins[0][0]:
            self.mins = None
        self.n += 1

    def discard(self, box: tuple) -> None:
        if self.mins is not None and box in self.mins:
            self.mins = None
        self.n -= 1


class BoxTable:
    """Every method's live boxes by dense id and their groups by index s.

    Grid coordinate u on axis j is the real ``lower[j] + u * edge[j]`` of the
    domain of ``problem``. A box is a plain tuple ``(key, id, s, ...)`` in group s.
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

    def add_box(self, box: tuple, d: float) -> None:
        """File ``box`` under its id, a live one or one past the last, and
        under group s, a new one with half squared diagonal ``d`` when s is
        one past the last: a split files its children by ascending s."""
        s = box[2]
        if s == len(self.groups):  # the group's first box
            self.groups.append(Group(d))
        self.groups[s].add(box)
        self.boxes[box[1]:box[1] + 1] = (box,)

    def remove_split(self, box: tuple) -> None:
        """Discard a split box once its children are in; advance q_inf."""
        self.groups[box[2]].discard(box)
        while not self.groups[self.q_inf].n:
            self.q_inf += 1

    def group_min_entries(self, s: int) -> list:
        """Every box attaining the minimal key in group ``s``, by id; cached
        until the group's minimum may change, so callers must not modify it."""
        group = self.groups[s]
        if group.mins is None:
            if not group.n:
                return []
            group.mins = heap_min_entries(group.heap, self.boxes)
        return group.mins

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
        # there is edge[j] / 3**depths[s][j]; both tables grow in split_axis
        dim = len(self.lower)
        self.depths: list[tuple[int, ...]] = [(0,) * dim]
        self._split_axes: list[int] = []

        if start_vertex not in ("a", "b"):
            raise ValueError("start_vertex must be 'a' or 'b'")
        va, vb, orient = (0, 0) * dim, (1, 0) * dim, 0  # the corners 0 and 1
        if start_vertex == "b":
            va, vb, orient = vb, va, (1 << dim) - 1
        a_real = vertex_real(va, self.lower, self.edge)
        b_real = vertex_real(vb, self.lower, self.edge)
        rec = self.get_or_eval(va, a_real)
        d = half_diag_sq(a_real, b_real)
        self.add_box((bounding.characterize(rec, a_real, b_real), 1, 0, rec, orient, b_real, d), d)

    def get_or_eval(self, v: GridVertex, x: tuple[float, ...]) -> Record:
        """Read the record for ``v`` or evaluate f and f' there exactly once.

        ``x`` must be ``vertex_real(v, self.lower, self.edge)``; callers
        already hold it.
        """
        rec = self.vertex_db.get(v)
        if rec is None:
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
        box = self.boxes[t]
        _, _, s, a_rec, orient, b_real, _ = box
        _, _, a, a_real = a_rec
        i = self.split_axis(s)
        k = self.depths[s + 1][i]  # the children's depth on axis i
        j = 2 * i  # axis i's (num, depth) in a grid point
        an = a[j] * pow3(k - a[j + 1])  # a multiple of 3: a is on the parent's grid
        step = -1 if orient >> i & 1 else 1  # toward b, so u = a + 2/3 (b - a) is normalized
        # and the children's new b is a + 1/3 (b - a); int / int rounds as vertex_real does
        u = a[:j] + (an + 2 * step, k) + a[j + 2:]
        lo_i, ed_i = self.lower[i], self.edge[i]
        u_real = a_real[:i] + (lo_i + (an + 2 * step) / pow3(k) * ed_i,) + a_real[i + 1:]
        v_real = b_real[:i] + (lo_i + (an + step) / pow3(k) * ed_i,) + b_real[i + 1:]

        before = len(self.vertex_db)
        rec = self.get_or_eval(u, u_real)
        new_rec = rec if len(self.vertex_db) > before else None

        s += 1
        m = len(self.boxes) - 1
        # children share side lengths, hence one d for all three; each box is
        # made with its bound F from the record at its trial vertex
        d = half_diag_sq(u_real, v_real)
        bound = bounding.characterize
        middle = (bound(rec, rec[3], v_real), t, s, rec, orient ^ (1 << i), v_real, d)
        low = (bound(a_rec, a_real, v_real), m + 1, s, a_rec, orient, v_real, d)
        high = (bound(rec, rec[3], b_real), m + 2, s, rec, orient, b_real, d)
        for child in (middle, low, high):
            self.add_box(child, d)
        self.remove_split(box)
        return middle, low, high, new_rec

    def split_axis(self, s: int) -> int:
        """The axis along which every box of group ``s`` is trisected.

        Each box of group s has been split s times, always along its longest
        real side (lowest axis on ties), so all of them share one side vector
        and one split axis. The tables grow once per new group, comparing
        exact side lengths.
        """
        axes, depths, edge = self._split_axes, self.depths, self.edge
        while len(axes) <= s:
            k = depths[-1]
            i = max(range(len(k)), key=lambda j: Fraction(edge[j]) / pow3(k[j]))
            axes.append(i)
            depths.append(k[:i] + (k[i] + 1,) + k[i + 1:])
        return axes[s]

    def corners(self, box: BoxTuple) -> tuple[GridVertex, GridVertex]:
        """The grid points of a box's corners a and b; b is one side of the
        group's grid from a on every axis, down where ``orient`` has its bit."""
        _, _, s, rec, orient, *_ = box
        a, b = rec[2], ()
        for j, k in enumerate(self.depths[s]):
            step = -1 if orient >> j & 1 else 1
            b += grid_fraction(a[2 * j] * pow3(k - a[2 * j + 1]) + step, k)
        return a, b
