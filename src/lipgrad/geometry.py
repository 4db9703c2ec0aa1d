"""Exact base-3 hyperinterval partitioning with a shared vertex database.

Trisection only ever produces coordinates of the form k / 3^m along each
axis, so vertices are stored as exact grid fractions relative to the domain
and database lookups never rely on floating-point comparisons. Every value
and gradient is therefore computed at most once per distinct vertex.

Boxes carry an oriented main diagonal (a, b): ``a`` is the trial vertex and
the coordinates of ``b`` need not be larger than those of ``a``.
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


def fraction_str(c: GridFraction) -> str:
    return f"{c[0]}/{pow3(c[1])}"


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


def third_points(p: GridFraction, q: GridFraction) -> tuple[GridFraction, GridFraction]:
    """The two interior points splitting [p, q] in thirds.

    Returns ((p + 2q)/3, (2p + q)/3): the first lies two thirds of the way
    from p to q, the second one third of the way.
    """
    (pn, pd), (qn, qd) = p, q
    m = max(pd, qd)
    pn *= pow3(m - pd)
    qn *= pow3(m - qd)
    return grid_fraction(pn + 2 * qn, m + 1), grid_fraction(2 * pn + qn, m + 1)


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


def corner_vertex(dim: int, upper: bool) -> GridVertex:
    return grid_fraction(1 if upper else 0, 0) * dim


# A vertex's record is the plain tuple (f_value, gradient) and a box the
# plain tuple (id, s, a, b, a_real, b_real, d, F): ``a`` is the trial vertex,
# ``d`` half the squared real diagonal and ``F`` the minimum of the gradient
# linearization over the box, set when the partition makes the box. Every
# item is an int, a float or a tuple of them, so a collection untracks each
# record and box and later ones skip them; they hold no cycles.
Record = tuple[float, tuple[float, ...]]
BoxTuple = tuple[int, int, GridVertex, GridVertex,
                 tuple[float, ...], tuple[float, ...], float, float]


def heap_min_entries(heap: list, live) -> list:
    """All minimum-key entries ``(key, ident)`` of a lazy-deletion heap.

    Entries whose ident is not in ``live`` are discarded; ties on the key are
    all returned (sorted by ident) and pushed back.
    """
    out = []
    while heap:
        key, ident = heap[0]
        if ident not in live:
            heapq.heappop(heap)
            continue
        if out and key != out[0][0]:
            break
        out.append(heapq.heappop(heap))
    for entry in out:
        heapq.heappush(heap, entry)
    return out


@dataclass(slots=True, eq=False)
class Group:
    """A group of equal-size boxes: the unit every method selects among.

    ``live`` holds the ids of the group's boxes and ``heap`` a lazy-deletion
    heap of their ``(value, id)`` entries; ``mins`` caches the tied minimal
    entries and is None when they may have changed. ``d`` is the half
    squared diagonal the group stands for.
    """

    d: float
    live: set[int] = field(default_factory=set)
    heap: list[tuple[float, int]] = field(default_factory=list)
    mins: Optional[list[tuple[float, int]]] = None

    def add(self, value: float, ident: int) -> None:
        heapq.heappush(self.heap, (value, ident))
        if self.mins is not None and value <= self.mins[0][0]:
            self.mins = None
        self.live.add(ident)

    def discard(self, value: float, ident: int) -> None:
        if self.mins is not None and (value, ident) in self.mins:
            self.mins = None
        self.live.discard(ident)


class Partition:
    """The live set of hyperintervals plus the shared vertex database.

    Confined to a single optimizer run; not safe for concurrent mutation.
    Every entry of ``vertex_db`` is one trial, in evaluation order.
    """

    def __init__(self, problem, start_vertex: str = "a"):
        self.lower = problem.lower
        self.edge = tuple(u - l for l, u in zip(self.lower, problem.upper))
        self.vertex_db: dict[GridVertex, Record] = {}
        self.boxes: dict[int, BoxTuple] = {}
        # group s holds the boxes split s times; none is ever deleted
        self.groups: list[Group] = []
        # real side lengths of the next group to get a split axis
        self._sides = [Fraction(e) for e in self.edge]
        self._split_axes: list[int] = []
        self.q_inf = 0

        dim = len(self.lower)
        if start_vertex == "a":
            va, vb = corner_vertex(dim, False), corner_vertex(dim, True)
        elif start_vertex == "b":
            va, vb = corner_vertex(dim, True), corner_vertex(dim, False)
        else:
            raise ValueError("start_vertex must be 'a' or 'b'")
        self.initial_vertex = va
        a_real = vertex_real(va, self.lower, self.edge)
        b_real = vertex_real(vb, self.lower, self.edge)
        rec = self.get_or_eval(va, a_real, problem)
        self._add_box(1, 0, va, vb, a_real, b_real, half_diag_sq(a_real, b_real), rec)

    @property
    def q_0(self) -> int:
        """Index of the group of the smallest boxes."""
        return len(self.groups) - 1

    @property
    def m(self) -> int:
        return len(self.boxes)

    @property
    def trials(self) -> int:
        """Number of trials: each distinct vertex is evaluated exactly once."""
        return len(self.vertex_db)

    def get_or_eval(self, v: GridVertex, x: tuple[float, ...], problem) -> Record:
        """Read the record for ``v`` or evaluate f and f' there exactly once.

        ``x`` must be ``vertex_real(v, self.lower, self.edge)``; callers
        already hold it.
        """
        rec = self.vertex_db.get(v)
        if rec is None:
            rec = self.vertex_db[v] = problem.value_and_grad(x)
        return rec

    def trisect(self, t: int, problem) -> tuple[BoxTuple, BoxTuple, BoxTuple, Optional[Record]]:
        """Split box ``t`` perpendicular to its longest side into equal thirds.

        The middle child keeps id ``t``; the children adjacent to the old
        ``a`` and ``b`` vertices get ids m+1 and m+2. Returns the children,
        each with its bound F, plus the record of the new trial point, or
        None if it was reused.
        """
        box = self.boxes[t]
        _, s, a, b, a_real, b_real, _, _ = box
        i = self.split_axis(s)
        j = 2 * i  # axis i's (num, depth) in a grid point
        u_f, v_f = third_points(a[j:j + 2], b[j:j + 2])
        u = a[:j] + u_f + a[j + 2:]
        v = b[:j] + v_f + b[j + 2:]
        lo_i, ed_i = self.lower[i], self.edge[i]
        # the same expression as vertex_real, on the split axis only
        u_real = a_real[:i] + (lo_i + u_f[0] / pow3(u_f[1]) * ed_i,) + a_real[i + 1:]
        v_real = b_real[:i] + (lo_i + v_f[0] / pow3(v_f[1]) * ed_i,) + b_real[i + 1:]

        before = len(self.vertex_db)
        rec = self.get_or_eval(u, u_real, problem)
        new_rec = rec if len(self.vertex_db) > before else None

        s += 1
        m = len(self.boxes)
        # children share side lengths, hence one d for all three
        d = half_diag_sq(u_real, v_real)
        self._remove_box(box)
        middle = self._add_box(t, s, u, v, u_real, v_real, d, rec)
        low = self._add_box(m + 1, s, a, v, a_real, v_real, d, self.vertex_db[a])
        high = self._add_box(m + 2, s, u, b, u_real, b_real, d, rec)

        while not self.groups[self.q_inf].live:
            self.q_inf += 1
        return middle, low, high, new_rec

    def split_axis(self, s: int) -> int:
        """The axis along which every box of group ``s`` is trisected.

        Each box of group s has been split s times, always along its longest
        real side (lowest axis on ties), so all of them share one side vector
        and one split axis. The table grows once per new group, comparing
        exact side lengths.
        """
        axes, sides = self._split_axes, self._sides
        while len(axes) <= s:
            i = max(range(len(sides)), key=sides.__getitem__)
            axes.append(i)
            sides[i] /= 3
        return axes[s]

    def group_min_entries(self, s: int) -> list[tuple[float, int]]:
        """(F, id) for every box attaining the minimal F in group ``s``.

        The list is cached until the group's minimum may change; callers
        must not modify it.
        """
        group = self.groups[s]
        if group.mins is None:
            if not group.live:
                return []
            group.mins = heap_min_entries(group.heap, group.live)
        return group.mins

    def max_diagonal_sq(self) -> float:
        """Squared diagonal of the largest live boxes (group q_inf).

        One canonical value per group: boxes of a group share their side
        lengths, so this avoids last-ulp jitter between group members.
        """
        return 2.0 * self.groups[self.q_inf].d

    def snapshot_lines(self) -> list[str]:
        """One line per box: id, s, a-coords, b-coords as exact fractions."""
        return [
            f"{box_id} {s} {vertex_str(a)} {vertex_str(b)}"
            for box_id, s, a, b, *_ in sorted(self.boxes.values())
        ]

    def _add_box(
        self, box_id: int, s: int, a: GridVertex, b: GridVertex,
        a_real: tuple[float, ...], b_real: tuple[float, ...], d: float,
        rec: Record,
    ) -> BoxTuple:
        """Make and index a box with its bound F from ``rec``, the record at ``a``."""
        F = bounding.characterize(rec, a_real, b_real)
        if s == len(self.groups):  # the group's first box
            self.groups.append(Group(d))
        self.groups[s].add(F, box_id)
        box = self.boxes[box_id] = (box_id, s, a, b, a_real, b_real, d, F)
        return box

    def _remove_box(self, box: BoxTuple) -> None:
        # box[1] is s and box[7] F
        self.groups[box[1]].discard(box[7], box[0])
        del self.boxes[box[0]]
