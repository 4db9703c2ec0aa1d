"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from lipgrad import bounding, stopping
from lipgrad.baselines import _CenterState
from lipgrad.geometry import (
    BoxTable, GridFraction, GridVertex, Partition, Record, grid_fraction, heap_min, pow3,
)
from lipgrad.problems import Problem, ProblemClass, generated_parameters, quadratic
from lipgrad.stopping import StopTarget, target_window


# Named views of the library's plain tuples, made on demand by ``_make(raw)``.
# The library never builds one: CPython never untracks a tuple subclass, so a
# partition holding them would keep every box tracked by the collector.


class Box(NamedTuple):
    """A box of ``geometry.Partition``; ``rec`` is the record at its trial
    vertex a, and bit j of ``orient`` is set when corner b lies below a on
    axis j (``Partition.corners`` gives a's and b's grid points)."""

    F: float
    id: int
    s: int
    rec: Record
    orient: int
    b_real: tuple[float, ...]
    d: float

    @property
    def a(self) -> GridVertex:
        return self.rec[2]

    @property
    def a_real(self) -> tuple[float, ...]:
        return self.rec[3]


class CenterBox(NamedTuple):
    """A center box of the DIRECT and DIRECT-l state; s is its depth sum and
    center the real point f_center was sampled at."""

    f_center: float
    id: int
    s: int
    corner_nums: tuple[int, ...]
    depths: tuple[int, ...]
    center: tuple[float, ...]


class Dot(NamedTuple):
    """A dot of the (d, F) diagram."""

    box_id: int
    d: float
    F: float


def center_iteration(state: _CenterState) -> None:
    """One DIRECT or DIRECT-l iteration, as ``baselines._run`` makes it."""
    stopping.iterate(state, state.select(), _CenterState.subdivide)


def target_reached(x, target: StopTarget, lower, upper) -> bool:
    """True when x lies within delta^(1/N) of x* per axis, scaled by the edges."""
    return all(abs(xi - si) <= half_width
               for xi, (si, half_width) in zip(x, target_window(target, lower, upper)))


def flat_problem(dim: int = 2, value: float = 3.5) -> Problem:
    def f(x):
        return value

    def grad(x):
        return np.zeros(dim)

    return Problem(f"flat{dim}d", dim, (0.0,) * dim, (1.0,) * dim, f, grad)


def wavy_problem(dim: int = 2) -> Problem:
    """Cheap non-symmetric objective with nontrivial gradients."""
    offsets = np.arange(1, dim + 1, dtype=float)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(np.sin(3.0 * x + offsets) + 0.5 * x * x))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 3.0 * np.cos(3.0 * x + offsets) + x

    return Problem(f"wavy{dim}d", dim, (0.0,) * dim, (1.0,) * dim, f, grad)


def fraction_value(c: GridFraction) -> float:
    return c[0] / pow3(c[1])


def as_fraction(c: GridFraction) -> Fraction:
    return Fraction(c[0], pow3(c[1]))


def make_vertex(*coords) -> GridVertex:
    """Vertex from per-axis (num, depth) pairs or plain integers 0/1."""
    v = ()
    for c in coords:
        v += grid_fraction(*c) if isinstance(c, tuple) else grid_fraction(int(c), 0)
    return v


def vertex_fractions(v: GridVertex) -> list[GridFraction]:
    """The per-axis (num, depth) pairs of a grid point."""
    return list(zip(v[::2], v[1::2]))


def half_diag_sq(a_real, b_real) -> float:
    """Half the squared distance between two real points, each square a
    product and the squares added left to right in axis order, as lipgrad
    computes them."""
    return 0.5 * add_left_to_right((br - ar) * (br - ar) for ar, br in zip(a_real, b_real))


def root_characterize(rec, a_real, b_real) -> tuple[float, float]:
    """(F, d) of box (a, b) whose trial vertex a has record ``rec``, from
    ``bounding.characterize`` in its root form: the box is the low child of
    its own split on axis 0 at u = a and v = b."""
    _, F, _, d = bounding.characterize(rec, rec, a_real, b_real, 0, a_real[0], b_real[0])
    return F, d


def min_sum_F(rec, a_real, b_real) -> float:
    """F of box (a, b) as first written, the oracle for ``characterize``:
    f(a) plus min(g_j (b_j - a_j), 0.0) added on every axis in order."""
    f_value, gradient = rec[0], rec[1]
    total = 0.0
    for g, ar, br in zip(gradient, a_real, b_real):
        total += min(g * (br - ar), 0.0)
    return f_value + total


def make_box(a: GridVertex, b: GridVertex, box_id: int = 1, s: int = 0) -> Box:
    """Standalone box on the unit-cube domain (real coords = grid values);
    F and the record's value and gradient are unset."""
    a_real = tuple(map(fraction_value, vertex_fractions(a)))
    b_real = tuple(map(fraction_value, vertex_fractions(b)))
    rec = (math.nan, (), a, a_real)
    orient = sum(1 << j for j, (ar, br) in enumerate(zip(a_real, b_real)) if br < ar)
    return Box(math.nan, box_id, s, rec, orient, b_real, half_diag_sq(a_real, b_real))


def box_ids(table: BoxTable) -> list[int]:
    """The ids of a box table's live boxes: 1..m."""
    return list(range(1, len(table.boxes)))


def b_corner(part: Partition, box) -> GridVertex:
    """The grid point of corner b of a partition's box tuple or view."""
    return part.corners(box)[1]


def live_boxes(part: Partition) -> list[Box]:
    """Named views of the partition's live boxes, in id order."""
    return [Box._make(raw) for raw in part.boxes[1:]]


def check_dense_live_layout(table: BoxTable) -> None:
    """Slot i of ``boxes`` holds live box i for i in 1..m, each also an entry
    of its group's heap; a group's minima read empty exactly when it has no
    live box; and ``q_inf`` is the lowest group with a live box."""
    boxes = table.boxes
    assert boxes[0] is None and table.m == len(boxes) - 1
    in_heaps = {id(entry) for group in table.groups for entry in group.heap}
    counts = Counter()
    for i in range(1, len(boxes)):
        box = boxes[i]
        assert box[1] == i and id(box) in in_heaps, i
        counts[box[2]] += 1
    assert [heap_min(group, boxes) is not None for group in table.groups] == [
        s in counts for s in range(len(table.groups))]
    assert table.q_inf == min(counts)


def trisect_views(part: Partition, t: int):
    """``part.trisect`` with the three children as named views."""
    *children, new_rec = part.trisect(t)
    return (*map(Box._make, children), new_rec)


def volume(part: Partition, box) -> tuple[int, int]:
    """Exact box volume ``(num, e)``, meaning num / 3**e, in grid coordinates
    (domain scaled to the unit cube): the product of the side numerators,
    each at the deeper depth of its two corners.

    ``box`` is a box tuple of ``part`` or its named view. Two volumes
    compare, and add, as integers at a common power of 3.
    """
    a, b = part.corners(box)
    num, e = 1, 0
    for na, da, nb, db in zip(a[::2], a[1::2], b[::2], b[1::2]):
        if da < db:  # both corners at the deeper depth
            na, da = na * 3 ** (db - da), db
        elif db < da:
            nb *= 3 ** (da - db)
        if na == nb:
            raise ValueError(f"degenerate box {box[1]}")
        num *= abs(na - nb)
        e += da
    return num, e


def diagonal_sq(box) -> float:
    """Squared real length of the main diagonal of a box tuple or view."""
    a_real, b_real = box[3][3], box[5]
    return sum((br - ar) ** 2 for ar, br in zip(a_real, b_real))


def eval_minorant(box, rec, khat: float, x) -> float:
    """The quadratic minorant Q(x, khat) at a point of the box.

    ``box`` is a box tuple or view and ``rec`` the record ``(f_value,
    gradient, ...)`` at its trial vertex.
    """
    if khat <= 0:
        raise ValueError("khat must be positive")
    a_real, b_real = box[3][3], box[5]
    q, gradient = rec[0], rec[1]
    norm_sq = 0.0
    for j, (ar, br) in enumerate(zip(a_real, b_real)):
        lo, hi = (ar, br) if ar <= br else (br, ar)
        slack = 1e-9 * max(1.0, hi - lo)
        if not lo - slack <= x[j] <= hi + slack:
            raise ValueError(f"point outside box on axis {j}: {x[j]} not in [{lo}, {hi}]")
        dx = x[j] - ar
        q += gradient[j] * dx
        norm_sq += dx * dx
    return q - 0.5 * khat * norm_sq


@dataclass
class EvalAudit:
    """Mutable call counters attached by :func:`with_audit`."""

    f_calls: int = 0
    grad_calls: int = 0


def with_audit(problem: Problem) -> tuple[Problem, EvalAudit]:
    """Wrap a problem so every f / gradient call is counted."""
    audit = EvalAudit()

    def f(x):
        audit.f_calls += 1
        return problem.f(x)

    def grad(x):
        audit.grad_calls += 1
        return problem.grad(x)

    wrapped = Problem(
        name=problem.name,
        dim=problem.dim,
        lower=problem.lower,
        upper=problem.upper,
        f=f,
        grad=grad,
        known_opt=problem.known_opt,
        known_K=problem.known_K,
    )
    return wrapped, audit


def sorted_diag_d(key: tuple[int, ...]) -> float:
    """Half squared diagonal of a center box with sorted depth vector
    ``key``, normalized, added in key order: the oracle for
    ``baselines._diag_d``."""
    total = 0.0
    for d in key:
        total += 1.0 / pow3(2 * d)
    return 0.5 * total


def add_left_to_right(terms) -> float:
    """Float sum in iteration order, as lipgrad adds: from Python 3.12 on the
    builtin ``sum`` compensates, so its last bit can differ."""
    total = 0.0
    for t in terms:
        total += t
    return total


def random_quadratic(rng: np.random.Generator, dim: int):
    """A random (possibly indefinite) quadratic on [0, 1]^dim with known K.

    Returns the problem and its values over the rows of an ``(M, dim)``
    array, computed by one numpy expression.
    """
    M = rng.uniform(-1.0, 1.0, size=(dim, dim))
    c = rng.uniform(0.2, 0.8, size=dim)
    S = M + M.T
    problem = quadratic(c, S, lower=[0.0] * dim, upper=[1.0] * dim, name=f"randquad{dim}d")
    A = 0.5 * (S + S.T)  # the matrix ``quadratic`` evaluates

    def f_rows(X):
        R = np.asarray(X, dtype=float) - c
        return np.einsum("ij,ij->i", R @ A, R)

    return problem, f_rows


def generated_rows(cls: ProblemClass, index: int):
    """The values of a generated problem over the rows of an ``(M, dim)``
    array, computed ball by ball on whole columns."""
    C, R, T, values = generated_parameters(cls, index)
    R2 = R * R

    def f_rows(X):
        X = np.asarray(X, dtype=float)
        dT = X - T
        out = np.einsum("ij,ij->i", dT, dT)
        for i in range(len(R)):
            dx = X - C[i]
            rho2 = np.einsum("ij,ij->i", dx, dx)
            mask = rho2 < R2[i]
            if not np.any(mask):
                continue
            u = rho2[mask] / R2[i]
            w = (1.0 - u) ** 2
            h = values[i] + rho2[mask]
            out[mask] = out[mask] + w * (h - out[mask])
        return out

    return f_rows


def generated_oracle(cls: ProblemClass, index: int):
    """(f, grad) of a generated problem as numpy element-wise expressions.

    The reference for the generated objective's Python-float tail: the same
    terms, the first containing ball found by ``np.nonzero``, and each tail
    written on numpy scalars and arrays.
    """
    C, R, T, values = generated_parameters(cls, index)
    R2 = R * R

    def terms(x):
        x = np.asarray(x, dtype=float)
        dT = x - T
        p = float(dT @ dT)
        dx = x - C
        rho2 = np.einsum("ij,ij->i", dx, dx)
        inside = np.nonzero(rho2 < R2)[0]
        return dT, p, dx, rho2, int(inside[0]) if inside.size else -1

    def f(x):
        _, p, _, rho2, i = terms(x)
        if i < 0:
            return p
        u = rho2[i] / R2[i]
        w = (1.0 - u) ** 2
        h = values[i] + rho2[i]
        return p + w * (h - p)

    def grad(x):
        dT, p, dx, rho2, i = terms(x)
        gp = 2.0 * dT
        if i < 0:
            return gp
        u = rho2[i] / R2[i]
        w = (1.0 - u) ** 2
        h = values[i] + rho2[i]
        gw = -2.0 * (1.0 - u) * (2.0 * dx[i] / R2[i])
        gh = 2.0 * dx[i]
        return gp + w * (gh - gp) + (h - p) * gw

    return f, grad


def fd_check(problem: Problem, samples: int = 100, step: float = 1e-6, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses per-axis steps of ``step * (upper - lower)`` at interior points;
    errors are scaled by max(1, |grad|_inf) so near-flat regions do not blow
    up the ratio.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = np.random.default_rng(seed)
    lo = np.asarray(problem.lower)
    hi = np.asarray(problem.upper)
    h = step * (hi - lo)
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(lo + 2 * h, hi - 2 * h)
        g = np.asarray(problem.grad(x), dtype=float)
        fd = np.empty_like(g)
        for j in range(problem.dim):
            xp = x.copy()
            xm = x.copy()
            xp[j] += h[j]
            xm[j] -= h[j]
            fd[j] = (problem.f(xp) - problem.f(xm)) / (2.0 * h[j])
        err = float(np.max(np.abs(fd - g))) / max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, err)
    return worst


def nondominated_oracle(dots: list[Dot]) -> set[int]:
    """Exact pairwise-feasibility check of nondomination, dot by dot.

    A dot survives when some k > 0 makes F - k*d minimal; lower/upper bounds
    on k come from every pairwise comparison, carried as exact rationals.
    """
    selected = set()
    for t in dots:
        k_lo = Fraction(0)
        k_hi = None  # +inf
        ok = True
        for o in dots:
            if o is t:
                continue
            if o.d == t.d:
                if o.F < t.F:
                    ok = False
                    break
            elif o.d < t.d:
                bound = (Fraction(t.F) - Fraction(o.F)) / (Fraction(t.d) - Fraction(o.d))
                if bound > k_lo:
                    k_lo = bound
            else:
                bound = (Fraction(o.F) - Fraction(t.F)) / (Fraction(o.d) - Fraction(t.d))
                if k_hi is None or bound < k_hi:
                    k_hi = bound
        if ok and (k_hi is None or (k_lo <= k_hi and k_hi > 0)):
            selected.add(t.box_id)
    return selected


def reference_nondominated(dots):
    """The sorting hull on named dots: ``(selected, dots, slopes)``, each
    slope the upper end k_hi of its dot's interval.

    The reference for ``selection.nondominated``; dots may be ``Dot`` views
    or plain tuples, and come back as given.
    """
    if not dots:
        raise ValueError("nondominated() needs at least one dot")
    hull = []
    for raw in sorted(dots, key=lambda t: (t[1], t[2], t[0])):
        dot = Dot._make(raw)
        if dot.d <= 0:
            raise ValueError(f"dot {dot.box_id} has nonpositive d")
        if hull and dot.d == hull[-1][0]:
            if dot.F == hull[-1][1]:
                hull[-1][2].append(raw)
            continue
        while len(hull) >= 2:
            (d1, F1, _), (d2, F2, _) = hull[-2], hull[-1]
            if (d2 - d1) * (dot.F - F1) - (F2 - F1) * (dot.d - d1) < 0:
                hull.pop()
            else:
                break
        hull.append((dot.d, dot.F, [raw]))

    f_min = min(F for _, F, _ in hull)
    start = max(i for i, (_, F, _) in enumerate(hull) if F == f_min)
    hull = hull[start:]

    selected, sel_dots, slopes = [], [], []
    last = len(hull) - 1
    for i, (d1, F1, ties) in enumerate(hull):
        if i < last:
            d2, F2, _ = hull[i + 1]
            k_hi = (F2 - F1) / (d2 - d1)
        else:
            k_hi = math.inf
        for raw in ties:
            selected.append(raw[0])
            sel_dots.append(raw)
            slopes.append(k_hi)
    return tuple(selected), tuple(sel_dots), tuple(slopes)


def reference_improvement_filter(selected, dots, slopes, f_min: float, xi: float) -> list[int]:
    """The margin filter on named dots, the reference for ``improvement_filter``."""
    keep = []
    for box_id, dot, k_hi in zip(selected, map(Dot._make, dots), slopes):
        if math.isinf(k_hi) or dot.F - k_hi * dot.d <= f_min - xi:
            keep.append(box_id)
    return keep


def random_dot_set(rng: np.random.Generator, max_dots: int = 15) -> list[Dot]:
    """Random dots with distinct d; dyadic values keep float math exact."""
    n = int(rng.integers(1, max_dots + 1))
    d_values = rng.choice(np.arange(1, 2000), size=n, replace=False) / 16.0
    f_values = rng.integers(-1000, 1000, size=n) / 16.0
    return [
        Dot(i + 1, float(d), float(F))
        for i, (d, F) in enumerate(zip(d_values, f_values))
    ]


def random_box_corners(rng: np.random.Generator, dim: int, max_depth: int = 4):
    """Corners of a random nondegenerate grid box, any diagonal orientation."""
    pairs_a = []
    pairs_b = []
    for _ in range(dim):
        depth = int(rng.integers(0, max_depth + 1))
        n1 = int(rng.integers(0, 3**depth + 1))
        n2 = int(rng.integers(0, 3**depth + 1))
        if n1 == n2:
            n2 = n1 + 1 if n1 < 3**depth else n1 - 1
        pairs_a.append((n1, depth))
        pairs_b.append((n2, depth))
    return make_vertex(*pairs_a), make_vertex(*pairs_b)
