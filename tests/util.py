"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from lipgrad.geometry import Box, GridFraction, GridVertex, grid_fraction, pow3
from lipgrad.problems import Problem
from lipgrad.selection import Dot


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
    fracs = []
    for c in coords:
        if isinstance(c, tuple):
            fracs.append(grid_fraction(*c))
        else:
            fracs.append(grid_fraction(int(c), 0))
    return tuple(fracs)


def make_box(a: GridVertex, b: GridVertex, box_id: int = 1, s: int = 0) -> Box:
    """Standalone box on the unit-cube domain (real coords = grid values)."""
    a_real = tuple(map(fraction_value, a))
    b_real = tuple(map(fraction_value, b))
    d = 0.5 * sum((q - p) ** 2 for p, q in zip(a_real, b_real))
    return Box(box_id, s, a, b, a_real, b_real, d)


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


def random_dot_set(rng: np.random.Generator, max_dots: int = 15) -> list[Dot]:
    """Random dots with distinct d; dyadic values keep float math exact."""
    n = int(rng.integers(1, max_dots + 1))
    d_values = rng.choice(np.arange(1, 2000), size=n, replace=False) / 16.0
    f_values = rng.integers(-1000, 1000, size=n) / 16.0
    return [
        Dot(i + 1, float(d), float(F), s=0)
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
