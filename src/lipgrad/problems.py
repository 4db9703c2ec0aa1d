"""Objective functions for the optimizer and the benchmark harness.

Provides the problem contract (value + gradient over a box domain), a fixed
analytic suite with closed-form gradient-Lipschitz constants, and a seeded
generator of continuously differentiable multiextremal test problems with a
known global minimizer.

Generated problems are a paraboloid deformed inside pairwise-disjoint balls.
Inside ball i the function is blended toward a local quadratic cup with
bottom value v_i using the weight w = (1 - (rho/r)^2)^2, rho = |x - c_i|;
w and its gradient vanish at the ball boundary, so the function is C^1
everywhere, and the blend is a convex combination, so f >= min(v_i, 0) with
the unique global minimum at the center of the designated global ball.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from numpy._core.multiarray import c_einsum


class GenerationError(RuntimeError):
    """Problem-class parameters could not be realized (e.g. balls do not fit)."""


class EvaluationError(RuntimeError):
    """f or grad failed at a point, or returned something outside the contract.

    ``problem`` is the problem's name and ``x`` the point as given.
    """

    def __init__(self, problem: str, x, message: str):
        self.problem = problem
        self.x = x
        super().__init__(f"{problem}: {message} at x = {x!r}")


def _number(v, kind=numbers.Real) -> bool:
    """Whether ``v`` is a ``kind`` number a float holds finitely; a bool is never one."""
    try:
        return isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _axis(lo, hi) -> bool:
    """Whether [lo, hi] is an axis a ``Problem`` takes: real numbers lo < hi
    whose float width hi - lo, the one the methods use, is finite."""
    return _number(lo) and _number(hi) and lo < hi and math.isfinite(float(hi) - float(lo))


_FLOAT64 = np.dtype(float)  # every native float64 array holds this dtype object


def _floats(v, copy):
    """``v`` as numpy reads it, as a float array (``copy`` as for ``np.array``),
    or None where it is not real numbers: a string, bytes, a None (numpy reads
    it as nan), a ragged list or an int beyond float range."""
    try:
        a = np.array(v, copy=copy)
        if a.dtype is not _FLOAT64:  # one identity test on the common path
            kind = a.dtype.kind
            reals = kind == "O" and all(isinstance(e, numbers.Real) for e in a.flat)
            a = a.astype(float) if kind in "biuf" or reals else None
    except (ValueError, OverflowError):
        return None
    return a


@dataclass(frozen=True)
class Problem:
    """A box-constrained objective with an analytic gradient.

    ``f`` and ``grad`` take a length-``dim`` point, which the methods pass as
    a read-only float array; evaluations must be pure. The methods call them
    only through :meth:`value` and :meth:`value_and_grad`, which check what
    they return. ``lower`` and ``upper`` are stored as tuples of floats.
    """

    name: str
    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    known_opt: Optional[tuple[tuple[float, ...], float]] = None
    known_K: Optional[float] = None

    def __post_init__(self):
        if not (_number(self.dim, numbers.Integral) and self.dim >= 1):
            raise ValueError(f"{self.name}: dim must be an integer >= 1, got {self.dim!r}")
        try:
            sized = len(self.lower) == len(self.upper) == self.dim
        except TypeError:  # a scalar bound
            sized = False
        if not sized:
            raise ValueError(f"{self.name}: bounds {self.lower!r} and {self.upper!r} need "
                             f"one entry per axis, dim is {self.dim}")
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not _axis(lo, hi):
                raise ValueError(f"{self.name}: axis {j} needs finite real numbers "
                                 f"lower < upper and a finite upper - lower, got [{lo!r}, {hi!r}]")
        # a trace writes the bounds with repr, which reads back only from floats
        object.__setattr__(self, "lower", tuple(map(float, self.lower)))
        object.__setattr__(self, "upper", tuple(map(float, self.upper)))

    def value(self, x) -> float:
        """f(x) as a finite float, or EvaluationError (also for a point that
        is not ``dim`` real numbers)."""
        return self._evaluate(x)[1]

    def value_and_grad(self, x) -> tuple[float, tuple[float, ...]]:
        """f(x), then f'(x) as ``dim`` finite floats, or EvaluationError.

        f and grad receive the same read-only float array; the gradient is
        read as the point is.
        """
        point, value = self._evaluate(x)
        try:
            raw = self.grad(point)
            grad = _floats(raw, None)  # no copy of a float64 array
        except Exception as exc:
            raise EvaluationError(self.name, x, f"grad failed: {exc!r}") from exc
        if grad is not None and grad.shape == (self.dim,):
            components = tuple(grad.tolist())
            if all(map(math.isfinite, components)):
                return value, components
        raise EvaluationError(
            self.name, x, f"grad returned {raw!r}, expected finite real numbers "
            f"of shape ({self.dim},)"
        )

    def _evaluate(self, x) -> tuple[np.ndarray, float]:
        """``x`` read once as a fresh read-only float array f cannot write
        into, and f's value there. Another shape is an EvaluationError, as
        numpy would broadcast it."""
        point = _floats(x, True)
        if point is None or point.shape != (self.dim,):
            got = "" if point is None else f", got shape {point.shape}"
            raise EvaluationError(
                self.name, x, f"expected a point of shape ({self.dim},) of real numbers{got}"
            )
        point.setflags(write=False)  # no flags object per call
        try:
            raw = self.f(point)
            if type(raw) is float:  # one type test on the common path
                value = raw
            else:  # other reals convert; strings, bytes and complex do not
                value = float(raw) if isinstance(raw, numbers.Real) else math.nan
        except Exception as exc:
            raise EvaluationError(self.name, x, f"f failed: {exc!r}") from exc
        if not math.isfinite(value):
            raise EvaluationError(
                self.name, x, f"f returned {raw!r}, expected a finite real number"
            )
        return point, value


def quadratic(
    center,
    matrix=None,
    lower=None,
    upper=None,
    name: str = "quadratic",
) -> Problem:
    """f(x) = (x-c)' A (x-c) with symmetric A (identity by default).

    The gradient 2A(x-c) has Lipschitz constant 2*rho(A) (spectral radius),
    recorded in ``known_K``. ``known_opt`` is set when A is positive
    semidefinite and the center lies inside the bounds. A ``center`` that is
    not a non-empty 1-D run of finite real numbers, or a ``matrix`` that is
    not n x n of them, is a ValueError.
    """
    c = _floats(center, None)
    if c is None or c.ndim != 1 or not c.size or not np.isfinite(c).all():
        raise ValueError(f"{name}: center must be a non-empty 1-D run of finite real "
                         f"numbers, got {center!r}")
    n = c.size
    A = np.eye(n) if matrix is None else _floats(matrix, None)
    if A is None or A.shape != (n, n) or not np.isfinite(A).all():
        raise ValueError(f"{name}: matrix must be {n} x {n} finite real numbers, got {matrix!r}")
    A = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(A)
    K = 2.0 * float(np.max(np.abs(eigs)))
    lo = tuple(float(v) for v in (np.zeros(n) if lower is None else np.asarray(lower, float)))
    hi = tuple(float(v) for v in (np.ones(n) if upper is None else np.asarray(upper, float)))

    def f(x):
        r = np.asarray(x, dtype=float) - c
        return float(r @ A @ r)

    def grad(x):
        r = np.asarray(x, dtype=float) - c
        return 2.0 * (A @ r)

    opt = None
    if float(np.min(eigs)) >= 0.0 and all(l <= ci <= u for l, ci, u in zip(lo, c, hi)):
        opt = (tuple(float(v) for v in c), 0.0)
    return Problem(name, n, lo, hi, f, grad, known_opt=opt, known_K=K)


# Global minimizer of t^2 + sin(5*pi*t)/10 on [0, 1]: the float where
# 2t + (pi/2) cos(5*pi*t) turns from negative to non-negative, as a dense
# scan plus bisection on that derivative finds it. tests/test_problems.py's
# test_trig_minimum_matches_axis_enumeration re-derives it and pins its bits.
_TRIG_AXIS_MIN = 0.27704931270902977


def trig_separable(dim: int) -> Problem:
    """f(x) = sum x_j^2 + sin(5*pi*x_j)/10 on [0, 1]^dim (multiextremal)."""
    ts = _TRIG_AXIS_MIN
    fs = ts * ts + math.sin(5.0 * math.pi * ts) / 10.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * x + np.sin(5.0 * math.pi * x) / 10.0))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x + 0.5 * math.pi * np.cos(5.0 * math.pi * x)

    # |d2/dt2| = |2 - 2.5*pi^2 sin(5 pi t)| <= 2 + 2.5*pi^2, separable
    K = 2.0 + 2.5 * math.pi * math.pi
    opt = (tuple([ts] * dim), dim * fs)
    return Problem(
        f"trig{dim}d", dim, tuple([0.0] * dim), tuple([1.0] * dim),
        f, grad, known_opt=opt, known_K=K,
    )


def analytic_suite() -> list[Problem]:
    """Fixed problems with closed-form gradient-Lipschitz constants."""
    aniso = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    return [
        quadratic([0.0], lower=[-1.0], upper=[1.0], name="quad1d"),
        quadratic([0.3, 0.7], name="quad2d"),
        quadratic([0.2, -0.3, 0.5], aniso, lower=[-1.0] * 3, upper=[1.0] * 3, name="quad3d-aniso"),
        trig_separable(1),
        trig_separable(2),
    ]


@dataclass(frozen=True)
class ProblemClass:
    """Descriptor of a reproducible class of generated problems.

    The stored knob values are what define the class; ``difficulty`` is only
    its label. ``problem_class`` picks the knobs of a difficulty. Same
    descriptor -> identical problems on any platform.
    """

    seed: int
    dim: int
    count: int
    difficulty: str
    n_minima: int
    global_radius: float
    radius_range: tuple[float, float]
    value_gap: float
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        # checked, never converted: the knobs alone fix the generated floats
        def require(name, ok, what):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("seed", "dim", "count", "n_minima"):
            v, least = getattr(self, name), 0 if name == "seed" else 1
            require(name, type(v) is int and v >= least, f"an int >= {least}")
        require("difficulty", type(self.difficulty) is str, "a string")
        rr = self.radius_range
        require("radius_range", type(rr) is tuple and len(rr) == 2
                and all(_number(v, float) for v in rr) and 0.0 < rr[0] <= rr[1],
                "a tuple of two floats 0 < lo <= hi")
        require("global_radius", _number(self.global_radius, float)
                and self.global_radius > 0.0, "a positive float")
        # the other minima's values are drawn from [f* + value_gap, -0.05)
        require("value_gap", _number(self.value_gap, float)
                and 0.0 <= self.value_gap < -0.05 - _F_STAR, "a float in [0, 0.95)")
        require("lower", _number(self.lower, float), "a finite float")
        require("upper", _number(self.upper, float) and self.upper > self.lower
                and math.isfinite(self.upper - self.lower),  # the width generate draws over
                "a finite float above lower, with a finite upper - lower")


_DIFFICULTY_KNOBS = {
    "simple": dict(global_radius=0.22, radius_range=(0.10, 0.22), value_gap=0.30),
    "hard": dict(global_radius=0.10, radius_range=(0.06, 0.13), value_gap=0.08),
}


def problem_class(
    dim: int,
    difficulty: str = "simple",
    seed: int = 0,
    count: int = 100,
    n_minima: int = 10,
) -> ProblemClass:
    """Build a class descriptor with difficulty-derived generator knobs."""
    try:
        knobs = _DIFFICULTY_KNOBS[difficulty]
    except KeyError:
        raise ValueError(f"unknown difficulty {difficulty!r}") from None
    return ProblemClass(seed=seed, dim=dim, count=count, difficulty=difficulty,
                        n_minima=n_minima, **knobs)


_F_STAR = -1.0
_SEPARATION = 0.04
_PLACEMENT_TRIES = 2000
_BINS = 256  # per axis, in a generated objective's ball index


def generated_parameters(cls: ProblemClass, index: int):
    """The random draws behind problem number ``index`` (1-based) of the class.

    Returns ``(C, R, T, values)`` as numpy arrays: the ball centers by row,
    their radii, the paraboloid's vertex and the ball bottoms, the global
    ball first. Raises GenerationError when the balls do not fit.
    """
    if not (_number(index, numbers.Integral) and 1 <= index <= cls.count):
        raise ValueError(f"index must be an integer in 1..{cls.count}, got {index!r}")
    rng = np.random.default_rng([cls.seed, cls.dim, index])
    n = cls.dim

    radii = [cls.global_radius] + [
        float(rng.uniform(*cls.radius_range)) for _ in range(cls.n_minima - 1)
    ]
    centers: list[np.ndarray] = []
    for i, r in enumerate(radii):
        low, high = cls.lower + r + _SEPARATION, cls.upper - r - _SEPARATION
        for _ in range(_PLACEMENT_TRIES if low <= high else 0):  # no room, no draw
            # scalar bounds draw the bits array bounds would, without their checks
            c = rng.uniform(low, high, size=n)
            for cj, rj in zip(centers, radii):
                v = c - cj  # |v| by the calls np.linalg.norm makes for a 1-D float vector
                if not math.sqrt(float(v.dot(v))) >= r + rj + _SEPARATION:
                    break
            else:
                centers.append(c)
                break
        else:
            raise GenerationError(
                f"could not place ball {i + 1}/{cls.n_minima} (dim={n}, "
                f"radius={r:.3f}); shrink radii or n_minima"
            )

    T = rng.uniform(cls.lower, cls.upper, size=n)
    values = np.empty(cls.n_minima)
    values[0] = _F_STAR
    values[1:] = rng.uniform(_F_STAR + cls.value_gap, -0.05, size=cls.n_minima - 1)
    return np.vstack(centers), np.asarray(radii), T, values


def generate(cls: ProblemClass, index: int) -> Problem:
    """Problem number ``index`` (1-based) of the class, deterministically.

    The global minimum is f* = -1 at the center of the first placed ball;
    every other deformation bottom sits at least ``value_gap`` above f*, and
    the undeformed paraboloid never goes below 0.
    """
    C, R, T, values = generated_parameters(cls, index)
    R2 = R * R
    # the per-ball tail runs on Python floats: each element-wise numpy
    # float64 operation is the same IEEE operation as its float form
    r2 = R2.tolist()
    bottoms = values.tolist()

    # An exact ball index: bit b of masks[j][k] is set when ball b reaches bin
    # k of axis j. A coordinate's bin, int((x_j - lower) * scale), never
    # decreases as x_j grows, so where its bin lacks bit b, x_j lies beyond
    # an end e of ball b's interval, the float c_j - reach or c_j + reach.
    # Then |fl(x_j - c_j)| >= |fl(e - c_j)|, whose rounded square the build
    # checks to exceed R2[b]; rho^2 adds nonnegative rounded (or fused)
    # squares, so it is at least that square and ball b does not contain x.
    # Where rounding eats the 2**-20 margin of reach (a domain far from 0
    # for its width), ball b covers the whole axis. The extra bin, _BINS,
    # holds x_j == upper.
    lower, upper = cls.lower, cls.upper
    scale = _BINS / (upper - lower)
    masks = [[0] * (_BINS + 1) for _ in range(cls.dim)]
    for b, (center, r2_b, r) in enumerate(zip(C.tolist(), r2, R.tolist())):
        bit, reach = 1 << b, r * (1.0 + 2.0 ** -20)
        for axis, c in zip(masks, center):
            lo, hi = c - reach, c + reach
            k0, k1 = 0, _BINS
            if min((lo - c) * (lo - c), (hi - c) * (hi - c)) > r2_b:
                k0 = max(int((lo - lower) * scale), 0)
                k1 = min(int((hi - lower) * scale), _BINS)
            for k in range(k0, k1 + 1):
                axis[k] |= bit
    every_ball = (1 << len(r2)) - 1

    # grad follows f at the same point, so the terms of the last point are
    # kept; one slot replaced whole never mixes the terms of two points
    last = [(None, None)]

    def terms(x):
        """(f(x), x - T, blend), where blend is None outside every ball and
        else (x - C, the first ball i containing x, u = rho_i^2 / r_i^2, the
        weight w = (1 - u)^2, h - p) for the cup h and the paraboloid p.

        The ball index skips x - C where it shows that no ball contains x.
        The two reductions stay in numpy: its 1-D ``dot`` is a chain of
        fused multiply-adds, and ``einsum`` adds in its own order for more
        than two axes, so a Python sum would differ in the last bit and change
        the search. ``ndarray.dot`` and ``@`` reach the same ``ddot`` for 1-D
        vectors; ``c_einsum`` is the kernel ``np.einsum`` calls when it does
        not optimize. Both give the same bits with less Python dispatch.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        seen, kept = last[0]
        if seen == key:
            return kept
        dT = x - T
        p = float(dT.dot(dT))
        kept = (p, dT, None)
        hit = every_ball
        for v, axis in zip(x.tolist(), masks):
            if not lower <= v <= upper:  # off the domain, or NaN: the exact test decides
                break
            hit &= axis[int((v - lower) * scale)]
            if not hit:
                break
        if hit:
            dx = x - C
            rho2 = c_einsum("ij,ij->i", dx, dx)
            inside = (rho2 < R2).tolist()
            if True in inside:
                i = inside.index(True)
                rho2_i = float(rho2[i])
                u = rho2_i / r2[i]
                w = (1.0 - u) ** 2
                h_p = bottoms[i] + rho2_i - p
                kept = (p + w * h_p, dT, (dx, i, u, w, h_p))
        last[0] = (key, kept)
        return kept

    def f(x):
        return terms(x)[0]

    def grad(x):
        _, dT, blend = terms(x)
        if blend is None:
            return 2.0 * dT
        dx, i, u, w, h_p = blend
        r2_i, c = r2[i], -2.0 * (1.0 - u)
        out = []
        for t, e in zip(dT.tolist(), dx[i].tolist()):
            gp, gh = 2.0 * t, 2.0 * e
            # gp + w * (gh - gp) + (h - p) * gw, component by component
            out.append(gp + w * (gh - gp) + h_p * (c * (gh / r2_i)))
        return np.array(out)

    n = cls.dim
    name = f"gen-{cls.difficulty}-{n}d-s{cls.seed}-p{index}"
    opt = (tuple(C[0].tolist()), _F_STAR)
    return Problem(name, n, (cls.lower,) * n, (cls.upper,) * n, f, grad, known_opt=opt)


def class_manifest(cls: ProblemClass) -> dict:
    """Auditable description of a class: knobs plus every known optimum."""
    entries = []
    for i in range(1, cls.count + 1):
        p = generate(cls, i)
        x_star, f_star = p.known_opt
        entries.append({"index": i, "x_star": list(x_star), "f_star": f_star})
    return {**asdict(cls), "problems": entries}


def write_manifest(cls: ProblemClass, path) -> None:
    Path(path).write_text(json.dumps(class_manifest(cls), indent=1, sort_keys=True))


_MANIFEST_KEYS = tuple(f.name for f in fields(ProblemClass))


def load_manifest(path) -> ProblemClass:
    """Rebuild the class descriptor from a manifest file.

    Raises ValueError for a file that is not JSON, not a JSON object, or
    lacks a class knob or holds one of the wrong type or range.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"manifest {path}: not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path}: expected a JSON object, got {type(data).__name__}")
    missing = [k for k in _MANIFEST_KEYS if k not in data]
    if missing:
        raise ValueError(f"manifest {path}: missing {', '.join(missing)}")
    knobs = {k: data[k] for k in _MANIFEST_KEYS}
    if isinstance(knobs["radius_range"], list):  # JSON has no tuples
        knobs["radius_range"] = tuple(knobs["radius_range"])
    try:
        return ProblemClass(**knobs)
    except ValueError as exc:
        raise ValueError(f"manifest {path}: {exc}") from None
