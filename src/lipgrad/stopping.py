"""Run parameters and state, trial booking, stop rules, the shared loop, history, report.

All three methods share these. Each keeps its run in a ``RunState``
subclass. The helpers below read and write only ``RunState``'s fields and
the partition, a ``geometry.BoxTable``; ``record_trial`` alone books a trial,
only it and ``check_stop`` set a stop reason, and ``iterate`` is the one loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from . import selection
from .problems import _number

REASON_BUDGET = "budget"
REASON_TARGET = "target_found"
REASON_DIAGONAL = "diagonal"


@dataclass(frozen=True)
class StopTarget:
    """Known minimizer plus the volume-based accuracy coefficient."""

    x_star: tuple[float, ...]
    delta: float

    def __post_init__(self):
        if not (_number(self.delta) and 0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be a number in (0, 1], got {self.delta!r}")


@dataclass(frozen=True)
class OptConfig:
    """Run parameters shared by the gradient method and the baselines.

    The trial budget ``p_max`` is always enforced; ``target`` and
    ``diagonal`` (largest diagonal relative to the initial one) are optional
    additional stop rules.
    """

    epsilon: float = 1e-4
    p_max: int = 1_000_000
    start_vertex: str = "a"
    target: Optional[StopTarget] = None
    diagonal: Optional[float] = None
    keep_trace: bool = False

    def __post_init__(self):
        if not (_number(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be a finite nonnegative number, got {self.epsilon!r}")
        if not (_number(self.p_max, numbers.Integral) and self.p_max >= 1):
            raise ValueError(f"p_max must be a float-sized integer >= 1, got {self.p_max!r}")
        if self.start_vertex not in ("a", "b"):
            raise ValueError("start_vertex must be 'a' or 'b'")
        if not (self.target is None or isinstance(self.target, StopTarget)):
            raise ValueError(f"target must be a StopTarget or None, got {self.target!r}")
        if self.diagonal is not None and not (_number(self.diagonal) and 0 < self.diagonal <= 1):
            raise ValueError(f"diagonal must be a number in (0, 1], got {self.diagonal!r}")
        if not isinstance(self.keep_trace, bool):
            raise ValueError(f"keep_trace must be a bool, got {self.keep_trace!r}")


@dataclass
class RunReport:
    """Outcome of one run under the common stop rules."""

    method: str
    trials: int
    boxes: int
    f_min: float
    x_min: tuple[float, ...]
    stop_reason: str
    history: list[tuple[int, float, float]]
    trace: Optional[list[tuple[int, tuple[float, ...], float, float, str]]] = None
    snapshot: Optional[list[str]] = None


def target_window(target: Optional[StopTarget], lower, upper):
    """Per-axis ``(x*_i, delta^(1/N) * edge_i)`` pairs, or None without a target.

    ``x_star`` must be a tuple, list or 1-D array holding one finite real
    number per axis of the domain: a set or a dict has no axis order.
    """
    if target is None:
        return None
    x_star = target.x_star
    ordered = isinstance(x_star, (tuple, list)) or getattr(x_star, "ndim", None) == 1
    if not (ordered and len(x_star) == len(lower) and all(map(_number, x_star))):
        raise ValueError(f"x_star must be a tuple, list or 1-D array of {len(lower)} "
                         f"finite numbers, got {x_star!r}")
    tol = target.delta ** (1.0 / len(x_star))
    return tuple((si, tol * (hi - lo)) for si, lo, hi in zip(x_star, lower, upper))


class RunState:
    """What every run keeps: the partition and its problem, trial count,
    record value and point, phase, stop reason, history and trace.

    A history row is ``(trials, f_min, largest squared diagonal)``; the first
    one holds the initial diagonal, which the diagonal rule compares against.
    Making it is every method's Step 0: the partition holds the root box,
    whose trial at ``x`` with f(x) = ``value`` is booked, the first history
    row logged and the stop rules applied.
    """

    def __init__(self, config: OptConfig, phase: str, partition, x, value: float):
        self.problem = problem = partition.problem
        self.partition = partition
        self.config = config
        self.target_window = target_window(config.target, problem.lower, problem.upper)
        self.trials = 0
        self.f_min = math.inf
        self.x_min: tuple[float, ...] = ()
        self.phase = phase
        self.stop_reason: Optional[str] = None
        self.history: list[tuple[int, float, float]] = []
        self.trace: Optional[list] = [] if config.keep_trace else None
        record_trial(self, x, value)
        log_history(self)
        check_stop(self)


def record_trial(state, x, value: float) -> bool:
    """Book the next trial, made at ``x`` with f(x) = ``value``.

    Counts it in ``trials``, adopts a strictly better record value and its
    point, appends the trace row (trial, x, value, f_min, phase) and applies
    the target rule. Returns whether the record value improved.
    """
    state.trials += 1
    improved = value < state.f_min
    if improved:
        state.f_min = value
        state.x_min = x
    if state.trace is not None:
        state.trace.append((state.trials, x, value, state.f_min, state.phase))
    window = state.target_window
    if window is not None and state.stop_reason is None:
        for xi, (si, half_width) in zip(x, window):
            if not abs(xi - si) <= half_width:
                break
        else:
            state.stop_reason = REASON_TARGET
    return improved


def log_history(state) -> None:
    """Append the (trials, f_min, largest squared diagonal) row."""
    state.history.append((state.trials, state.f_min, state.partition.max_diagonal_sq()))


def check_stop(state) -> None:
    """Apply the budget and diagonal rules unless a stop reason is already set."""
    if state.stop_reason:
        return
    if state.trials >= state.config.p_max:
        state.stop_reason = REASON_BUDGET
    elif state.config.diagonal is not None:
        rel = math.sqrt(state.partition.max_diagonal_sq() / state.history[0][2])
        if rel <= state.config.diagonal:
            state.stop_reason = REASON_DIAGONAL


def iterate(state, dots, subdivide) -> None:
    """Every method's iteration: ``subdivide(state, box_id)`` each box that
    ``selection.choose`` picks from ``dots``, with a stop check after each; log a row."""
    for box_id in selection.choose(dots, state.f_min, state.config.epsilon):
        subdivide(state, box_id)
        check_stop(state)
        if state.stop_reason:
            break
    log_history(state)


def close_report(state, method: str) -> RunReport:
    """The run's report; the step that ended the run logged its last history
    row. It holds the partition's snapshot when the config keeps a trace."""
    return RunReport(
        method=method,
        trials=state.trials,
        boxes=state.partition.m,
        f_min=state.f_min,
        x_min=state.x_min,
        stop_reason=state.stop_reason,
        history=state.history,
        trace=state.trace,
        snapshot=state.partition.snapshot_lines() if state.config.keep_trace else None,
    )
