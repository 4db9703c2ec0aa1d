"""Trial booking, stop rules, history rows and the run report.

All three methods share these helpers. A run state passed to them has
``problem``, ``config`` (an ``OptConfig``), ``target_window`` (from
``target_window``, made once per run), ``trials``, ``f_min``, ``phase``,
``stop_reason``, ``history``, ``trace``, ``initial_diag_sq`` and a
``max_diagonal_sq()`` method.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

REASON_BUDGET = "budget"
REASON_TARGET = "target_found"
REASON_DIAGONAL = "diagonal"


def _number(v, kind=numbers.Real) -> bool:
    """Whether ``v`` is a ``kind`` number a float holds finitely; a bool is never one."""
    try:
        return isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


@dataclass(frozen=True)
class StopTarget:
    """Known minimizer plus the volume-based accuracy coefficient."""

    x_star: tuple[float, ...]
    delta: float

    def __post_init__(self):
        if not (_number(self.delta) and 0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be a number in (0, 1], got {self.delta!r}")


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


def _in_window(x, window) -> bool:
    for xi, (si, half_width) in zip(x, window):
        if not abs(xi - si) <= half_width:
            return False
    return True


def record_trial(state, x, value: float) -> bool:
    """Book trial number ``state.trials``, made at ``x`` with f(x) = ``value``.

    Adopts a strictly better record value, appends the trace row
    (trial, x, value, f_min, phase) and applies the target rule. Returns
    whether the record value improved.
    """
    improved = value < state.f_min
    if improved:
        state.f_min = value
    if state.trace is not None:
        state.trace.append((state.trials, x, value, state.f_min, state.phase))
    window = state.target_window
    if window is not None and state.stop_reason is None and _in_window(x, window):
        state.stop_reason = REASON_TARGET
    return improved


def log_history(state) -> None:
    """Append the (trials, f_min, largest squared diagonal) row."""
    state.history.append((state.trials, state.f_min, state.max_diagonal_sq()))


def check_stop(state) -> None:
    """Apply the budget and diagonal rules unless a stop reason is already set."""
    if state.stop_reason:
        return
    if state.trials >= state.config.p_max:
        state.stop_reason = REASON_BUDGET
    elif state.config.diagonal is not None:
        rel = math.sqrt(state.max_diagonal_sq() / state.initial_diag_sq)
        if rel <= state.config.diagonal:
            state.stop_reason = REASON_DIAGONAL


def close_report(state, method: str, boxes: int, x_min, snapshot_lines) -> RunReport:
    """Close the history with the final trial count and build the report.

    ``snapshot_lines`` is called only when the config keeps a trace.
    """
    if not state.history or state.history[-1][0] != state.trials:
        log_history(state)
    return RunReport(
        method=method,
        trials=state.trials,
        boxes=boxes,
        f_min=state.f_min,
        x_min=x_min,
        stop_reason=state.stop_reason,
        history=state.history,
        trace=state.trace,
        snapshot=snapshot_lines() if state.config.keep_trace else None,
    )
