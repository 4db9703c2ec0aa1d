"""Two-phase global optimizer driven by gradient lower bounds.

An exploration phase repeatedly selects nondominated boxes among the larger
groups and trisects those whose best bound undercuts the record by the
improvement margin; it hands over to a record improvement phase as soon as
the record value gains at least 1%, or after its final iteration when the
record box is not among the smallest. The record phase trisects the record
box up to N times, stopping early once the gradient at the record vertex
points outward along every side of its box.
"""

from __future__ import annotations

from . import selection
from .geometry import Partition, Record
from .stopping import (
    OptConfig,
    RunReport,
    RunState,
    check_stop,
    close_report,
    log_history,
    record_trial,
)


class OptState(RunState):
    """Full mutable state of one run: partition, record point and box, phase."""

    def __init__(self, config: OptConfig, partition: Partition):
        super().__init__(config, "init", partition)
        # the vertex record at the record point, held by the boxes in
        # record_ids, one of them the record box
        self.record: Record = partition.boxes[1][3]
        self.record_ids: set[int] = {1}
        self.record_box = 1
        self.p = 0


def initialize(problem, config: OptConfig) -> OptState:
    """Step 0: one trial at the chosen corner, a single box of group 0.

    The record point starts at that corner, the trial vertex of box 1.
    """
    state = OptState(config, Partition(problem, config.start_vertex))
    record_trial(state, state.record[3], state.record[0])
    log_history(state)
    check_stop(state)
    return state


def exploration_iteration(state: OptState, g_hi: int) -> None:
    """One selection + subdivision sweep over groups [q_inf, g_hi].

    Group q_inf is never empty and g_hi >= q_inf, so there is always a dot.
    """
    part = state.partition
    dots = selection.group_representatives(part, part.q_inf, g_hi)
    for box_id in selection.choose(dots, state.f_min, state.config.epsilon):
        _subdivide(state, box_id)
        if state.stop_reason:
            break
    log_history(state)


def exploration_phase(state: OptState) -> str:
    """Steps 1.1-1.5; returns 'local', 're-explore' or 'stopped'."""
    f_prec = state.f_min
    state.phase = "explore"
    for _ in range(state.problem.dim):
        g_hi = (state.partition.q_inf + state.p + 1) // 2
        exploration_iteration(state, g_hi)
        if state.stop_reason:
            return "stopped"
        if _improved_one_percent(state.f_min, f_prec):
            return "local"
    exploration_iteration(state, state.p)
    if state.stop_reason:
        return "stopped"
    if state.p < state.partition.q_0:
        return "local"
    return "re-explore"


def gradient_aligned(grad, a_real, b_real) -> bool:
    """True when every gradient component points outward along its box side."""
    return all(g * (br - ar) >= 0.0 for g, ar, br in zip(grad, a_real, b_real))


def record_phase(state: OptState) -> None:
    """Step 2: up to N trisections of the (possibly moving) record box."""
    state.phase = "local"
    part = state.partition
    for _ in range(state.problem.dim):
        _, _, _, rec, _, b_real, _ = part.boxes[state.record_box]
        if gradient_aligned(rec[1], rec[3], b_real):
            break
        _subdivide(state, state.record_box)
        if state.stop_reason:
            return
    log_history(state)


def run(problem, config: OptConfig) -> RunReport:
    """Alternate exploration and record improvement until a stop rule fires."""
    state = initialize(problem, config)
    while not state.stop_reason:
        switch = exploration_phase(state)
        if switch == "local":
            record_phase(state)
    return close_report(state, "new")


def _improved_one_percent(f_min: float, f_prec: float) -> bool:
    return f_min <= f_prec - 0.01 * abs(f_prec)


def _resolve_record_box(state: OptState) -> None:
    # the record vertex always remains the trial vertex of at least one box;
    # among them the least F, then the largest d, then the lowest id
    boxes = state.partition.boxes
    state.record_box = best = min(state.record_ids, key=lambda i: (boxes[i][0], -boxes[i][6], i))
    state.p = boxes[best][2]


def _subdivide(state: OptState, t: int) -> None:
    middle, low, high, new_rec = state.partition.trisect(t)
    # box t, which held the record low[3], is gone; its children t and
    # high[1] hold the record at the new trial vertex, and low[1] holds
    # low[3]. The database keeps one record per vertex and every box holds
    # that same object, so ``is`` compares vertices.
    if new_rec is not None and record_trial(state, new_rec[3], new_rec[0]):
        state.record = new_rec  # newly evaluated, so no other box has it
        state.record_ids = {t, high[1]}
        _resolve_record_box(state)
    elif state.record is low[3]:
        state.record_ids.discard(t)
        state.record_ids.add(low[1])
        _resolve_record_box(state)
    elif state.record is middle[3]:
        state.record_ids.update((t, high[1]))
        _resolve_record_box(state)
    # at any other record vertex the record box is as it was
    check_stop(state)
