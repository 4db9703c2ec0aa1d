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
from .geometry import BoxTuple, Partition
from .stopping import (
    OptConfig,
    RunReport,
    RunState,
    check_stop,
    close_report,
    iterate,
    log_history,
    record_trial,
)


class OptState(RunState):
    """Full mutable state of one run: partition, record point and box, phase.

    Making it is Step 0: one trial at the chosen corner, a single box of
    group 0, and the record point at that corner, the trial vertex of box 1.
    """

    def __init__(self, problem, config: OptConfig):
        partition = Partition(problem, config.start_vertex)
        # the ids of the boxes whose record's point is x_min, and the record
        # box, the tuple of one of them; the paper's p is record_box[2]. It
        # stays live: only a split replaces a box, and a split of the record
        # box changes the boxes at x_min, so _subdivide resolves it again.
        self.record_ids: set[int] = {1}
        self.record_box: BoxTuple = partition.boxes[1]
        rec = self.record_box[3]
        super().__init__(config, "init", partition, rec[3], rec[0])


def exploration_iteration(state: OptState, g_hi: int) -> None:
    """One selection + subdivision sweep over groups [q_inf, g_hi].

    Group q_inf is never empty and g_hi >= q_inf, so there is always a dot.
    """
    part = state.partition
    iterate(state, selection.group_representatives(part, part.q_inf, g_hi), _subdivide)


def exploration_phase(state: OptState) -> bool:
    """Steps 1.1-1.5; returns whether the record phase follows."""
    f_prec = state.f_min
    state.phase = "explore"
    for _ in range(state.problem.dim):
        g_hi = (state.partition.q_inf + state.record_box[2] + 1) // 2
        exploration_iteration(state, g_hi)
        if state.stop_reason:
            return False
        if _improved_one_percent(state.f_min, f_prec):
            return True
    exploration_iteration(state, state.record_box[2])
    return not state.stop_reason and state.record_box[2] < state.partition.q_0


def gradient_aligned(grad, a_real, b_real) -> bool:
    """True when every gradient component points outward along its box side."""
    return all(g * (br - ar) >= 0.0 for g, ar, br in zip(grad, a_real, b_real))


def record_phase(state: OptState) -> None:
    """Step 2: up to N trisections of the (possibly moving) record box."""
    state.phase = "local"
    for _ in range(state.problem.dim):
        _, t, _, rec, _, b_real, _ = state.record_box
        if gradient_aligned(rec[1], rec[3], b_real):
            break
        _subdivide(state, t)
        check_stop(state)
        if state.stop_reason:
            break
    log_history(state)


def run(problem, config: OptConfig) -> RunReport:
    """Alternate exploration and record improvement until a stop rule fires."""
    state = OptState(problem, config)
    while not state.stop_reason:
        if exploration_phase(state):
            record_phase(state)
    return close_report(state, "new")


def _improved_one_percent(f_min: float, f_prec: float) -> bool:
    return f_min <= f_prec - 0.01 * abs(f_prec)


def _resolve_record_box(state: OptState) -> None:
    # the record point always remains the trial vertex of at least one box;
    # among them the least F, then the largest d, then the lowest id
    boxes = state.partition.boxes
    state.record_box = min((boxes[i] for i in state.record_ids),
                           key=lambda box: (box[0], -box[6], box[1]))


def _subdivide(state: OptState, t: int) -> None:
    # every record holds its own point, so ``is`` finds the children at x_min;
    # they take box t's place, and a new record leaves only them
    box_1, box_2, box_3, new_rec = state.partition.trisect(t)
    if new_rec is not None and record_trial(state, new_rec[3], new_rec[0]):
        state.record_ids.clear()
    at_x_min = [box[1] for box in (box_1, box_2, box_3) if box[3][3] is state.x_min]
    if at_x_min:
        state.record_ids.discard(t)
        state.record_ids.update(at_x_min)
        _resolve_record_box(state)
