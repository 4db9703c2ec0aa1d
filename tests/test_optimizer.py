import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lipgrad import baselines, optimizer
from lipgrad.optimizer import (
    OptState,
    exploration_iteration,
    gradient_aligned,
    record_phase,
    run,
    _improved_one_percent,
    _resolve_record_box,
)
from lipgrad.geometry import vertex_real
from lipgrad.problems import Problem, generate, problem_class, quadratic
from lipgrad.stopping import OptConfig, StopTarget, record_trial, target_window
from util import Box, flat_problem, make_vertex, wavy_problem, with_audit


def test_initialize_single_box():
    state = OptState(flat_problem(2, value=7.0), OptConfig(p_max=100))
    assert state.f_min == 7.0
    assert state.partition.m == 1
    assert Box._make(state.partition.boxes[1]).s == 0
    assert state.record_ids == {1}
    assert state.record_box is state.partition.boxes[1] and state.record_box[2] == 0
    assert state.stop_reason is None


def test_initialize_budget_one_stops_immediately():
    state = OptState(flat_problem(2), OptConfig(p_max=1))
    assert state.stop_reason == "budget"
    assert state.trials == 1


def test_initialize_from_vertex_b():
    prob = wavy_problem(2)
    cfg = OptConfig(p_max=10, start_vertex="b", keep_trace=True)
    state = OptState(prob, cfg)
    assert state.trace[0][1] == (1.0, 1.0)
    assert state.f_min == prob.f(np.array([1.0, 1.0]))


@pytest.mark.parametrize("make", [
    OptState,
    lambda problem, config: baselines._CenterState(problem, config, locally_biased=False),
    lambda problem, config: baselines._CenterState(problem, config, locally_biased=True),
], ids=["new", "direct", "directl"])
@pytest.mark.parametrize("config, reason", [
    (OptConfig(p_max=1), "budget"),
    (OptConfig(diagonal=1), "diagonal"),
    (OptConfig(p_max=2), None),
], ids=["budget", "diagonal", "none"])
def test_making_a_run_state_is_step_0(make, config, reason):
    # one trial, one box and one history row, then the first stop check
    state = make(wavy_problem(2), config)
    assert (state.trials, state.partition.m, len(state.history)) == (1, 1, 1)
    assert state.stop_reason == reason


def test_one_percent_improvement_rule():
    assert _improved_one_percent(-10.2, -10.0)
    assert not _improved_one_percent(-10.05, -10.0)
    assert _improved_one_percent(-10.1, -10.0)


def test_gradient_aligned_examples():
    assert not gradient_aligned((0.5, 1.0), (0.0, 0.0), (1.0, -1.0))
    assert gradient_aligned((0.5, 1.0), (0.0, 0.0), (1.0, 1.0))
    assert gradient_aligned((0.0, 0.0), (0.0, 0.0), (1.0, -1.0))


def test_record_trial_requires_strict_improvement():
    prob = flat_problem(2)  # every value equal
    state = OptState(prob, OptConfig(p_max=100))
    vertex2 = make_vertex((2, 1), 0)
    x2 = vertex_real(vertex2, state.partition.lower, state.partition.edge)
    f2 = state.partition.get_or_eval(vertex2, x2, 0, x2[0])[0]
    assert not record_trial(state, x2, f2)  # a tie is no improvement
    assert state.f_min == f2
    assert record_trial(state, x2, f2 - 1.0)
    assert state.f_min == f2 - 1.0


def test_record_trial_books_trace_row_and_target():
    window = target_window(StopTarget((0.5, 0.5), 1e-2), (0.0, 0.0), (1.0, 1.0))
    state = SimpleNamespace(
        target_window=window, trials=2, f_min=2.0, x_min=(0.1, 0.1), phase="explore",
        trace=[], stop_reason=None,
    )
    assert record_trial(state, (0.9, 0.9), 1.0)
    assert state.trace == [(3, (0.9, 0.9), 1.0, 1.0, "explore")]
    assert state.trials == 3 and state.x_min == (0.9, 0.9)
    assert state.stop_reason is None
    assert not record_trial(state, (0.5, 0.5), 4.0)
    assert state.trace[-1] == (4, (0.5, 0.5), 4.0, 1.0, "explore")
    assert state.trials == 4 and state.x_min == (0.9, 0.9)
    assert state.stop_reason == "target_found"


def test_record_box_always_carries_the_record_point():
    def f(x):
        return float(-x[0] - x[1])

    def grad(x):
        return np.array([-1.0, -1.0])

    prob = Problem("lin", 2, (0.0, 0.0), (1.0, 1.0), f, grad)
    state = OptState(prob, OptConfig(p_max=50))
    for _ in range(6):
        exploration_iteration(state, state.partition.q_0)
    part = state.partition
    assert state.record_box is part.boxes[state.record_box[1]]
    box = Box._make(state.record_box)
    assert box.rec is part.vertex_db[box.a] and state.x_min is box.rec[3]
    # the record box is filed in its group p = box.s
    assert any(entry is state.record_box for entry in part.groups[box.s].heap)
    assert state.f_min == min(rec[0] for rec in state.partition.vertex_db.values())


def test_record_box_tie_resolution_rule():
    # among the live boxes at x_min: minimal F first, then larger d, then
    # smaller id; box 4 has the least F but another trial vertex
    v, w = make_vertex(0, 0), make_vertex(1, 1)
    rv, rw = (0.0, (), v, ()), (1.0, (), w, ())  # the records at v and w
    boxes = {box.id: tuple(box) for box in (
        Box(2.0, 1, 3, rv, 0, (), 1.0),
        Box(2.0, 2, 4, rv, 0, (), 0.5),
        Box(5.0, 3, 3, rv, 0, (), 1.0),
        Box(-1.0, 4, 2, rw, 0b11, (), 4.0),
        Box(2.0, 5, 3, rv, 0, (), 1.0),
    )}
    at_x_min = {i for i, box in boxes.items() if Box._make(box).a == v}
    state = SimpleNamespace(partition=SimpleNamespace(boxes=boxes),
                            record_ids=at_x_min, record_box=None)
    _resolve_record_box(state)
    assert state.record_box is boxes[1] and state.record_box[2] == 3


@pytest.mark.parametrize("make", [
    lambda: wavy_problem(2),
    lambda: wavy_problem(4),
    lambda: generate(problem_class(2, "hard", seed=0, count=20), 1),
], ids=["wavy2d", "wavy4d", "hard2d"])
def test_record_box_after_every_subdivision_matches_a_full_resolve(monkeypatch, make):
    # _subdivide resolves the record box only when the boxes at x_min changed
    subdivide = optimizer._subdivide
    checked = []

    def checked_subdivide(state, box_id):
        subdivide(state, box_id)
        kept = state.record_box
        _resolve_record_box(state)
        assert kept is state.record_box
        checked.append(box_id)

    monkeypatch.setattr(optimizer, "_subdivide", checked_subdivide)
    run(make(), OptConfig(p_max=2000))
    assert len(checked) > 1000


@pytest.mark.parametrize("make", [
    lambda: wavy_problem(2),
    lambda: wavy_problem(4),
    lambda: generate(problem_class(2, "hard", seed=0, count=20), 1),
], ids=["wavy2d", "wavy4d", "hard2d"])
def test_record_ids_after_every_subdivision_are_the_boxes_at_x_min(monkeypatch, make):
    # _subdivide updates the set from the three children alone; it must
    # equal a scan of every live box for the record point x_min
    subdivide = optimizer._subdivide
    checked = []

    def checked_subdivide(state, box_id):
        subdivide(state, box_id)
        part, record = state.partition, state.record_box[3]
        # the held record box is live, and its record is the database's own
        # record at the record point x_min
        assert state.record_box is part.boxes[state.record_box[1]], box_id
        assert record is part.vertex_db[record[2]], box_id
        assert state.x_min is record[3], box_id
        assert state.trials == len(part.vertex_db), box_id
        # box[1] is the id and box[3][3] its record's point; every box holds
        # its vertex's one record, so these are the boxes at that vertex
        at_x_min = {box[1] for box in part.boxes[1:] if box[3][3] is state.x_min}
        assert state.record_ids == at_x_min, box_id
        checked.append(box_id)

    monkeypatch.setattr(optimizer, "_subdivide", checked_subdivide)
    run(make(), OptConfig(p_max=2000))
    assert len(checked) > 1000


def test_exploration_phase_group_ranges(monkeypatch):
    # Step 1.1 sweeps groups up to ceil((q_inf + p)/2), the final iteration
    # up to p itself
    state = OptState(wavy_problem(2), OptConfig(p_max=1000))
    for _ in range(8):
        exploration_iteration(state, state.partition.q_0)
    seen = []

    def spy(st, g_hi):
        seen.append((st.partition.q_inf, st.record_box[2], g_hi))
        exploration_iteration(st, g_hi)

    monkeypatch.setattr(optimizer, "exploration_iteration", spy)
    optimizer.exploration_phase(state)
    assert len(seen) == 3  # N Step-1.1 sweeps plus the final one
    for q_inf, p, g_hi in seen[:-1]:
        assert g_hi == -(-(q_inf + p) // 2)
    assert seen[-1][2] == seen[-1][1]


def test_exploration_phase_switch_after_final_iteration(monkeypatch):
    # with no record improvement the phase hands over to the record phase
    # exactly when the record box is not among the smallest
    state = OptState(flat_problem(2), OptConfig(p_max=10_000))
    part = state.partition
    for _ in range(3):  # each split of a smallest box makes a new group
        part.trisect(min(box[1] for box in part.boxes[1:] if box[2] == part.q_0))
    assert part.q_0 == 3
    monkeypatch.setattr(optimizer, "exploration_iteration", lambda st, g_hi: None)
    assert state.record_box[2] == 0  # box 1 as Step 0 made it
    assert optimizer.exploration_phase(state) is True
    state.record_box = next(box for box in part.boxes[1:] if box[2] == 3)
    assert optimizer.exploration_phase(state) is False


def test_exploration_iteration_single_box_is_subdivided():
    state = OptState(wavy_problem(2), OptConfig(p_max=100))
    exploration_iteration(state, 0)
    assert state.partition.m == 3


def test_record_phase_is_bounded_by_dimension():
    state = OptState(wavy_problem(2), OptConfig(p_max=1000))
    exploration_iteration(state, 0)
    m_before = state.partition.m
    record_phase(state)
    assert state.partition.m - m_before <= 2 * 2  # at most N subdivisions, 2 boxes each


def test_record_phase_stops_on_outward_gradient():
    # minimum at the trial corner: gradient already aligned, no subdivision
    prob = quadratic([0.0, 0.0], name="corner")
    state = OptState(prob, OptConfig(p_max=1000))
    m_before = state.partition.m
    record_phase(state)
    assert state.partition.m == m_before


def test_run_on_quadratic_finds_target():
    prob = quadratic([0.3, 0.7], name="quad2d")
    report = run(prob, OptConfig(target=StopTarget(prob.known_opt[0], 1e-4), p_max=100_000))
    assert report.stop_reason == "target_found"
    assert report.trials < 500
    assert abs(report.x_min[0] - 0.3) <= 0.01 and abs(report.x_min[1] - 0.7) <= 0.01
    # the derivative-free baseline needs the same order of trials; both are
    # far below the budget
    direct = baselines.direct_run(prob, OptConfig(target=StopTarget(prob.known_opt[0], 1e-4)))
    assert direct.stop_reason == "target_found" and direct.trials < 500


def test_run_budget_is_exact():
    prob, audit = with_audit(wavy_problem(2))
    report = run(prob, OptConfig(p_max=37))
    assert report.stop_reason == "budget"
    assert report.trials == 37
    assert audit.f_calls == 37 and audit.grad_calls == 37


def test_run_history_is_monotone():
    report = run(wavy_problem(2), OptConfig(p_max=300))
    trials = [h[0] for h in report.history]
    f_mins = [h[1] for h in report.history]
    assert all(a <= b for a, b in zip(trials, trials[1:]))
    assert all(a >= b for a, b in zip(f_mins, f_mins[1:]))


def test_run_diagonal_stop_rule():
    # the rule is shared by all three methods
    for method, trials in ((run, 50), (baselines.direct_run, 171),
                           (baselines.directl_run, 149)):
        report = method(wavy_problem(2), OptConfig(p_max=100_000, diagonal=0.2))
        assert (report.stop_reason, report.trials) == ("diagonal", trials)
        rel = math.sqrt(report.history[-1][2] / report.history[0][2])
        assert rel <= 0.2


def test_diagonal_one_stops_every_method_after_its_first_trial():
    # the first history row is the initial diagonal, logged before the
    # first stop check
    for method in (run, baselines.direct_run, baselines.directl_run):
        report = method(wavy_problem(2), OptConfig(diagonal=1))
        assert (report.stop_reason, report.trials) == ("diagonal", 1)
        assert report.history == [(1, report.f_min, report.history[0][2])]


def test_run_is_deterministic():
    cfg = OptConfig(p_max=200, keep_trace=True)
    r1 = run(wavy_problem(2), cfg)
    r2 = run(wavy_problem(2), cfg)
    assert r1.trace == r2.trace
    assert r1.snapshot == r2.snapshot
    assert (r1.trials, r1.boxes, r1.f_min, r1.x_min) == (r2.trials, r2.boxes, r2.f_min, r2.x_min)


def test_run_alternates_phases():
    cls_prob = wavy_problem(2)
    report = run(cls_prob, OptConfig(p_max=400, keep_trace=True))
    phases = [entry[4] for entry in report.trace]
    assert "explore" in phases
    assert "local" in phases
    # never more than N new trials in a row during record improvement
    streak = 0
    for phase in phases:
        streak = streak + 1 if phase == "local" else 0
        assert streak <= 2


def test_config_validation():
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OptConfig(epsilon=eps)
    with pytest.raises(ValueError):
        OptConfig(p_max=0)
    with pytest.raises(ValueError):
        OptConfig(start_vertex="c")
    with pytest.raises(ValueError):
        OptConfig(diagonal=1.5)
    # a wrong type raises a ValueError that names the field
    for field, value in [("p_max", 2.5), ("p_max", True), ("p_max", "10"),
                         ("epsilon", "1e-4"), ("epsilon", True), ("epsilon", None),
                         ("diagonal", "0.5"), ("diagonal", True),
                         # a truthy "no" used to keep a trace and a snapshot
                         ("keep_trace", "no"), ("keep_trace", 1), ("keep_trace", None)]:
        with pytest.raises(ValueError, match=field):
            OptConfig(**{field: value})
    config = OptConfig(epsilon=np.float64(1e-3), p_max=np.int64(10), diagonal=1)
    assert (config.epsilon, config.p_max, config.diagonal) == (1e-3, 10, 1)
    # a checked config cannot change afterwards, so a run reads what was checked
    for field in dataclasses.fields(OptConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, "x")


@pytest.mark.parametrize("method", [run, baselines.direct_run, baselines.directl_run],
                         ids=lambda m: m.__name__)
def test_target_must_be_one_finite_number_per_axis(method):
    prob = quadratic([0.3, 0.7], name="quad2d")

    def solve(x_star):
        return method(prob, OptConfig(p_max=50, target=StopTarget(x_star, 1e-4)))

    # a set or a dict has no axis order (a dict would be read as its keys),
    # so its x* could sit at the wrong point
    for x_star in [(0.3,), (0.3, 0.7, 0.1), (0.3, math.nan), (math.inf, 0.7), (0.3, "0.7"),
                   {0.3, 0.7}, {0.7, 0.3}, frozenset((0.3, 0.7)), {0.3: 0.0, 0.7: 1.0},
                   np.array([[0.3, 0.7]])]:
        with pytest.raises(ValueError, match="x_star"):
            solve(x_star)
    # a list and numpy coordinates are a point too
    runs = [solve(x_star) for x_star in [(0.3, 0.7), [0.3, 0.7], np.array([0.3, 0.7])]]
    assert len({(r.trials, r.stop_reason) for r in runs}) == 1



def test_stop_target_delta_must_be_a_real_number():
    # a string, None or a bool is not an accuracy; each raises a ValueError
    # naming delta, as OptConfig does for its fields
    for delta in ("1e-4", None, True, False, 1e-4j, [1e-4], 10**400):
        with pytest.raises(ValueError, match="delta"):
            StopTarget((0.3, 0.7), delta)
    assert StopTarget((0.3, 0.7), np.float64(1e-4)).delta == 1e-4
    assert StopTarget((0.3, 0.7), 1).delta == 1


@pytest.mark.parametrize("method", [run, baselines.direct_run, baselines.directl_run],
                         ids=lambda m: m.__name__)
def test_target_beyond_float_range_raises_value_error(method):
    # an int coordinate too large for a float, a bool, or an x_star that is
    # not a sequence is refused by name, never with an OverflowError or a
    # TypeError from inside the run
    prob = quadratic([0.3, 0.7], name="quad2d")
    for x_star in [(10**400, 0.7), (0.3, -10**400), (True, 0.7), None, 0.3, np.array(0.3)]:
        with pytest.raises(ValueError, match="x_star"):
            method(prob, OptConfig(p_max=50, target=StopTarget(x_star, 1e-4)))
    report = method(prob, OptConfig(p_max=50, target=StopTarget((0, 1), 1e-4)))
    assert report.trials <= 50


def test_config_rejects_a_foreign_target_and_numbers_beyond_float_range():
    # a foreign target and a huge epsilon used to fail inside the run
    # (AttributeError, OverflowError)
    for field, value in [("target", "abc"), ("target", (0.3, 0.7)),
                         ("epsilon", 10**400), ("epsilon", -10**400), ("p_max", 10**400)]:
        with pytest.raises(ValueError, match=field):
            OptConfig(**{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow casting a float32
        config = OptConfig(epsilon=np.float32(0.5), p_max=10**300, diagonal=np.float32(0.5))
    assert (config.epsilon, config.p_max, config.diagonal) == (0.5, 10**300, 0.5)
