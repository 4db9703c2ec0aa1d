import gc
from fractions import Fraction

import numpy as np
import pytest

from lipgrad import baselines, selection
from lipgrad.baselines import _CenterState, _diag_d, direct_run, directl_run
from lipgrad.geometry import heap_min, heap_min_entries
from lipgrad.problems import analytic_suite, generate, problem_class, quadratic
from lipgrad.stopping import OptConfig, StopTarget, close_report
from util import (
    CenterBox,
    Dot,
    add_left_to_right,
    center_iteration,
    check_dense_live_layout,
    sorted_diag_d,
    wavy_problem,
    with_audit,
)


def views(state: _CenterState) -> dict[int, CenterBox]:
    """The state's boxes by id, each as a named view of its plain tuple."""
    return {raw[1]: CenterBox._make(raw) for raw in state.partition.boxes[1:]}


def chosen(state: _CenterState, dots) -> list[int]:
    """The ids of the boxes the iteration subdivides, from the state's dots."""
    return selection.choose(dots, state.f_min, state.config.epsilon)


def test_single_box_is_potentially_optimal_and_subdivided():
    prob = wavy_problem(2)
    state = _CenterState(prob, OptConfig(p_max=100), locally_biased=False)
    assert chosen(state, state.select()) == [1]
    center_iteration(state)
    assert len(views(state)) == 5  # split along both axes of the initial cube
    assert state.trials == 5


def test_center_reuse_balances_trials_and_boxes():
    # every axis split costs 2 samples and adds 2 boxes while the middle
    # child reuses its parent's center, so box and trial counts stay in
    # lockstep (up to one aborted subdivision at the budget edge)
    report = direct_run(wavy_problem(2), OptConfig(p_max=200))
    assert report.trials == 200
    assert report.trials - 4 <= report.boxes <= report.trials


def test_direct_finds_quadratic_minimum():
    prob = quadratic([0.3, 0.7], name="quad2d")
    cfg = OptConfig(target=StopTarget(prob.known_opt[0], 1e-6), p_max=10_000)
    for runner in (direct_run, directl_run):
        report = runner(prob, cfg)
        assert report.stop_reason == "target_found"
        assert report.trials <= 10_000
        assert abs(report.x_min[0] - 0.3) <= 1e-3 and abs(report.x_min[1] - 0.7) <= 1e-3


def test_baselines_never_touch_gradients():
    prob, audit = with_audit(wavy_problem(2))
    direct_run(prob, OptConfig(p_max=300))
    directl_run(prob, OptConfig(p_max=300))
    assert audit.grad_calls == 0
    assert audit.f_calls == 600


def test_huge_epsilon_degenerates_to_uniform_refinement():
    # with an enormous margin only the largest box ever passes the filter,
    # so refinement stays breadth-first and box sizes remain within one level
    prob = wavy_problem(2)
    report = direct_run(prob, OptConfig(p_max=200, epsilon=1e9))
    state = _CenterState(prob, OptConfig(p_max=200, epsilon=1e9), locally_biased=False)
    while not state.stop_reason:
        assert len(chosen(state, state.select())) == 1
        center_iteration(state)
    depth_sums = {sum(b.depths) for b in views(state).values()}
    assert max(depth_sums) - min(depth_sums) <= 2
    assert report.trials == state.trials


def test_locally_biased_selects_one_per_level():
    prob = wavy_problem(2)
    state = _CenterState(prob, OptConfig(p_max=500), locally_biased=True)
    center_iteration(state)
    for _ in range(10):
        boxes = views(state)
        levels = [min(boxes[i].depths) for i in chosen(state, state.select())]
        assert len(levels) == len(set(levels))
        center_iteration(state)
        if state.stop_reason:
            break


def test_locally_biased_breaks_value_ties_by_lower_id():
    flat = quadratic([0.5, 0.5], np.zeros((2, 2)), name="flat")  # f constant 0
    state = _CenterState(flat, OptConfig(p_max=100), locally_biased=True)
    center_iteration(state)
    # all boxes tie at f = 0; each level must contribute exactly its lowest id
    boxes = views(state)
    for box_id in chosen(state, state.select()):
        level = min(boxes[box_id].depths)
        peers = [
            i for i, b in boxes.items() if min(b.depths) == level
        ]
        assert box_id == min(peers)


def test_first_iteration_identical_between_variants():
    prob = wavy_problem(2)
    cfg = OptConfig(p_max=5, keep_trace=True)
    r1 = direct_run(prob, cfg)
    r2 = directl_run(prob, cfg)
    assert r1.trace == r2.trace


def test_variants_differ_on_comparative_class():
    cls = problem_class(2, "simple", seed=7, count=5)
    differs = False
    for index in range(1, 6):
        prob = generate(cls, index)
        cfg = OptConfig(target=StopTarget(prob.known_opt[0], 1e-4), p_max=50_000)
        differs |= direct_run(prob, cfg).trials != directl_run(prob, cfg).trials
    assert differs


def test_center_volume_conservation():
    prob = wavy_problem(2)
    state = _CenterState(prob, OptConfig(p_max=150), locally_biased=False)
    while not state.stop_reason:
        center_iteration(state)
    total = sum(
        Fraction(1, 3 ** sum(b.depths)) for b in views(state).values()
    )
    assert total == Fraction(1)


def test_center_box_fields():
    # every stored box is a plain tuple, filed under its id and its depth
    # sum s; a split deepens every shallowest axis, so the depths are
    # s // dim or one more, and s fixes the sorted depth vector
    for dim in (2, 3, 4):
        state = _CenterState(wavy_problem(dim), OptConfig(p_max=300), locally_biased=False)
        while not state.stop_reason:
            center_iteration(state)
        boxes = state.partition.boxes
        for box_id, box in views(state).items():
            assert type(boxes[box_id]) is tuple
            assert box.id == box_id
            assert sum(box.depths) == box.s
            assert set(box.depths) <= {box.s // dim, box.s // dim + 1}
            assert any(entry is boxes[box_id] for entry in state.partition.groups[box.s].heap)
            assert all(0 <= num < 3 ** dep for num, dep in zip(box.corner_nums, box.depths))


def test_depth_sum_diagonal_matches_the_sorted_depth_vector():
    # _diag_d(s, dim) adds the terms of the sorted depth vector that s fixes,
    # in its order, so it equals the old per-vector measure bit for bit
    for dim in range(1, 7):
        for s in range(40 * dim):
            k, r = divmod(s, dim)
            key = (k,) * (dim - r) + (k + 1,) * r
            assert _diag_d(s, dim).hex() == sorted_diag_d(key).hex(), (dim, s)


@pytest.mark.parametrize("method", [direct_run, directl_run], ids=["direct", "directl"])
@pytest.mark.parametrize("prob", [
    next(p for p in analytic_suite() if p.name == "quad3d-aniso"),
    generate(problem_class(4, "simple", seed=5, count=1), 1),
], ids=lambda prob: prob.name)
def test_each_group_d_is_its_depth_sum_diagonal_computed_once(monkeypatch, method, prob):
    # subdivide reuses a group's d, so every group's d must be _diag_d of
    # its depth sum, and _diag_d runs once per group, when the group is made
    calls, states = [], []

    def counted(s, dim):
        calls.append(s)
        return _diag_d(s, dim)

    def keep(state, name):
        states.append(state)
        return close_report(state, name)

    monkeypatch.setattr(baselines, "_diag_d", counted)
    monkeypatch.setattr(baselines, "close_report", keep)
    assert method(prob, OptConfig(p_max=2000)).trials == 2000
    groups = states[0].partition.groups
    assert [g.d.hex() for g in groups] == [_diag_d(s, prob.dim).hex() for s in range(len(groups))]
    assert calls == list(range(len(groups)))


@pytest.mark.parametrize("prob", [
    next(p for p in analytic_suite() if p.name == "quad3d-aniso"),
    generate(problem_class(4, "simple", seed=5, count=1), 1),
], ids=lambda prob: prob.name)
def test_each_level_d_is_its_longest_side_measure(monkeypatch, prob):
    # DIRECT-l gives every level dot its level's longest-side measure,
    # 0.5 / 9**level with level = s // dim, bit for bit
    seen = []  # each dot's d and its box's depth sum s when selected
    select = _CenterState.select

    def recording_select(state):
        dots = select(state)
        seen.extend((d, state.partition.boxes[box_id][2]) for box_id, d, _ in dots)
        return dots

    monkeypatch.setattr(_CenterState, "select", recording_select)
    assert directl_run(prob, OptConfig(p_max=2000)).trials == 2000
    assert len(seen) > 100
    assert len({s // prob.dim for _, s in seen}) > 3
    assert all(d.hex() == (0.5 / 3 ** (2 * (s // prob.dim))).hex() for d, s in seen)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("runner", [direct_run, directl_run], ids=["direct", "directl"])
def test_each_box_stores_the_center_of_its_cell(monkeypatch, runner, dim):
    # a split reads its parent's stored center: center is called once per
    # run, for the root at Step 0, and every live box's point is the center
    # of its grid cell bit for bit. f_center is the trial made at that
    # point while 3**depth and the doubled numerator are exact floats
    # (every depth <= 32): (num + 0.5) / 3**depth and the parent's
    # (3 * num + 1.5) / 3**(depth + 1) then round alike. In 3-D DIRECT-l
    # reaches depth 34, where a cell is narrower than a float step and its
    # sample, taken at the parent's coordinates, may be off by an ulp.
    calls, states = [], []
    center = baselines._CenterBoxes.center

    def counted(table, corner_nums, depths):
        calls.append((corner_nums, depths))
        return center(table, corner_nums, depths)

    def keep(state, name):
        states.append(state)
        return close_report(state, name)

    monkeypatch.setattr(baselines._CenterBoxes, "center", counted)
    monkeypatch.setattr(baselines, "close_report", keep)
    report = runner(generate(problem_class(dim, "hard", seed=0, count=1), 1),
                    OptConfig(p_max=2000, keep_trace=True))
    assert report.trials == 2000
    assert calls == [((0,) * dim, (0,) * dim)]
    part = states[0].partition
    sampled = {x: value for _, x, value, _, _ in report.trace}
    exact = 0
    for box in map(CenterBox._make, part.boxes[1:]):
        assert type(box.center) is tuple and all(type(v) is float for v in box.center)
        expected = center(part, box.corner_nums, box.depths)
        assert [v.hex() for v in box.center] == [v.hex() for v in expected]
        if max(box.depths) <= 32:
            assert sampled[box.center] == box.f_center
            exact += 1
    assert exact > 1000
    if (runner, dim) == (directl_run, 3):  # boxes below the float step were checked too
        assert exact < part.m


def test_determinism_and_history_monotone():
    prob = wavy_problem(2)
    cfg = OptConfig(p_max=350, keep_trace=True)
    r1 = direct_run(prob, cfg)
    r2 = direct_run(prob, cfg)
    assert r1.trace == r2.trace and r1.snapshot == r2.snapshot
    f_mins = [h[1] for h in r1.history]
    diags = [h[2] for h in r1.history]
    assert all(a >= b for a, b in zip(f_mins, f_mins[1:]))
    assert all(a >= b for a, b in zip(diags, diags[1:]))


def test_budget_one_stops_after_first_center():
    report = direct_run(wavy_problem(2), OptConfig(p_max=1))
    assert report.trials == 1 and report.stop_reason == "budget"
    assert report.boxes == 1


@pytest.mark.parametrize("runner", [direct_run, directl_run], ids=["direct", "directl"])
def test_a_split_that_the_budget_cuts_short_is_dropped(runner):
    # the first split of a 2-D root samples 4 centers and files 4 children;
    # with p_max 4 the 5th box would need a 5th sample, and with p_max 5 the
    # split whose last sample is trial p_max keeps its children
    prob = quadratic([0.3, 0.7], name="quad2d")
    for p_max, trials, boxes in [(4, 4, 1), (5, 5, 5), (6, 6, 5)]:
        report = runner(prob, OptConfig(p_max=p_max))
        assert (report.trials, report.boxes, report.stop_reason) == (trials, boxes, "budget")


@pytest.mark.parametrize("runner", [direct_run, directl_run], ids=["direct", "directl"])
def test_a_split_that_hits_the_target_is_dropped(runner):
    # the root's first split samples axis 0 at 1/6, then at 5/6
    prob = quadratic([1 / 6, 0.5])
    for x_star, trials in [((1 / 6, 0.5), 2), ((5 / 6, 0.5), 3)]:
        report = runner(prob, OptConfig(target=StopTarget(x_star, 1e-8)))
        assert (report.trials, report.boxes, report.stop_reason) == (trials, 1, "target_found")


def rescanned_select(state: _CenterState) -> list[Dot]:
    """select()'s dots from the live boxes alone, without groups or heaps.

    DIRECT: every tied minimum per sorted depth vector, at its half squared
    diagonal. DIRECT-l: the least (f, id) per minimum depth L, at 0.5 / 9^L.
    """
    by_key = {}
    boxes = views(state)
    for box in boxes.values():
        key = min(box.depths) if state.locally_biased else tuple(sorted(box.depths))
        by_key.setdefault(key, []).append((box.f_center, box.id))
    dots = []
    for key, entries in by_key.items():
        entries.sort()
        if state.locally_biased:
            d, tied = 0.5 / 3 ** (2 * key), entries[:1]
        else:
            d = 0.5 * add_left_to_right(1.0 / 3 ** (2 * dep) for dep in key)
            tied = [e for e in entries if e[0] == entries[0][0]]
        for F, box_id in tied:
            dots.append(Dot(box_id, d, F))
    return dots


def largest_diagonal_sq(state: _CenterState) -> float:  # scans every box
    return max(add_left_to_right(1.0 / 3 ** (2 * dep) for dep in sorted(box.depths))
               for box in views(state).values())


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("locally_biased", [False, True], ids=["direct", "directl"])
def test_cached_select_matches_a_rescan(dim, locally_biased):
    state = _CenterState(wavy_problem(dim), OptConfig(p_max=1500), locally_biased)
    while not state.stop_reason:
        dots, rescanned = state.select(), rescanned_select(state)
        assert sorted(dots) == sorted(rescanned)
        assert chosen(state, dots) == chosen(state, rescanned)
        assert state.partition.max_diagonal_sq() == largest_diagonal_sq(state)
        center_iteration(state)


@pytest.mark.parametrize("runner", [direct_run, directl_run], ids=["direct", "directl"])
def test_select_hands_plain_tuple_dots_to_choose(monkeypatch, runner):
    seen = []
    choose = selection.choose

    def recording_choose(dots, f_min, epsilon):
        seen.extend(dots)
        return choose(dots, f_min, epsilon)

    monkeypatch.setattr(selection, "choose", recording_choose)
    runner(wavy_problem(3), OptConfig(p_max=300))
    assert len(seen) > 50
    assert all(type(t) is tuple and len(t) == 3 for t in seen)


@pytest.mark.parametrize("locally_biased", [False, True], ids=["direct", "directl"])
def test_center_boxes_are_not_tracked_by_the_collector(locally_biased):
    # a center box and each of its items is a plain tuple of ints and
    # floats, or an int or float, so a collection untracks it and later
    # ones skip it however many boxes the run made
    prob = generate(problem_class(4, "simple", seed=11, count=20), 1)
    state = _CenterState(prob, OptConfig(p_max=3000), locally_biased)
    while not state.stop_reason:
        center_iteration(state)
    assert state.trials == 3000
    gc.collect()
    gc.collect()
    boxes = state.partition.boxes[1:]
    assert len(boxes) > 2900
    assert not any(map(gc.is_tracked, boxes))
    assert not any(gc.is_tracked(item) for box in boxes for item in box)
    for group in state.partition.groups:
        assert not any(map(gc.is_tracked, group.heap))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("locally_biased", [False, True], ids=["direct", "directl"])
def test_center_ids_stay_dense_and_minima_live(monkeypatch, dim, locally_biased):
    # slot i holds live box i for i in 1..m, each an entry of its group's
    # heap; a group's minima read empty exactly when it has no live box;
    # q_inf is the lowest group with a live box; and no stale heap entry
    # ever comes back as a group minimum. DIRECT-l reads only the roots.
    returned, roots = [], []

    def checked(group, boxes):
        out = heap_min_entries(group, boxes)
        assert bool(out) == any(boxes[entry[1]] is entry for entry in group.heap)
        assert all(boxes[entry[1]] is entry for entry in out)
        returned.append(len(out))
        return out

    def checked_root(group, boxes):
        root = heap_min(group, boxes)
        live = [entry for entry in group.heap if boxes[entry[1]] is entry]
        assert root is (min(live) if live else None)
        roots.append(root)
        return root

    monkeypatch.setattr(baselines, "heap_min_entries", checked)
    monkeypatch.setattr(baselines, "heap_min", checked_root)
    state = _CenterState(wavy_problem(dim), OptConfig(p_max=800), locally_biased)
    while not state.stop_reason:
        center_iteration(state)
        check_dense_live_layout(state.partition)
    if locally_biased:
        assert len(roots) > 100 and not returned
    else:
        assert len(returned) > 100 and not roots
