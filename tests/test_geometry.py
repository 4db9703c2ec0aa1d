import dataclasses
import gc
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgrad import optimizer, selection
from lipgrad.baselines import _CenterState, direct_run, directl_run
from lipgrad.geometry import (
    Group,
    Partition,
    grid_fraction,
    heap_min,
    heap_min_entries,
    pow3,
    vertex_real,
)
from lipgrad.optimizer import run
from lipgrad.problems import Problem, generate, problem_class, quadratic
from lipgrad.stopping import OptConfig
from util import (
    Box,
    add_left_to_right,
    as_fraction,
    b_corner,
    box_ids,
    check_dense_live_layout,
    diagonal_sq,
    flat_problem,
    half_diag_sq,
    live_boxes,
    make_box,
    make_vertex,
    root_characterize,
    trisect_views,
    vertex_fractions,
    volume,
    wavy_problem,
    with_audit,
)


def domain_problem(edges):
    """Flat problem on [0, edges]: only the domain shape matters."""
    prob = flat_problem(len(edges))
    return Problem(prob.name, prob.dim, prob.lower, tuple(float(e) for e in edges),
                   prob.f, prob.grad)


def test_grid_fraction_normalizes():
    assert grid_fraction(3, 2) == (1, 1)
    assert grid_fraction(9, 2) == (1, 0)
    assert grid_fraction(0, 5) == (0, 0)
    assert grid_fraction(2, 3) == (2, 3)


@pytest.mark.parametrize("num,depth", [(-1, 0), (2, 0), (28, 3), (1, -1)])
def test_grid_fraction_rejects_out_of_range(num, depth):
    with pytest.raises(ValueError):
        grid_fraction(num, depth)


def test_grid_fraction_equality_matches_value():
    rng = np.random.default_rng(0)
    for _ in range(500):
        d1, d2 = rng.integers(0, 8, size=2)
        n1 = int(rng.integers(0, pow3(int(d1)) + 1))
        n2 = int(rng.integers(0, pow3(int(d2)) + 1))
        p = grid_fraction(n1, int(d1))
        q = grid_fraction(n2, int(d2))
        assert (p == q) == (as_fraction(p) == as_fraction(q))


def test_unit_square_measures():
    part = Partition(flat_problem(2))
    box = part.boxes[1]
    assert b_corner(part, box) == make_vertex(1, 1)
    num, e = volume(part, box)
    assert num == pow3(e)
    assert diagonal_sq(box) == 2.0
    assert diagonal_sq(make_box(make_vertex(0, 0), make_vertex(1, 1))) == 2.0


def test_longest_side_tie_breaks_to_first_axis():
    # every side of the first box ties: the split axis is axis 0
    for dim in (1, 2, 3, 4):
        assert Partition(flat_problem(dim)).split_axis(0) == 0
    assert Partition(domain_problem((2.0, 2.0, 1.0))).split_axis(0) == 0


def test_longest_side_picks_strictly_longer_axis():
    # on a hypercube group s has split each axis s // N or s // N + 1 times,
    # so its longest side is axis s % N
    for dim in (1, 2, 3, 4):
        part = Partition(flat_problem(dim))
        assert [part.split_axis(s) for s in range(12)] == [s % dim for s in range(12)]


def test_longest_side_reversed_diagonal_tie():
    # the split axis does not depend on the orientation of the diagonal
    prob = flat_problem(2)
    part = Partition(prob, start_vertex="b")
    assert part.split_axis(0) == 0
    middle, _, _, _ = trisect_views(part, 1)
    assert middle.a == make_vertex((1, 1), 1) and b_corner(part, middle) == make_vertex((2, 1), 0)
    assert part.split_axis(1) == 1


def test_longest_side_respects_real_edges():
    # grid ties on every axis, but the domain is longer on axis 1
    part = Partition(domain_problem((1.0, 2.0)))
    # sides (1, 2) -> (1, 2/3) -> (1/3, 2/3) -> (1/3, 2/9) ...
    assert [part.split_axis(s) for s in range(5)] == [1, 0, 1, 0, 1]
    part = Partition(domain_problem((1.0, 3.0)))
    # sides (1, 3) -> (1, 1) tie -> (1/3, 1) -> (1/3, 1/3) tie ...
    assert [part.split_axis(s) for s in range(5)] == [1, 0, 1, 0, 1]
    part = Partition(domain_problem((3.0, 1.0)))
    assert [part.split_axis(s) for s in range(4)] == [0, 0, 1, 0]


def test_split_axis_matches_longest_side_of_random_trisections():
    # recompute each box's longest real side from its corners, exactly
    rng = np.random.default_rng(10)
    for edges in ((1.0, 1.0), (1.0, 3.0), (1.0, 2.0), (0.7, 1.1, 0.4), (2.0, 1.0, 1.0, 0.5)):
        prob = domain_problem(edges)
        for start in ("a", "b"):
            part = Partition(prob, start_vertex=start)
            for _ in range(60):
                box = Box._make(part.boxes[int(rng.choice(box_ids(part)))])
                b = b_corner(part, box)
                sides = [
                    abs(as_fraction(pb) - as_fraction(pa)) * Fraction(e)
                    for pa, pb, e in zip(vertex_fractions(box.a), vertex_fractions(b), edges)
                ]
                longest = sides.index(max(sides))
                assert part.split_axis(box.s) == longest
                middle, *_ = trisect_views(part, box.id)
                split = [j for j, (pa, qa) in enumerate(zip(vertex_fractions(box.a),
                                                             vertex_fractions(middle.a)))
                         if pa != qa]
                assert split == [longest]


def test_trisect_unit_square():
    part = Partition(flat_problem(2))
    middle, low, high, new_rec = trisect_views(part, 1)
    b = partial(b_corner, part)
    assert middle.a == make_vertex((2, 1), 0) and b(middle) == make_vertex((1, 1), 1)
    assert low.a == make_vertex(0, 0) and b(low) == make_vertex((1, 1), 1)
    assert high.a == make_vertex((2, 1), 0) and b(high) == make_vertex(1, 1)
    assert new_rec is not None
    for child in (middle, low, high):
        num, e = volume(part, child)
        assert 3 * num == pow3(e)
        assert child.s == 1
        assert math.isclose(diagonal_sq(child), 10.0 / 9.0)
    assert part.m == 3 and {b.id for b in (middle, low, high)} == {1, 2, 3}


def test_trisect_one_dimensional():
    prob = flat_problem(1)
    part = Partition(prob)
    middle, low, high, _ = trisect_views(part, 1)
    b = partial(b_corner, part)
    assert middle.a == make_vertex((2, 1)) and b(middle) == make_vertex((1, 1))
    assert low.a == make_vertex(0) and b(low) == make_vertex((1, 1))
    assert high.a == make_vertex((2, 1)) and b(high) == make_vertex(1)


def test_trisect_reversed_diagonal():
    # the formulas are orientation independent; plant the box [(1,0),(0,1)]
    prob = flat_problem(2)
    part = Partition(prob)
    box = make_box(make_vertex(1, 0), make_vertex(0, 1))
    assert box.orient == 0b01  # b below a on axis 0 only
    rec = part.get_or_eval(box.a, box.a_real)
    F, d = root_characterize(rec, box.a_real, box.b_real)
    part.add_boxes(0, d, ((F, box.id, box.s, rec, box.orient, box.b_real, d),))
    middle, low, high, _ = trisect_views(part, 1)
    b = partial(b_corner, part)
    assert middle.a == make_vertex((1, 1), 0) and b(middle) == make_vertex((2, 1), 1)
    assert low.a == make_vertex(1, 0) and b(low) == make_vertex((2, 1), 1)
    assert high.a == make_vertex((1, 1), 0) and b(high) == make_vertex(0, 1)


@pytest.mark.parametrize("start", ["a", "b"])
def test_b_corner_is_the_exact_third_point_of_each_split(start):
    # shadow both corners of every box as exact fractions, splitting [a, b]
    # in thirds on the split axis: corners must give b, normalized, and
    # b_real must be its real point bit for bit
    rng = np.random.default_rng(14)
    for edges in ((1.0,), (1.0, 3.0), (0.7, 1.1, 0.4), (2.0, 1.0, 1.0, 0.5)):
        part = Partition(domain_problem(edges), start_vertex=start)
        one, zero = [Fraction(1)] * len(edges), [Fraction(0)] * len(edges)
        corners = {1: (one, zero) if start == "b" else (zero, one)}
        for _ in range(80):
            t = int(rng.choice(box_ids(part)))
            i, (a, b) = part.split_axis(part.boxes[t][2]), corners[t]
            u, v = list(a), list(b)
            u[i], v[i] = a[i] + 2 * (b[i] - a[i]) / 3, a[i] + (b[i] - a[i]) / 3
            m = part.m
            part.trisect(t)
            corners.update({t: (u, v), m + 1: (a, v), m + 2: (u, b)})
            for box in live_boxes(part):
                a, b = corners[box.id]
                corner_a, corner = part.corners(box)
                assert corner_a == box.a
                assert [as_fraction(p) for p in vertex_fractions(box.a)] == a
                assert [as_fraction(p) for p in vertex_fractions(corner)] == b
                assert all(grid_fraction(*p) == p for p in vertex_fractions(corner))
                real = vertex_real(corner, part.lower, part.edge)
                assert list(map(float.hex, box.b_real)) == list(map(float.hex, real))


def test_trisect_children_carry_their_bound():
    # no caller finishes a box: trisection alone sets F and indexes it
    rng = np.random.default_rng(12)
    prob = wavy_problem(2)
    part = Partition(prob)
    for _ in range(80):
        children = trisect_views(part, int(rng.choice(box_ids(part))))[:3]
        for child in children:
            F, _ = root_characterize(part.vertex_db[child.a], child.a_real, child.b_real)
            assert child.F == F
            assert child.d == half_diag_sq(children[0].a_real, children[0].b_real)
            least = min(b.F for b in live_boxes(part) if b.s == child.s)
            entries = heap_min_entries(part.groups[child.s], part.boxes)
            assert all(box[0] == least for box in entries)
            if child.F == least:
                assert tuple(child) in entries


def first_split_table(method: str):
    """The box table of a 2-D run whose root box has just been split."""
    if method == "new":
        part = Partition(wavy_problem(2))
        part.trisect(1)
        return part
    state = _CenterState(wavy_problem(2), OptConfig(p_max=100), locally_biased=False)
    state.subdivide(1)
    return state.partition


@pytest.mark.parametrize("method", ["new", "direct"])
def test_filing_a_live_id_retires_the_box_it_replaces(method):
    # the id-keeping child of a split takes the split box's slot; here every
    # box of group q_inf is replaced in turn, the largest key first, by a box
    # of one new deeper group
    table = first_split_table(method)
    q, boxes = table.q_inf, table.boxes
    group, deeper = table.groups[q], len(table.groups)
    live = sorted(box for box in boxes[1:] if box[2] == q)
    assert len(live) >= 2 and live[0][0] < live[-1][0]
    for k in reversed(range(len(live))):  # live[k] is replaced, live[:k] are left
        old = live[k]
        new = (old[0], old[1], deeper) + old[3:]
        table.add_boxes(deeper, group.d / 9, (new,))
        assert boxes[old[1]] is new and all(box is not old for box in boxes)
        assert sorted(box for box in boxes[1:] if box[2] == q) == live[:k]
        assert sorted(heap_min_entries(group, boxes)) == [
            box for box in live[:k] if box[0] == live[0][0]]
        assert heap_min(group, boxes) is (live[0] if k else None)
        assert table.q_inf == min(box[2] for box in boxes[1:])
    assert table.q_inf > q


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), st.booleans()), max_size=40),
       st.integers(0, 39))
def test_heap_min_entries_reads_tied_minima_in_place(entries, popped):
    # few keys, so ties are many and dead entries tie the minimum; a dead
    # entry's slot holds an equal tuple that is another object
    heap, boxes = [], [None]
    for box_id, (key, live) in enumerate(entries, 1):
        entry = (key, box_id)
        heapq.heappush(heap, entry)
        boxes.append(entry if live else (key, box_id))
    for _ in range(min(popped, len(heap))):  # a heap that pops left behind
        heapq.heappop(heap)
    live = sorted(entry for entry in heap if boxes[entry[1]] is entry)
    expected = [entry for entry in live if entry[0] == live[0][0]] if live else []
    group = Group(0.5, heap)
    out = heap_min_entries(group, boxes)
    # the least live entry first, the other ties in heap order
    assert sorted(out) == expected and out[:1] == expected[:1]
    assert heap_min(group, boxes) is (expected[0] if expected else None)
    # a second read walks the heap the first one left and finds the same
    assert heap_min_entries(group, boxes) == out
    assert all(boxes[entry[1]] is entry for entry in out)
    assert sorted(entry for entry in heap if boxes[entry[1]] is entry) == live
    assert all(heap[(p - 1) // 2] <= heap[p] for p in range(1, len(heap)))
    if heap:
        assert boxes[heap[0][1]] is heap[0]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("make", [wavy_problem, flat_problem], ids=["wavy", "flat"])
def test_group_minima_match_a_scan(dim, make):
    # every group's minima are the live boxes with that s tied at the
    # minimal F, by id; the flat problem ties every F, so ties join and
    # leave the minima too
    rng = np.random.default_rng(dim)
    prob = make(dim)
    part = Partition(prob)
    for _ in range(150):
        part.trisect(int(rng.choice(box_ids(part))))
        by_s = {}
        for box in live_boxes(part):
            by_s.setdefault(box.s, []).append(tuple(box))  # sorts by (F, id)
        for s, group in enumerate(part.groups):
            entries = sorted(by_s.get(s, []))
            expected = [e for e in entries if e[0] == entries[0][0]]
            out = heap_min_entries(group, part.boxes)
            assert sorted(out) == expected, s
            top = heap_min(group, part.boxes)
            assert top is (out[0] if expected else None), s
            if expected:  # DIRECT-l's level representative: the least live (F, id)
                assert top == min(by_s[s]) and part.boxes[top[1]] is top, s
        largest = max(2.0 * box.d for box in live_boxes(part))
        assert part.max_diagonal_sq() == pytest.approx(largest, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lower, upper, config, size", [
    ([-1e200], [1e200], OptConfig(p_max=50), "wide"),  # the side's square overflows
    ([0.0, 0.0], [1.2e154, 1.2e154], OptConfig(p_max=1000, diagonal=0.01), "wide"),  # the sum does
    ([0.0], [1e-300], OptConfig(p_max=50, diagonal=0.01), "narrow"),  # d underflows to 0
    ([0.0], [1e-160], OptConfig(p_max=50), "narrow"),  # d is subnormal
], ids=["side", "sum", "narrow", "subnormal"])
def test_a_domain_too_wide_for_d_is_named(lower, upper, config, size):
    # the root's d bounds every box's, so the partition checks it once, and
    # a root d that is not a positive normal float is named too; the
    # baselines measure boxes in normalized coordinates and still run
    dim = len(lower)
    prob = Problem("big", dim, lower, upper, lambda x: 0.0, lambda x: np.zeros(dim))
    with pytest.raises(ValueError, match=f"^problem big: the domain is too {size}, "):
        run(prob, config)
    for method in (direct_run, directl_run):
        assert method(prob, config).trials == config.p_max


def test_get_or_eval_is_idempotent():
    prob, audit = with_audit(wavy_problem(2))
    part = Partition(prob)
    assert audit.f_calls == 1 and len(part.vertex_db) == 1
    v = make_vertex((1, 1), (2, 1))
    x = vertex_real(v, part.lower, part.edge)
    rec1 = part.get_or_eval(v, x)
    rec2 = part.get_or_eval(v, x)
    assert rec1 is rec2
    assert audit.f_calls == 2 and len(part.vertex_db) == 2


def test_new_trial_point_can_land_on_existing_vertex():
    # after splitting the square and both outer children, splitting the middle
    # child wants u = (2/3, 2/3), already evaluated: no new evaluation
    prob, audit = with_audit(wavy_problem(2))
    part = Partition(prob)
    part.trisect(1)
    part.trisect(2)
    part.trisect(3)
    calls_before = audit.f_calls
    *_, new_rec = part.trisect(1)
    assert new_rec is None
    assert audit.f_calls == calls_before


@pytest.mark.parametrize("start", ["a", "b"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("make", [wavy_problem, flat_problem], ids=["wavy", "flat"])
def test_every_box_holds_the_database_record_of_its_trial_vertex(make, dim, start):
    # the database keeps one record per vertex and every live box holds that
    # very object, whose point is the vertex's real coordinates bit for bit;
    # every trial evaluates the partition's own problem
    rng = np.random.default_rng(40 + dim)
    prob, audit = with_audit(make(dim))
    part = Partition(prob, start_vertex=start)
    for _ in range(120):
        part.trisect(int(rng.choice(box_ids(part))))
        for box in part.boxes[1:]:
            assert box[3] is part.vertex_db[box[3][2]], box[1]
    assert part.problem is prob and audit.f_calls == len(part.vertex_db)
    for v, rec in part.vertex_db.items():
        assert rec[2] is v
        expected = vertex_real(v, part.lower, part.edge)
        assert list(map(float.hex, rec[3])) == list(map(float.hex, expected))


def test_volume_conservation_random_runs():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        prob = flat_problem(dim)
        part = Partition(prob)
        for _ in range(60):
            box_id = int(rng.choice(box_ids(part)))
            part.trisect(box_id)
        volumes = [volume(part, b) for b in live_boxes(part)]
        top = max(e for _, e in volumes)
        assert sum(num * pow3(top - e) for num, e in volumes) == pow3(top)


def test_box_d_adds_the_squares_left_to_right():
    # the last bit of d steers selection, so it must not depend on how the
    # interpreter's sum() adds floats (compensated from Python 3.12 on)
    rng = np.random.default_rng(12)
    for dim in (1, 2, 3, 4, 5):
        lower = rng.uniform(-3.0, 0.0, size=dim)
        upper = lower + rng.uniform(0.1, 5.0, size=dim)
        prob = dataclasses.replace(flat_problem(dim), lower=tuple(lower.tolist()),
                                   upper=tuple(upper.tolist()))
        part = Partition(prob)
        boxes = [Box._make(part.boxes[1])]
        for _ in range(80):
            # the three children share the d of the middle one's corners
            middle, low, high, _ = trisect_views(part, int(rng.choice(box_ids(part))))
            assert low.d == high.d == middle.d
            boxes.append(middle)
        for box in boxes:
            squares = ((br - ar) ** 2 for ar, br in zip(box.a_real, box.b_real))
            assert box.d == 0.5 * add_left_to_right(squares)


def test_group_diagonals_follow_group_index():
    # s = q*N + r means r sides of 3^-(q+1) and N-r sides of 3^-q
    rng = np.random.default_rng(4)
    dim = 2
    prob = flat_problem(dim)
    part = Partition(prob)
    for _ in range(120):
        part.trisect(int(rng.choice(box_ids(part))))
    for box in live_boxes(part):
        q, r = divmod(box.s, dim)
        expect = r * 9.0 ** -(q + 1) + (dim - r) * 9.0 ** -q
        assert abs(diagonal_sq(box) - expect) < 1e-12
        assert abs(2.0 * part.groups[box.s].d - expect) < 1e-12


def test_vertex_sharing_and_eval_savings():
    rng = np.random.default_rng(5)
    prob, audit = with_audit(wavy_problem(2))
    part = Partition(prob)
    for _ in range(150):
        part.trisect(int(rng.choice(box_ids(part))))
    assert len(part.vertex_db) < part.m
    assert len(part.vertex_db) == audit.f_calls == audit.grad_calls
    sharing = Counter(box.a for box in live_boxes(part)).values()
    assert max(sharing) >= 3
    assert max(sharing) <= 2**2  # a vertex serves at most one box per orthant
    assert len(part.vertex_db) <= part.m + 1


def test_trial_indices_are_contiguous():
    # every trial is one trace row, numbered by the trial count, and the
    # reported point is the first one that reached the record value
    hard = generate(problem_class(2, "hard", seed=0, count=20), 1)
    for prob, p_max in ((wavy_problem(2), 80), (hard, 600)):
        for method in (run, direct_run, directl_run):
            report = method(prob, OptConfig(p_max=p_max, keep_trace=True))
            assert report.trials == len(report.trace) == p_max
            assert [row[0] for row in report.trace] == list(range(1, report.trials + 1))
            first = next(row for row in report.trace if row[2] == report.f_min)
            assert report.x_min is first[1]


def test_group_index_bounds_hold():
    rng = np.random.default_rng(7)
    prob = flat_problem(3)
    part = Partition(prob)
    for _ in range(100):
        part.trisect(int(rng.choice(box_ids(part))))
        assert part.q_inf == min(box.s for box in live_boxes(part))
        assert part.q_0 == max(box.s for box in live_boxes(part))


def test_identical_sequences_give_identical_partitions():
    def build():
        rng = np.random.default_rng(8)
        prob = wavy_problem(2)
        part = Partition(prob)
        for _ in range(100):
            part.trisect(int(rng.choice(box_ids(part))))
        return part.snapshot_lines()

    assert build() == build()


def test_start_vertex_b_mirrors_scheme():
    prob = wavy_problem(2)
    part = Partition(prob, start_vertex="b")
    assert list(part.vertex_db) == [make_vertex(1, 1)]  # the only trial
    assert Box._make(part.boxes[1]).a == make_vertex(1, 1)
    assert Box._make(part.boxes[1]).orient == 0b11  # b lies below a on every axis
    assert b_corner(part, part.boxes[1]) == make_vertex(0, 0)


def test_vertex_real_coordinates_scale_to_domain():
    v = make_vertex((2, 1), (1, 1))
    assert vertex_real(v, (0.0, 0.0), (1.0, 1.0)) == (2.0 / 3.0, 1.0 / 3.0)
    assert vertex_real(v, (-1.0, 2.0), (2.0, 4.0)) == (-1.0 + 2.0 * 2.0 / 3.0, 2.0 + 4.0 / 3.0)


def test_snapshot_lines_format():
    prob = flat_problem(2)
    part = Partition(prob)
    part.trisect(1)
    lines = part.snapshot_lines()
    assert lines[0] == "1 1 2/3,0/1 1/3,1/1"
    assert lines[1] == "2 1 0/1,0/1 1/3,1/1"
    assert lines[2] == "3 1 2/3,0/1 1/1,1/1"


def run_keeping_partition(monkeypatch, prob, config):
    """``run`` that also returns the partition it searched."""
    parts = []

    class KeptPartition(Partition):
        def __init__(self, *args):
            super().__init__(*args)
            parts.append(self)

    monkeypatch.setattr(optimizer, "Partition", KeptPartition)
    report = run(prob, config)
    return report, parts[0]


def tracked_reachable(root, outside=None) -> list:
    """The objects the collector tracks and walks from ``root``, classes and
    the object ``outside`` (with what only it reaches) excepted."""
    seen, stack, found = {id(root), id(outside)}, [root], [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
                found.append(ref)
    return found


@pytest.mark.parametrize("dim,difficulty,seed,p_max", [(4, "simple", 11, 1000), (2, "hard", 0, 2000)])
def test_partition_geometry_is_not_tracked_by_the_collector(monkeypatch, dim, difficulty, seed, p_max):
    # boxes, records, vertices, real corners and heap entries are plain
    # tuples of ints and floats, so a collection untracks them and later
    # ones skip them; what stays tracked is a fixed set of containers and a
    # few objects per group, however many boxes and trials the run made.
    # The problem is the caller's, one object for the whole run (its
    # functions reach their modules), so the walk stops there
    prob = generate(problem_class(dim, difficulty, seed=seed, count=1), 1)
    report, part = run_keeping_partition(monkeypatch, prob, OptConfig(p_max=p_max))
    assert report.trials == p_max and part.problem is prob
    gc.collect()
    gc.collect()
    walked = tracked_reachable(part, outside=prob)
    assert len(walked) <= 20 + 5 * len(part.groups), Counter(type(o).__name__ for o in walked)
    # a box and b_real; the record and its tuples per vertex
    per_box = [t for box in part.boxes[1:] for t in (box, box[5])]
    per_vertex = [t for v, rec in part.vertex_db.items() for t in (v, rec, rec[1], rec[3])]
    assert part.m > 3 * p_max and len(per_vertex) == 4 * p_max
    tracked = {id(o) for o in gc.get_objects()}
    assert not any(id(t) in tracked for t in per_box + per_vertex)
    assert not any(map(gc.is_tracked, per_box + per_vertex))
    for group in part.groups:
        assert not any(map(gc.is_tracked, group.heap))


@pytest.mark.parametrize("start", ["a", "b"])
@pytest.mark.parametrize("make", [
    lambda: generate(problem_class(2, "hard", seed=0, count=1), 1),
    lambda: generate(problem_class(4, "simple", seed=11, count=1), 1),
    lambda: quadratic((0.1, 1.2, 2.3), lower=(-1.0, 0.5, 2.0), upper=(0.3, 2.0, 2.7)),
], ids=["hard2d", "simple4d", "unequal-edges"])
def test_each_trial_evaluates_the_real_point_of_its_vertex(monkeypatch, make, start):
    # the point handed to f is built once per trial, by trisect; it must be
    # the vertex's real coordinates bit for bit
    prob = make()
    seen = []

    def f(x):
        seen.append(tuple(x.tolist()))
        return prob.f(x)

    recording = dataclasses.replace(prob, f=f)
    report, part = run_keeping_partition(
        monkeypatch, recording, OptConfig(p_max=400, start_vertex=start))
    expected = [vertex_real(v, part.lower, part.edge) for v in part.vertex_db]
    assert len(seen) == report.trials == len(expected)
    assert [tuple(map(float.hex, x)) for x in seen] == [tuple(map(float.hex, x)) for x in expected]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("make", [wavy_problem, flat_problem], ids=["wavy", "flat"])
def test_box_ids_stay_dense_and_minima_live(monkeypatch, dim, make):
    # a heap entry is live exactly when it is boxes[id]; no stale entry may
    # ever come back as a group minimum, in random trisections or in a run
    returned = []

    def checked(group, boxes):
        out = heap_min_entries(group, boxes)
        assert bool(out) == any(boxes[entry[1]] is entry for entry in group.heap)
        assert all(boxes[entry[1]] is entry for entry in out)
        returned.append(len(out))
        return out

    monkeypatch.setattr(selection, "heap_min_entries", checked)
    rng = np.random.default_rng(30 + dim)
    prob = make(dim)
    part = Partition(prob)
    for _ in range(120):
        part.trisect(int(rng.choice(box_ids(part))))
        check_dense_live_layout(part)
        selection.group_representatives(part, part.q_inf, part.q_0)
    report, part = run_keeping_partition(monkeypatch, prob, OptConfig(p_max=600))
    check_dense_live_layout(part)
    assert report.boxes == part.m and len(returned) > 200


def test_partition_holds_at_most_350_bytes_per_box(monkeypatch):
    # what tracemalloc still counts when run returns, with the partition kept
    # alive (the method of ROADMAP's memory table): 306 B per box here
    # under CPython 3.11, where a grid tuple for corner b held 358 B and a
    # dict of boxes with per-group id sets and (F, id) heap tuples 592 B;
    # the bound leaves 14% for other interpreters
    prob = generate(problem_class(4, "simple", seed=11, count=1), 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report, part = run_keeping_partition(monkeypatch, prob, OptConfig(p_max=1000))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.boxes == part.m == 8483
    assert held / report.boxes <= 350, held / report.boxes
