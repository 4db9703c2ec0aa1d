"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
import time
from collections import Counter

import numpy as np

from lipgrad import baselines, bench, optimizer, problems, selection
from lipgrad.geometry import Partition, pow3
from lipgrad.problems import analytic_suite, generate, problem_class
from lipgrad.stopping import OptConfig, StopTarget
from util import (
    box_ids,
    diagonal_sq,
    fd_check,
    flat_problem,
    live_boxes,
    make_box,
    nondominated_oracle,
    random_box_corners,
    random_dot_set,
    random_quadratic,
    root_characterize,
    volume,
    wavy_problem,
    with_audit,
)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_minorant_validity():
    start = time.time()
    rng = np.random.default_rng(101)
    dims = [1] * 17 + [2] * 17 + [3] * 16
    checked = 0
    for dim in dims:
        prob, f_rows = random_quadratic(rng, dim)
        K = prob.known_K
        for _ in range(100):
            a, b = random_box_corners(rng, dim)
            box = make_box(a, b)
            x_a = np.asarray(box.a_real)
            rec = (prob.f(x_a), tuple(prob.grad(x_a)))
            axes = [
                np.linspace(min(p, q), max(p, q), 50)
                for p, q in zip(box.a_real, box.b_real)
            ]
            grid = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
            grid_min = float(np.min(f_rows(grid)))
            F, _ = root_characterize(rec, box.a_real, box.b_real)
            for khat in (K, 2 * K, 10 * K):
                assert F - khat * box.d <= grid_min + 1e-9
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"minorant sweep took {elapsed:.1f}s"
    _report(1, f"{checked} bound checks on 50 quadratics in {elapsed:.1f}s")


def test_criterion_02_trisection_exactness():
    rng = np.random.default_rng(202)
    sequences = 10_000
    for _ in range(sequences):
        dim = int(rng.integers(1, 6))
        prob = flat_problem(dim)
        part = Partition(prob)
        length = int(rng.integers(5, 31))
        for _ in range(length):
            candidates = [box_id for _, box_id, s, *_ in part.boxes[1:] if s < 30]
            box_id = candidates[rng.integers(len(candidates))]  # as rng.choice draws
            parent_num, parent_e = volume(part, part.boxes[box_id])
            children = part.trisect(box_id)[:3]
            for child in children:
                num, e = volume(part, child)  # num / 3^e == parent / 3
                assert num * pow3(parent_e + 1) == parent_num * pow3(e)
        by_group: dict[int, list[float]] = {}
        for box in part.boxes[1:]:
            by_group.setdefault(box[2], []).append(diagonal_sq(box))  # box[2] is s
        for diags in by_group.values():
            assert max(diags) - min(diags) <= 1e-12
        volumes = [volume(part, b) for b in part.boxes[1:]]
        top = max(e for _, e in volumes)  # the volumes add up to 1 = 3^top / 3^top
        assert sum(num * pow3(top - e) for num, e in volumes) == pow3(top)
    _report(2, f"{sequences} random subdivision sequences, volumes exact")


def test_criterion_03_vertex_reuse():
    rng = np.random.default_rng(303)
    for run_index in range(100):
        prob, audit = with_audit(wavy_problem(2))
        part = Partition(prob)
        sequence = []
        for _ in range(200):
            box_id = int(rng.choice(box_ids(part)))
            sequence.append(box_id)
            part.trisect(box_id)
        assert len(part.vertex_db) < part.m
        assert len(part.vertex_db) == audit.f_calls
        # some vertex is the trial vertex of three or more live boxes
        assert max(Counter(box.a for box in live_boxes(part)).values()) >= 3
        # replayed over a copy of the database, nothing is evaluated again
        # after the start corner, which the partition evaluates as it is made
        replay_prob, replay_audit = with_audit(wavy_problem(2))
        replay = Partition(replay_prob)
        replay.vertex_db.update(part.vertex_db)
        for box_id in sequence:
            replay.trisect(box_id)
        assert replay_audit.f_calls == 1
        assert replay.snapshot_lines() == part.snapshot_lines()
    _report(3, "100 runs of 200 subdivisions reuse vertices, replays re-evaluate nothing")


def test_criterion_04_hull_oracle_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        dots = random_dot_set(rng)
        hull = selection.nondominated(dots)
        assert set(hull.selected) == nondominated_oracle(dots)
    _report(4, "1000 random dot sets match the pairwise-feasibility oracle exactly")


def test_criterion_05_everywhere_dense_convergence():
    cls = problem_class(2, "simple", seed=11, count=5)
    for index in range(1, 6):
        prob = generate(cls, index)
        report = optimizer.run(prob, OptConfig(p_max=20_000))
        diags = [h[2] for h in report.history]
        assert all(a >= b for a, b in zip(diags, diags[1:]))
        ratio = math.sqrt(diags[-1] / diags[0])
        assert ratio < 0.05, f"problem {index}: diagonal ratio {ratio:.4f}"
    _report(5, "5 problems at budget 20000 shrink the largest diagonal below 5%")


def test_criterion_06_gradient_fidelity():
    checked = 0
    for prob in analytic_suite():
        assert fd_check(prob, samples=100) < 1e-5, prob.name
        checked += 1
    cls = problem_class(2, "simple", seed=21, count=10)
    for index in range(1, 11):
        assert fd_check(generate(cls, index), samples=100) < 1e-5
        checked += 1
    cls_hard = problem_class(3, "hard", seed=22, count=10)
    for index in range(1, 11):
        assert fd_check(generate(cls_hard, index), samples=100) < 1e-5
        checked += 1
    _report(6, f"{checked} problems match central differences below 1e-5")


def test_criterion_07_comparative_performance():
    start = time.time()
    cls = problem_class(2, "hard", seed=0, count=20)
    report = bench.run_class(
        ["new", "direct", "directl"], cls, delta=1e-4, p_max=100_000
    )
    c3_new = report.summaries["new"]["c3"]
    c3_direct = report.summaries["direct"]["c3"]
    c3_directl = report.summaries["directl"]["c3"]
    assert c3_new <= c3_direct / 1.2, (c3_new, c3_direct)
    assert c3_new <= c3_directl / 1.2, (c3_new, c3_directl)
    for other, (p, q) in report.c4.items():
        assert q > p, f"{other}: C4 {p}:{q}"
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(
        7,
        f"C3 {c3_new:.1f} vs direct {c3_direct:.1f} / directl {c3_directl:.1f}, "
        f"C4 {report.c4['direct']} and {report.c4['directl']} in {elapsed:.1f}s",
    )


def test_criterion_08_baseline_sanity():
    prob, audit = with_audit(problems.quadratic([0.3, 0.7], name="quad2d"))
    target = StopTarget((0.3, 0.7), 1e-6)
    for runner in (baselines.direct_run, baselines.directl_run):
        report = runner(prob, OptConfig(target=target, p_max=10_000))
        assert report.stop_reason == "target_found"
        assert report.trials <= 10_000
    assert audit.grad_calls == 0
    _report(8, "both baselines locate the quadratic minimum without touching gradients")


def test_criterion_09_criteria_arithmetic():
    assert bench.criterion_C1([10, 50, 20], [True] * 3) == (50, 2, 0)
    assert bench.criterion_C1([7, 7, 7], [True] * 3) == (7, 1, 0)
    assert bench.criterion_C3([7] * 100, [True] * 100, 10**6) == (7.0, False)
    assert bench.criterion_C3([10, 20, 30], [True] * 3, 100) == (20.0, False)
    assert bench.criterion_C3([1000] + [0] * 99, [False] + [True] * 99, 1000) == (10.0, True)
    assert bench.criterion_C4([5, 5], [7, 3]) == (1, 1)
    assert bench.criterion_C4([4, 4], [4, 4]) == (0, 0)
    assert bench.criterion_C4([1, 2], [5, 6]) == (0, 2)
    _report(9, "C1/C3/C4 reproduce the hand-computed synthetic values")


def test_criterion_10_bench_determinism(tmp_path):
    cls = problem_class(2, "simple", seed=3, count=6)
    outs = {}
    for workers in (1, 4):
        out_dir = tmp_path / f"w{workers}"
        bench.run_class(
            ["new", "direct", "directl"], cls, delta=1e-4, p_max=5000,
            workers=workers, out_dir=out_dir,
        )
        outs[workers] = {
            name: (out_dir / name).read_bytes()
            for name in ("report.txt", "report.csv", "report.json")
        }
    assert outs[1] == outs[4]
    _report(10, "reports are byte-identical for workers 1 and 4")
