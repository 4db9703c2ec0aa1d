import collections
import concurrent.futures
import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lipgrad import bench, cli
from lipgrad.bench import (
    criterion_C1,
    criterion_C3,
    criterion_C4,
    emit_diagram,
    fifty_percent,
    format_c1,
    read_trace,
    run_class,
    run_method,
    write_trace,
)
from lipgrad.optimizer import run
from lipgrad.problems import generate, problem_class, quadratic, write_manifest
from lipgrad.stopping import OptConfig, StopTarget, record_trial, target_window
from util import target_reached, wavy_problem, with_audit


def test_target_reached_examples():
    target = StopTarget((0.3, 0.7), 1e-4)
    bounds = ((0.0, 0.0), (1.0, 1.0))
    assert target_reached((0.305, 0.695), target, *bounds)
    assert not target_reached((0.32, 0.7), target, *bounds)
    assert target_reached((0.3, 0.7), StopTarget((0.3, 0.7), 1e-12), *bounds)


def test_target_tolerance_scales_with_domain_edges():
    target = StopTarget((0.0, 0.0), 1e-4)
    lower, upper = (-10.0, -1.0), (10.0, 1.0)
    assert target_reached((0.15, 0.015), target, lower, upper)
    assert not target_reached((0.25, 0.0), target, lower, upper)


def window_stops(window, x) -> bool:
    """Whether booking a trial at x on a run with this target window stops it."""
    state = SimpleNamespace(target_window=window, trials=0, f_min=0.0, phase="explore",
                            trace=None, stop_reason=None)
    record_trial(state, x, 1.0)
    return state.stop_reason == "target_found"


def edge_points(si, half_width):
    """Per side of x*: the last float inside the window and the first outside."""
    out = []
    for toward in (math.inf, -math.inf):
        x = si + half_width if toward > 0 else si - half_width
        while abs(x - si) > half_width:
            x = math.nextafter(x, si)
        while abs(math.nextafter(x, toward) - si) <= half_width:
            x = math.nextafter(x, toward)
        out.append((x, True))
        out.append((math.nextafter(x, toward), False))
    return out


@pytest.mark.parametrize("lower, upper", [
    ((0.0, 0.0), (1.0, 1.0)),
    ((-10.0, -1.0), (10.0, 1.0)),
    ((-1.0, 0.5, 2.0), (0.3, 2.0, 2.7)),
], ids=["unit", "wide", "unequal-3d"])
@pytest.mark.parametrize("delta", [1e-4, 0.3, 1.0])
def test_run_target_window_decides_as_target_reached(lower, upper, delta):
    # the window made once per run must stop a run exactly where
    # target_reached (and the per-trial formula it replaced) says the point
    # is within delta^(1/N) of x*, edge points included
    rng = np.random.default_rng(5)
    x_star = tuple(rng.uniform(lower, upper).tolist())
    target = StopTarget(x_star, delta)
    window = target_window(target, lower, upper)
    tol = delta ** (1.0 / len(x_star))

    def oracle(x):
        return all(abs(xi - si) <= tol * (hi - lo)
                   for xi, si, lo, hi in zip(x, x_star, lower, upper))

    points = [tuple(rng.uniform(lower, upper).tolist()) for _ in range(200)]
    points += [tuple(x_star[i] + rng.uniform(-2.0, 2.0) * tol * (upper[i] - lower[i])
                     for i in range(len(x_star))) for _ in range(200)]
    for i, (si, half_width) in enumerate(window):
        for xi, inside in edge_points(si, half_width):
            x = x_star[:i] + (xi,) + x_star[i + 1:]
            assert target_reached(x, target, lower, upper) is inside
            points.append(x)
    for x in points:
        assert window_stops(window, x) is target_reached(x, target, lower, upper) is oracle(x)
    assert target_window(None, lower, upper) is None


def test_criterion_c1_examples():
    assert criterion_C1([10, 50, 20], [True] * 3) == (50, 2, 0)
    value = criterion_C1([7, 7, 7], [True] * 3)
    assert value == (7, 1, 0)  # ties go to the first index
    flagged = criterion_C1([10, 1000, 1000, 20, 1000], [True, False, False, True, False])
    assert flagged == (1000, 2, 3)
    assert format_c1(flagged) == "> 1000 (3)"
    assert format_c1((50, 2, 0)) == "50 (s=2)"


def test_criterion_c3_examples():
    assert criterion_C3([7] * 100, [True] * 100, 10**6) == (7.0, False)
    assert criterion_C3([10, 20, 30], [True] * 3, 100) == (20.0, False)
    trials = [1000] + [0] * 99
    solved = [False] + [True] * 99
    assert criterion_C3(trials, solved, 1000) == (10.0, True)


def test_criterion_c4_examples():
    assert criterion_C4([5, 5], [7, 3]) == (1, 1)
    assert criterion_C4([4, 4, 4], [4, 4, 4]) == (0, 0)
    assert criterion_C4([1, 2, 3], [5, 6, 7]) == (0, 3)
    with pytest.raises(ValueError):
        criterion_C4([1], [1, 2])


def test_fifty_percent_convention():
    assert fifty_percent([5]) == 5
    assert fifty_percent([1, 2, 3, 4]) == 2
    assert fifty_percent([9, 1, 5]) == 5
    rng = np.random.default_rng(0)
    for _ in range(50):
        trials = list(rng.integers(1, 1000, size=int(rng.integers(1, 40))))
        t = fifty_percent(trials)
        assert sum(1 for v in trials if v <= t) >= (len(trials) + 1) // 2
        assert t <= max(trials)


def test_ratio_marks_which_side_left_problems_unsolved():
    # an unsolved side's figure is its budget, a bound on its true figure
    assert bench._ratio(30.0, False, 10.0, False) == "3.00"
    assert bench._ratio(30.0, True, 10.0, False) == "> 3.00"
    assert bench._ratio(30.0, False, 10.0, True) == "< 3.00"
    assert bench._ratio(30.0, True, 10.0, True) == "~ 3.00"


def test_run_class_smoke(tmp_path):
    cls = problem_class(2, "simple", seed=7, count=4)
    report = run_class(["new", "direct"], cls, delta=1e-4, p_max=20_000,
                       out_dir=tmp_path)
    assert set(report.summaries) == {"new", "direct"}
    assert report.c4.keys() == {"direct"}
    for m, s in report.summaries.items():
        assert s["unsolved"] == 0
        assert s["c1"][0] >= s["fifty"]
    p, q = report.c4["direct"]
    assert p + q <= 4
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").read_text().startswith("index,method,")
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["methods"] == ["new", "direct"]


def test_run_class_single_method_has_no_c4():
    cls = problem_class(2, "simple", seed=7, count=2)
    report = run_class(["direct"], cls, delta=1e-4, p_max=10_000)
    assert report.c4 == {} and report.ratios == {}


def test_run_class_budget_one_marks_everything_unsolved():
    cls = problem_class(2, "simple", seed=7, count=3)
    report = run_class(["new"], cls, delta=1e-12, p_max=1)
    summary = report.summaries["new"]
    assert summary["unsolved"] == 3
    assert format_c1(tuple(summary["c1"])) == "> 1 (3)"
    assert summary["c3_lower_bound"]
    # no run was solved, so the 50% budget is a lower bound in the text;
    # report.json keeps the integer
    row = next(line for line in report.to_text().splitlines() if line.startswith("new "))
    assert row.split()[:3] == ["new", ">", "1"]
    assert summary["fifty"] == 1


def test_fifty_percent_is_marked_only_when_fewer_than_half_are_solved():
    # within 60 trials new solves two of the four problems and direct one:
    # half solved reads as the budget that solves them, fewer as a lower bound
    cls = problem_class(2, "simple", seed=7, count=4)
    report = run_class(["new", "direct"], cls, delta=1e-4, p_max=60)
    assert [report.summaries[m]["unsolved"] for m in ("new", "direct")] == [2, 3]
    rows = {line.split()[0]: line.split() for line in report.to_text().splitlines()[3:5]}
    assert rows["new"][1] == "40"
    assert rows["direct"][1:3] == [">", "60"]
    assert report.summaries["direct"]["fifty"] == 60


def test_run_class_rejects_unknown_method():
    cls = problem_class(2, "simple", seed=7, count=2)
    with pytest.raises(ValueError):
        run_class(["newton"], cls, delta=1e-4, p_max=10)
    with pytest.raises(ValueError):
        run_class([], cls, delta=1e-4, p_max=10)
    # a string is not a list of names, even when its letters are
    with pytest.raises(ValueError, match="methods"):
        run_class("new", cls, delta=1e-4, p_max=10)
    # workers is an int >= 1, never a bool or a float
    for workers in (0, -3, True, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="workers"):
            run_class(["new"], cls, delta=1e-4, p_max=10, workers=workers)


def test_run_class_checks_its_parameters_before_any_problem(monkeypatch, tmp_path):
    # a bad run parameter or out_dir fails before any problem is generated
    # and before a pool starts, not as "every problem of the class is invalid"
    def fail(*args, **kwargs):
        raise AssertionError("run_class went on past a bad argument")

    monkeypatch.setattr(bench.problems, "generate", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    cls = problem_class(2, "hard", seed=0, count=3)
    for bad, name in (({"delta": 2.0}, "delta"), ({"epsilon": -1.0}, "epsilon"),
                      ({"p_max": 0}, "p_max")):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            run_class(["new"], cls, **{"delta": 1e-2, "p_max": 100, "workers": 2, **bad})
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(OSError):
        run_class(["new"], cls, delta=1e-2, p_max=100, workers=2, out_dir=not_a_dir)


def test_run_class_rejects_a_repeated_method():
    # a repeat would run the method twice and print its rows twice
    cls = problem_class(2, "simple", seed=7, count=2)
    for methods in (["direct", "direct"], ["new", "direct", "new"]):
        with pytest.raises(ValueError, match=f"method '{methods[0]}' given twice"):
            run_class(methods, cls, delta=1e-4, p_max=10)


def test_run_class_pool_has_no_more_workers_than_problems(monkeypatch):
    # a fork pool starts every worker at its first submit, so asking for 64
    # workers on 3 problems must not start 64 processes; the fake pool maps
    # in-process and starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cls = problem_class(2, "hard", seed=0, count=3)
    report = run_class(["new"], cls, delta=1e-2, p_max=200, workers=64)
    assert sizes == [3]
    monkeypatch.undo()
    assert report.to_json() == run_class(["new"], cls, delta=1e-2, p_max=200).to_json()


def test_a_row_evaluates_each_point_once_across_its_methods(monkeypatch):
    # DIRECT-l samples many of DIRECT's box centers; the row hands each
    # distinct point to f once, while every method counts each trial it asks for
    calls = []  # per generated problem, f's calls per point
    generate = bench.problems.generate

    def counted(cls, index):
        problem, seen = generate(cls, index), collections.Counter()
        calls.append(seen)

        def f(x):
            seen[x.tobytes()] += 1
            return problem.f(x)

        return dataclasses.replace(problem, f=f)

    monkeypatch.setattr(bench.problems, "generate", counted)
    cls = problem_class(2, "hard", seed=0, count=3)
    report = run_class(("new", "direct", "directl"), cls, delta=1e-4, p_max=100_000)
    assert len(calls) == 3 and all(row["valid"] for row in report.rows)
    assert all(max(seen.values()) == 1 for seen in calls)
    trials = sum(r["trials"] for row in report.rows for r in row["results"].values())
    assert trials > sum(sum(seen.values()) for seen in calls)


def test_the_row_memo_returns_the_first_result_of_each_point_whatever_it_is():
    # f's raw return is memoized, None and 0.0 too: a repeated point reads it
    # back, the same object, without calling f again
    calls, results = collections.Counter(), {-1.0: None, 0.0: 0.0, 1.0: [1.0]}

    def f(x):
        calls[float(x[0])] += 1
        return results[float(x[0])]

    memo = bench._memo(f)
    for v in (-1.0, 0.0, 1.0) * 3:
        assert memo(np.array([v])) is results[v]
    assert calls == {-1.0: 1, 0.0: 1, 1.0: 1}


def test_a_rows_results_do_not_depend_on_method_order():
    # a method reading points an earlier method evaluated finds what it would
    # have computed itself
    cls = problem_class(2, "hard", seed=0, count=3)
    forward = run_class(("new", "direct", "directl"), cls, delta=1e-4, p_max=100_000)
    backward = run_class(("directl", "direct", "new"), cls, delta=1e-4, p_max=100_000)
    assert len(forward.rows) == len(backward.rows) == 3
    for a, b in zip(forward.rows, backward.rows):
        assert a["index"] == b["index"] and a["valid"] and b["valid"]
        for m in forward.methods:
            assert a["results"][m] == b["results"][m]


def test_harness_counts_match_method_evaluations():
    prob, audit = with_audit(wavy_problem(2))
    cfg = OptConfig(p_max=123)
    report = run_method("direct", prob, cfg)
    assert report.trials == audit.f_calls == 123
    prob2, audit2 = with_audit(wavy_problem(2))
    report2 = run_method("new", prob2, OptConfig(p_max=77))
    assert report2.trials == audit2.f_calls == 77


def test_trace_round_trip(tmp_path):
    prob = wavy_problem(2)
    report = run(prob, OptConfig(p_max=25, keep_trace=True))
    path = tmp_path / "run.trace"
    write_trace(report, prob, path)
    data = read_trace(path)
    assert data["lower"] == (0.0, 0.0) and data["upper"] == (1.0, 1.0)
    assert len(data["trials"]) == report.trials
    assert len(data["boxes"]) == report.boxes
    with pytest.raises(ValueError):
        write_trace(run(prob, OptConfig(p_max=5)), prob, path)
    # a truncated header or T line, a B corner that is no grid coordinate in
    # [0, 1] (no fraction, a numerator outside 0..3^k or a denominator that
    # is no power of 3), a header whose bounds differ in length or leave an
    # axis empty, a T point or B corner with the wrong number of
    # coordinates, a T line before the header or a second header, and an
    # infinite bound, a width beyond float range, a non-finite T point or
    # value or a T point off the domain names its line; an empty file has no
    # header
    lines = path.read_text().splitlines()
    t_at = next(i for i, line in enumerate(lines) if line.startswith("T "))
    b_at = next(i for i, line in enumerate(lines) if line.startswith("B "))
    for at, bad, tag in ((0, "# domain 0.0,0.0", "domain"), (t_at, "T 1 0.5,0.5 2.0", "T"),
                         (b_at, "B 1 0 0/1,0/1 1/0,1/1", "B"),
                         (b_at, "B 1 0 -1/3,0/1 5/3,1/2", "B"),
                         (b_at, "B 1 0 0/1,0/1 4/3,1/3", "B"),
                         (b_at, "B 1 0 0/1,0/1 1/3,1/2", "B"),
                         (0, "# domain 0.0,0.0 1.0", "domain"),
                         (0, "# domain 0.0,0.0 0.0,1.0", "domain"),
                         (t_at, "T 1 0.0 0.58 0.58 init", "T"),
                         (b_at, "B 1 4 4/9 5/9,5/9", "B"),
                         (0, lines[t_at], "T"),
                         (t_at, lines[0], "domain"),
                         (0, "# domain -inf,0.0 inf,1.0", "domain"),
                         (0, "# domain -1e308,0.0 1e308,1.0", "domain"),
                         (t_at, "T 1 nan,0.5 0.58 0.58 init", "T"),
                         (t_at, "T 1 0.5,0.5 0.58 inf init", "T"),
                         (t_at, "T 1 5.0,-3.0 0.58 0.58 init", "T")):
        path.write_text("\n".join(lines[:at] + [bad] + lines[at + 1:]) + "\n")
        with pytest.raises(ValueError, match=f"run.trace:{at + 1}: malformed {tag} line"):
            read_trace(path)
    path.write_text("")
    with pytest.raises(ValueError, match="run.trace: missing domain header"):
        read_trace(path)
    # lower + (upper - lower) rounds above upper here, where a run could sample
    # before the grid's edge was shortened: such a point is off the domain
    path.write_text("# domain -0.3,-0.3 0.1,0.1\n"
                    "T 1 0.10000000000000003,0.10000000000000003 0.5 0.5 init\n")
    with pytest.raises(ValueError, match="run.trace:2: malformed T line"):
        read_trace(path)


def test_partition_diagram(tmp_path):
    prob = wavy_problem(2)
    report = run(prob, OptConfig(p_max=12, keep_trace=True))
    trace_path = tmp_path / "run.trace"
    write_trace(report, prob, trace_path)
    out = emit_diagram(trace_path, tmp_path / "fig.svg")
    svg = out.read_text()
    root = ET.fromstring(svg)  # well-formed XML
    assert svg.count("<rect") == report.boxes
    assert svg.count("<circle") == report.trials
    assert svg.count("<text") >= report.trials


@pytest.mark.parametrize("make", [
    lambda: generate(problem_class(2, "hard", seed=3, count=2), 1),
    lambda: dataclasses.replace(wavy_problem(2), lower=np.full(2, -1.0), upper=np.ones(2)),
], ids=["generated", "numpy-bounds"])
def test_partition_diagram_of_a_problem_with_numpy_bounds(tmp_path, make):
    # bounds given as numpy floats are stored as floats, so the trace's
    # domain header reads back
    prob = make()
    report = run(prob, OptConfig(p_max=50, keep_trace=True))
    trace_path = tmp_path / "run.trace"
    write_trace(report, prob, trace_path)
    data = read_trace(trace_path)
    assert data["lower"] == (-1.0, -1.0) and data["upper"] == (1.0, 1.0)
    out = emit_diagram(trace_path, tmp_path / "fig.svg")
    assert out.read_text().count("<rect") == report.boxes


def test_partition_diagram_requires_two_dimensions(tmp_path):
    prob = wavy_problem(3)
    report = run(prob, OptConfig(p_max=8, keep_trace=True))
    trace_path = tmp_path / "run3d.trace"
    write_trace(report, prob, trace_path)
    with pytest.raises(ValueError):
        emit_diagram(trace_path, tmp_path / "fig.svg")


def test_empty_trace_yields_axes_only(tmp_path):
    trace_path = tmp_path / "empty.trace"
    trace_path.write_text("# domain 0.0,0.0 1.0,1.0\n")
    out = emit_diagram(trace_path, tmp_path / "empty.svg")
    svg = out.read_text()
    assert svg.count("<line") == 2 and "<rect" not in svg


def test_cli_solve_and_diagram(tmp_path, capsys):
    trace = tmp_path / "quad.trace"
    code = cli.main([
        "solve", "--problem", "quad2d", "--method", "new",
        "--delta", "1e-4", "--pmax", "10000", "--trace", str(trace),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "stop_reason: target_found" in out
    assert trace.exists()
    assert cli.main(["diagram", "--trace", str(trace), "--kind", "partition2d",
                     "--out", str(tmp_path / "fig.svg")]) == 0
    assert (tmp_path / "fig.svg").exists()
    # partition2d is the one kind, so --kind may be left out
    assert cli.main(["diagram", "--trace", str(trace), "--out", str(tmp_path / "default.svg")]) == 0
    assert (tmp_path / "default.svg").read_bytes() == (tmp_path / "fig.svg").read_bytes()
    assert cli.main(["diagram", "--trace", str(trace), "--kind", "hull",
                     "--out", str(tmp_path / "hull.svg")]) == 1
    assert "error: " in capsys.readouterr().err and not (tmp_path / "hull.svg").exists()


def test_cli_bench_descriptor_and_manifest(tmp_path, capsys):
    code = cli.main([
        "bench", "--class", "simple:2:3", "--seed", "5", "--methods", "new,direct",
        "--delta", "1e-4", "--pmax", "5000", "--out", str(tmp_path / "res"),
    ])
    assert code == 0
    assert "C4 direct:new" in capsys.readouterr().out
    manifest = tmp_path / "cls.json"
    write_manifest(problem_class(2, "simple", seed=5, count=2), manifest)
    code = cli.main([
        "bench", "--class", str(manifest), "--methods", "new",
        "--delta", "1e-4", "--pmax", "5000",
    ])
    assert code == 0
    assert "seed=5" in capsys.readouterr().out
    # the manifest fixes the seed: another one is a usage error, not ignored
    code = cli.main([
        "bench", "--class", str(manifest), "--seed", "7", "--methods", "new",
        "--delta", "1e-4", "--pmax", "5000",
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "manifest" in err and "fixes the seed" in err


def test_methods_are_named_in_one_place(tmp_path, capsys):
    # run_method, check_methods and the CLI all read bench.METHODS
    assert list(bench.METHODS) == ["new", "direct", "directl"]
    prob = wavy_problem(2)
    for name in bench.METHODS:
        assert run_method(name, prob, OptConfig(p_max=40)).method == name
    expected = r"^unknown method 'nope' \(expected new, direct or directl\)$"
    with pytest.raises(ValueError, match=expected):
        run_method("nope", prob, OptConfig(p_max=40))
    with pytest.raises(ValueError, match="^unknown method 'nope'$"):
        bench.check_methods(["new", "nope"])
    capsys.readouterr()
    assert cli.main(["solve", "--problem", "quad2d", "--method", "nope"]) == 1
    err = capsys.readouterr().err
    assert "nope" in err and all(name in err for name in bench.METHODS)
    out = tmp_path / "res"
    assert cli.main(["bench", "--class", "hard:2:2", "--delta", "1e-2", "--pmax", "100",
                     "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["methods"] == list(bench.METHODS)


def test_cli_solve_manifest_problem(tmp_path, capsys):
    manifest = tmp_path / "cls.json"
    write_manifest(problem_class(2, "simple", seed=5, count=3), manifest)
    code = cli.main(["solve", "--problem", f"{manifest}#2", "--delta", "1e-4"])
    assert code == 0
    assert "trials:" in capsys.readouterr().out


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    manifest = tmp_path / "cls.json"
    write_manifest(problem_class(2, "simple", seed=5, count=3), manifest)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    bad_knobs = []
    for key, value in (("radius_range", 5), ("dim", "2"), ("count", 2.5)):
        data = json.loads(manifest.read_text())
        data[key] = value
        bad_knobs.append(tmp_path / f"bad-{key}.json")
        bad_knobs[-1].write_text(json.dumps(data))
    not_json = tmp_path / "not-json.json"
    not_json.write_text("{")
    bad_manifests = (*bad_knobs, not_json)
    # a trace that is missing, malformed or not two-dimensional
    malformed = tmp_path / "malformed.trace"
    malformed.write_text("# domain 0.0,0.0\n")
    cube = tmp_path / "cube.trace"
    cube.write_text("# domain 0.0,0.0,0.0 1.0,1.0,1.0\n")
    traces = (tmp_path / "no.trace", malformed, cube)
    for argv in (
        *(["solve", "--problem", str(path)] for path in bad_manifests),
        *(["bench", "--class", str(path), "--delta", "1e-2"] for path in bad_manifests),
        ["bench", "--class", "hard:2:3", "--seed", "-1", "--delta", "1e-2"],
        ["bench", "--class", "hard:0:3", "--delta", "1e-2"],
        ["bench", "--class", "hard:2:3", "--delta", "1e-2", "--pmax", "300",
         "--methods", "new,direct,new"],
        ["bench", "--class", "hard:2:3", "--delta", "1e-2", "--methods", "new,new"],
        ["solve", "--problem", f"{manifest}#x"],
        ["solve", "--problem", str(empty)],
        ["bench", "--class", str(empty), "--delta", "1e-2"],
        ["solve", "--problem", str(listed)],
        ["bench", "--class", str(listed), "--delta", "1e-2"],
        ["solve", "--problem", "quad2d", "--pmax", "5", "--eps", "nan"],
        ["solve", "--problem", "quad2d", "--pmax", "5", "--eps", "inf"],
        ["bench", "--class", "hard:2:2", "--delta", "1e-2", "--eps", "nan"],
        ["bench", "--class", "hard:2:2", "--delta", "1e-2", "--eps", "inf"],
        ["solve", "--problem", "no-such-problem"],
        ["bench", "--class", "bogus", "--delta", "1e-4"],
        ["frobnicate"],
        [],
        ["solve", "--problem", "quad2d", "--nope"],
        ["solve", "--problem", "quad2d", "--pmax", "0"],
        ["solve", "--problem", "quad2d", "--eps", "-1"],
        ["solve", "--problem", "quad2d", "--delta", "2"],
        ["bench", "--class", "hard:2:2", "--delta", "0"],
        ["bench", "--class", "hard:2:0", "--delta", "1e-2"],
        ["bench", "--class", "hard:2:2", "--delta", "1e-2", "--workers", "0"],
        ["bench", "--class", "hard:2:2", "--delta", "1e-2", "--methods", ","],
        ["solve", "--problem", "quad2d", "--pmax", "5", "--trace",
         str(tmp_path / "nonexistent" / "t")],
        ["solve", "--problem", "quad2d", "--pmax", "5", "--trace", str(tmp_path)],
        ["bench", "--class", "hard:2:2", "--delta", "1e-2", "--pmax", "200",
         "--out", str(manifest)],
        *(["diagram", "--trace", str(path), "--out", str(tmp_path / "d.svg")]
          for path in traces),
    ):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    # an index suffix that is no integer names the option and what it must be
    for suffix in ("abc", "1#2"):
        assert cli.main(["solve", "--problem", f"{manifest}#{suffix}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --problem {manifest}#{suffix}: ") and \
            "after '#' must be an integer index" in err, err
    assert cli.main(["diagram", "--trace", str(cube), "--out", str(tmp_path / "d.svg")]) == 1
    assert capsys.readouterr().err == (
        "error: partition2d diagrams require a two-dimensional domain\n")
    # a manifest that is not JSON or has a bad knob names the file and the
    # fault, whichever command reads it, and is not mistaken for a malformed
    # descriptor
    faults = ("radius_range must be ", "dim must be ", "count must be ", "not JSON (")
    for path, fault in zip(bad_manifests, faults):
        for argv in (["solve", "--problem", str(path)],
                     ["bench", "--class", str(path), "--delta", "1e-2"]):
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: manifest {path}: {fault}"), (argv, err)
            assert "difficulty:dim:count" not in err, (argv, err)
    # so does a descriptor's knob, while a descriptor of the wrong shape
    # names --class without Python's own text
    for argv, fault in ((["hard:2:3", "--seed", "-1"], "seed must be "),
                        (["hard:0:3"], "dim must be "),
                        (["hard:2:0"], "count must be "),
                        (["easy:2:3"], "unknown difficulty 'easy'")):
        assert cli.main(["bench", "--class", *argv, "--delta", "1e-2"]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fault}"), (argv, err)
        assert "difficulty:dim:count" not in err, (argv, err)
    for descriptor in ("hard:2:3:4", "hard:x:3", "hard:2"):
        assert cli.main(["bench", "--class", descriptor, "--delta", "1e-2"]) == 1, descriptor
        assert capsys.readouterr().err == ("error: --class must be a manifest path or "
                                           f"difficulty:dim:count, got {descriptor!r}\n")


def test_cli_delta_needs_a_known_minimizer(monkeypatch, capsys):
    # an indefinite quadratic has no minimizer, so no target to measure delta from
    saddle = quadratic([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], name="saddle")
    assert saddle.known_opt is None
    monkeypatch.setattr(cli.problems, "analytic_suite", lambda: [saddle])
    assert cli.main(["solve", "--problem", "saddle", "--delta", "1e-4"]) == 1
    assert "problem saddle has no known minimizer" in capsys.readouterr().err
    assert cli.main(["solve", "--problem", "saddle", "--pmax", "5"]) == 0
    assert "trials: 5\n" in capsys.readouterr().out


def test_cli_evaluation_failure_exits_two(tmp_path, capsys, monkeypatch):
    import lipgrad.problems as problems_mod

    def broken_suite():
        bad = problems_mod.Problem(
            "quad2d", 2, (0.0, 0.0), (1.0, 1.0),
            f=lambda x: 1.0 / 0.0, grad=lambda x: np.zeros(2),
        )
        return [bad]

    monkeypatch.setattr(cli.problems, "analytic_suite", broken_suite)
    assert cli.main(["solve", "--problem", "quad2d", "--pmax", "10"]) == 2
    capsys.readouterr()
