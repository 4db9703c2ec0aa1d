"""The Problem contract, checked where every method evaluates f and f'.

Each probe returns a bad value or gradient, or raises, only at points with
x[0] > 0.5, so every method meets it in the middle of a run rather than at
its first trial. The run must stop with an EvaluationError that names the
problem and carries the first bad point.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from lipgrad import EvaluationError, bench, cli, problems
from lipgrad.baselines import direct_run, directl_run
from lipgrad.optimizer import run
from lipgrad.problems import Problem, problem_class
from lipgrad.stopping import OptConfig

METHODS = [run, direct_run, directl_run]


def probe(dim=2, f_bad=None, grad_bad=None):
    """A bowl around 0.8 that calls ``f_bad`` or ``grad_bad`` where x[0] > 0.5.

    Returns the problem and the list of points, in call order, at which a
    bad callable ran.
    """
    bad = []
    center = np.full(dim, 0.8)

    def f(x):
        if f_bad is not None and x[0] > 0.5:
            bad.append(tuple(x.tolist()))
            return f_bad(x)
        return float((x - center) @ (x - center))

    def grad(x):
        if grad_bad is not None and x[0] > 0.5:
            bad.append(tuple(x.tolist()))
            return grad_bad(x)
        return 2.0 * (x - center)

    prob = Problem(f"probe{dim}d", dim, (0.0,) * dim, (1.0,) * dim, f, grad,
                   known_opt=(tuple(center.tolist()), 0.0))
    return prob, bad


def boom(x):
    raise ZeroDivisionError("boom")


def raises_at_first_bad_point(method, prob, bad) -> EvaluationError:
    with pytest.raises(EvaluationError) as info:
        method(prob, OptConfig(p_max=200))
    exc = info.value
    assert exc.x == bad[0]
    assert exc.problem == prob.name and prob.name in str(exc)
    return exc


def test_value_and_grad_returns_floats():
    prob, _ = probe()
    value, grad = prob.value_and_grad((0.5, 0.3))
    assert value == pytest.approx(0.34)
    assert grad == pytest.approx((-0.6, -1.0))
    assert type(value) is float and all(type(g) is float for g in grad)
    assert prob.value((0.8, 0.8)) == 0.0


def test_value_and_grad_skips_grad_when_f_fails():
    calls = []
    prob = Problem("p", 1, (0.0,), (1.0,), lambda x: math.nan,
                   lambda x: calls.append(x) or np.zeros(1))
    with pytest.raises(EvaluationError):
        prob.value_and_grad((0.5,))
    assert calls == []


@pytest.mark.parametrize("writer", ["f", "grad"])
def test_objective_writing_into_its_point_raises(writer):
    # f and grad share one read-only array per point
    def f(x):
        if writer == "f":
            x[0] = 0.0
        return float(x @ x)

    def grad(x):
        if writer == "grad":
            x[0] = 0.0
        return 2.0 * x

    prob = Problem("scribble", 2, (0.0, 0.0), (1.0, 1.0), f, grad)
    with pytest.raises(EvaluationError, match=f"{writer} failed") as info:
        prob.value_and_grad((0.5, 0.25))
    assert info.value.x == (0.5, 0.25)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_nonfinite_value_raises_evaluation_error(method, value):
    prob, bad = probe(f_bad=lambda x: value)
    raises_at_first_bad_point(method, prob, bad)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("value", ["1.5", b"2", 1.5 + 0j], ids=["str", "bytes", "complex"])
def test_non_numeric_value_raises_evaluation_error(method, value):
    prob, bad = probe(f_bad=lambda x: value)
    exc = raises_at_first_bad_point(method, prob, bad)
    assert f"f returned {value!r}, expected a finite real number" in str(exc)


@pytest.mark.parametrize("value, grad", [
    (True, [1, 0]),
    (3, np.array([1, 2], dtype=np.int64)),
    (np.float32(0.5), np.array([0.5, 0.25], dtype=np.float32)),
    (Fraction(1, 4), [True, 0.5]),
], ids=["bool", "int", "float32", "fraction"])
def test_other_real_types_pass_as_floats(value, grad):
    prob = Problem("p", 2, (0.0, 0.0), (1.0, 1.0), lambda x: value, lambda x: grad)
    f_value, components = prob.value_and_grad((0.5, 0.5))
    assert type(f_value) is float and all(type(g) is float for g in components)
    assert (f_value, components) == (float(value), tuple(float(g) for g in grad))
    assert prob.value((0.5, 0.5)) == f_value


@pytest.mark.parametrize("point", [
    "ab", [0.5, "a"], [[0.5], [0.5, 0.2]], [0.5, None], b"ab", {0.5: 1, 0.2: 2},
    iter((0.1, 0.2)),
], ids=["str", "str-coordinate", "ragged", "none", "bytes", "dict", "iterator"])
def test_a_point_of_no_real_numbers_is_an_evaluation_error(point):
    # numpy raised a plain ValueError on the first three and read None as
    # nan, which then read as f's fault; the error keeps the point as given,
    # where tuple(point) split a string, listed a dict's keys and consumed an
    # iterator into a valid-looking point
    prob = problems.quadratic([0.3, 0.7], name="quad2d")
    for evaluate in (prob.value, prob.value_and_grad):
        with pytest.raises(EvaluationError, match=r"expected a point of shape \(2,\) of real "
                                                  r"numbers at x = ") as info:
            evaluate(point)
        assert info.value.x is point
        assert str(info.value).endswith(f" at x = {point!r}")
    if iter(point) is point:
        assert list(point) == [0.1, 0.2]  # the iterator was not consumed


@pytest.mark.parametrize("point", [
    (Fraction(1, 3), True),
    [np.float32(0.1), 2**63],
    (1, np.int64(0)),
    [2**100, Fraction(1, 4)],
    np.array([0.5, 0.25], dtype=np.float16),
    np.array([0.5, 0.25], dtype=">f8"),
], ids=["fraction-bool", "float32-uint64", "ints", "big-int", "float16", "big-endian"])
def test_a_point_of_other_reals_reads_as_numpy_reads_it(point):
    # f and grad get the floats np.array(point, dtype=float) holds, and a
    # gradient of the same numbers reads as those floats too
    seen = []

    def f(x):
        seen.append((x.dtype, x.flags.writeable, x.tolist()))
        return 0.0

    prob = Problem("p", 2, (0.0, 0.0), (1.0, 1.0), f, lambda x: point)
    prob.value(point)
    _, gradient = prob.value_and_grad(point)
    expected = (np.dtype(float), False, np.array(point, dtype=float).tolist())
    assert seen == [expected, expected]
    assert list(gradient) == expected[2] and all(type(g) is float for g in gradient)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.__name__)
def test_failing_objective_keeps_its_cause(method):
    prob, bad = probe(f_bad=boom)
    exc = raises_at_first_bad_point(method, prob, bad)
    assert isinstance(exc.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("dim, grad_bad", [
    (2, lambda x: np.array([math.nan, 0.0])),
    (2, lambda x: np.array([0.0, math.inf])),
    (2, lambda x: np.zeros(1)),
    (2, lambda x: np.zeros(3)),
    (1, lambda x: 2.0 * float(x[0])),
    (2, lambda x: ["1", "2"]),
    (2, lambda x: [b"1", b"2"]),
    (2, lambda x: [1 + 2j, 0j]),
    (2, lambda x: np.array([1 + 2j, 0j])),
], ids=["nan", "inf", "shape-1", "shape-3", "scalar-1d", "str", "bytes", "complex-list",
        "complex-array"])
def test_bad_gradient_raises_evaluation_error(dim, grad_bad):
    prob, bad = probe(dim, grad_bad=grad_bad)
    raises_at_first_bad_point(run, prob, bad)


def test_failing_gradient_keeps_its_cause():
    prob, bad = probe(grad_bad=boom)
    exc = raises_at_first_bad_point(run, prob, bad)
    assert isinstance(exc.__cause__, ZeroDivisionError)


def test_run_class_marks_a_failing_problem_invalid(monkeypatch):
    cls = problem_class(2, "hard", seed=0, count=3)
    methods = ["new", "direct", "directl"]
    expected = bench.run_class(methods, cls, delta=1e-4, p_max=5000).rows
    generate = problems.generate

    def generate_with_failure(c, index):
        if index == 2:
            return probe(f_bad=lambda x: math.nan)[0]
        return generate(c, index)

    monkeypatch.setattr(problems, "generate", generate_with_failure)
    report = bench.run_class(methods, cls, delta=1e-4, p_max=5000, workers=1)
    row = report.rows[1]
    assert row["index"] == 2 and not row["valid"] and row["results"] == {}
    assert row["error"].startswith("method new failed on problem 2: EvaluationError('probe2d: ")
    assert report.invalid == [(2, row["error"])]
    assert [report.rows[0], report.rows[2]] == [expected[0], expected[2]]
    assert f"warning: problem 2 invalid, excluded: {row['error']}" in report.to_text()
    rows_2 = [line for line in report.to_csv().splitlines() if line.startswith("2,")]
    assert rows_2 == [f"2,{m},,,,0" for m in methods]
    # report.json with an invalid row, byte for byte
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "f6c1f27953f23546888f73e75e2024ae866a7d2d62396e9fd97d33685a8ebc9e"

    # any other exception in one run marks that problem invalid, naming the method
    monkeypatch.undo()
    run_method = bench.run_method

    def run_method_with_failure(name, problem, config):
        if name == "direct" and problem.name == problems.generate(cls, 3).name:
            raise ValueError("injected")
        return run_method(name, problem, config)

    monkeypatch.setattr(bench, "run_method", run_method_with_failure)
    report = bench.run_class(methods, cls, delta=1e-4, p_max=5000, workers=1)
    row = report.rows[2]
    assert row["index"] == 3 and not row["valid"] and row["results"] == {}
    assert row["error"] == "method direct failed on problem 3: ValueError('injected')"
    assert report.invalid == [(3, row["error"])]
    assert report.rows[:2] == expected[:2]
    assert f"warning: problem 3 invalid, excluded: {row['error']}" in report.to_text()


def test_an_invalid_row_names_its_stage_and_c1_names_a_problem(monkeypatch):
    # an EvaluationError in DIRECT's run on problem 2 names the method that
    # failed; C1's s then names the worst valid problem by its index, not by
    # its position among the valid rows, and C2 is that problem's boxes
    cls = problem_class(2, "hard", seed=0, count=3)
    methods = ["new", "direct", "directl"]
    expected = bench.run_class(methods, cls, delta=1e-4, p_max=5000).rows
    run_method, failing = bench.run_method, problems.generate(cls, 2).name

    def run_method_with_failure(name, problem, config):
        if name == "direct" and problem.name == failing:
            raise EvaluationError(failing, (0.0, 0.0), "f failed: boom")
        return run_method(name, problem, config)

    monkeypatch.setattr(bench, "run_method", run_method_with_failure)
    report = bench.run_class(methods, cls, delta=1e-4, p_max=5000)
    error = f"method direct failed on problem 2: EvaluationError('{failing}: f failed: boom at x = (0.0, 0.0)')"
    assert report.invalid == [(2, error)]
    assert [report.rows[0], report.rows[2]] == [expected[0], expected[2]]
    for m in methods:
        worst = max(expected[0], expected[2], key=lambda row: row["results"][m]["trials"])
        summary = report.summaries[m]
        assert summary["c1"][:2] == [worst["results"][m]["trials"], worst["index"]], m
        assert summary["c2"] == worst["results"][m]["boxes"], m
    assert report.summaries["new"]["c1"][1] == 3  # the second valid row
    assert "(s=3)" in report.to_text()


def test_a_class_report_is_computed_from_its_rows(monkeypatch, tmp_path):
    # with problem 1 invalid, C1's s of every method names a problem one past
    # its position among the valid rows; the report made again from what
    # report.json says was run writes the same three files
    cls = problem_class(2, "hard", seed=0, count=3)
    generate = problems.generate

    def generate_with_failure(c, index):
        if index == 1:
            raise problems.GenerationError("injected")
        return generate(c, index)

    monkeypatch.setattr(problems, "generate", generate_with_failure)
    bench.run_class(["new", "direct", "directl"], cls, delta=1e-2, p_max=500, out_dir=tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    ran = dict(class_info=data["class"], methods=data["methods"], delta=data["delta"],
               p_max=data["p_max"], epsilon=data["epsilon"])
    report = bench.ClassReport(**ran, rows=data["rows"])
    error = "generation failed on problem 1: GenerationError('injected')"
    assert report.invalid == [(1, error)]
    valid = data["rows"][1:]
    for m, summary in report.summaries.items():
        trials = [row["results"][m]["trials"] for row in valid]
        assert summary["c1"][1] == valid[trials.index(max(trials))]["index"], m
    assert report.to_json() == (tmp_path / "report.json").read_text()
    assert report.to_text() == (tmp_path / "report.txt").read_text()
    assert report.to_csv() == (tmp_path / "report.csv").read_text()
    # rows that are all invalid make no report
    reason = f"every problem of the class is invalid; {error}"
    with pytest.raises(problems.GenerationError, match=re.escape(reason)):
        bench.ClassReport(**ran, rows=data["rows"][:1])
    # the report checks its methods as run_class does: a repeated one would
    # write every row twice, and a string would be read letter by letter
    for methods, message in [(["new", "direct", "new"], "method 'new' given twice"),
                             ("new", "methods must be a collection of names, got the string 'new'")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bench.ClassReport(**dict(ran, methods=methods), rows=data["rows"])
    # nor do rows that name one problem twice, whose runs C1-C4 would count twice
    with pytest.raises(ValueError, match=r"^row 1 given twice$"):
        bench.ClassReport(**ran, rows=data["rows"] + data["rows"])
    # and a valid row without a result for one of the methods makes none
    del data["rows"][2]["results"]["direct"]
    with pytest.raises(ValueError, match=r"^row 3 has no result for method 'direct'$"):
        bench.ClassReport(**ran, rows=data["rows"])


def test_a_class_without_a_valid_problem_names_the_first_failure(capsys):
    # ten balls do not fit on the 1-D domain [-1, 1]
    cls = problem_class(1, "hard", seed=0, count=3)
    reason = ("every problem of the class is invalid; generation failed on problem 1: "
              "GenerationError('could not place ball 7/10 (dim=1, radius=0.129)")
    with pytest.raises(problems.GenerationError, match=re.escape(reason)):
        bench.run_class(["new"], cls, delta=1e-2, p_max=100)
    assert cli.main(["bench", "--class", "hard:1:3", "--delta", "1e-2"]) == 2
    assert capsys.readouterr().err.startswith(f"evaluation failure: {reason}")


def test_a_class_report_without_rows_says_so():
    with pytest.raises(ValueError, match="a class report needs at least one row"):
        bench.ClassReport(class_info={}, methods=["new"], delta=1e-4, p_max=10,
                          epsilon=1e-4, rows=[])


def test_cli_nan_objective_exits_two(monkeypatch, capsys):
    nan_quad = probe(f_bad=lambda x: math.nan)[0]
    monkeypatch.setattr(cli.problems, "analytic_suite", lambda: [
        Problem("quad2d", 2, nan_quad.lower, nan_quad.upper, nan_quad.f, nan_quad.grad)
    ])
    assert cli.main(["solve", "--problem", "quad2d", "--pmax", "100"]) == 2
    err = capsys.readouterr().err
    assert "evaluation failure" in err and "quad2d" in err
