"""Property tests of the run boundary: random inputs run or fail by name.

Every run parameter a caller hands in (``StopTarget``, the target window it
makes, ``OptConfig`` with ``keep_trace``) either runs ``quad2d`` or raises a
ValueError that names a field the input got wrong; every wrong kind of
objective output raises an EvaluationError. The examples are drawn from a
fixed seed, so the suite sees the same inputs on every run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgrad import EvaluationError
from lipgrad.baselines import direct_run, directl_run
from lipgrad.optimizer import run
from lipgrad.problems import Problem, quadratic
from lipgrad.stopping import OptConfig, StopTarget

METHODS = [run, direct_run, directl_run]
QUAD2D = quadratic([0.3, 0.7], name="quad2d")
FIXED = settings(max_examples=80, derandomize=True, database=None, deadline=None)

HUGE = st.sampled_from([10**400, -10**400])
# numbers of every kind a caller might pass, in range or not
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(-3, 3),
    st.booleans(),
    HUGE,
)
JUNK = st.one_of(st.none(), st.text(max_size=3), st.just(1e-4j), st.just([0.5]))
ANY = st.one_of(NUMBER, JUNK)


def finite_real(v) -> bool:
    """The oracle for a real run parameter: a non-bool int or float that a
    float holds finitely."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


@st.composite
def x_stars(draw):
    kind = draw(st.sampled_from(["pair", "length", "unordered", "junk"]))
    if kind == "pair":
        return tuple(draw(st.lists(ANY, min_size=2, max_size=2)))
    if kind == "length":
        return tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4)))
    if kind == "unordered":  # two coordinates with no axis order
        coords = st.floats(0.0, 1.0)
        return draw(st.one_of(st.sets(coords, min_size=2, max_size=2),
                              st.frozensets(coords, min_size=2, max_size=2),
                              st.dictionaries(coords, coords, min_size=2, max_size=2)))
    return draw(st.one_of(JUNK, NUMBER))


def invalid_fields(x_star, delta, target_kind, epsilon, p_max, start, diagonal,
                   keep_trace) -> set:
    """The fields a run must name, by the documented contract alone."""
    bad = set()
    if target_kind == "target":
        if not (finite_real(delta) and 0.0 < delta <= 1.0):
            bad.add("delta")
        if not (isinstance(x_star, tuple) and len(x_star) == 2
                and all(map(finite_real, x_star))):
            bad.add("x_star")
    elif target_kind == "junk":
        bad.add("target")
    if not (finite_real(epsilon) and epsilon >= 0.0):
        bad.add("epsilon")
    if not (finite_real(p_max) and isinstance(p_max, int) and p_max >= 1):
        bad.add("p_max")
    if start not in ("a", "b"):
        bad.add("start_vertex")
    if diagonal is not None and not (finite_real(diagonal) and 0.0 < diagonal <= 1.0):
        bad.add("diagonal")
    if not isinstance(keep_trace, bool):
        bad.add("keep_trace")
    return bad


@FIXED
@given(
    method=st.sampled_from(METHODS),
    x_star=x_stars(),
    delta=ANY,
    target_kind=st.sampled_from(["target", "none", "junk"]),
    epsilon=ANY,
    # small valid budgets, so that a run without a target ends quickly
    p_max=st.one_of(st.integers(-2, 40), st.floats(allow_nan=True), st.booleans(), HUGE, JUNK),
    start=st.one_of(st.sampled_from(["a", "b", "c", ""]), st.none(), st.integers(0, 1)),
    diagonal=st.one_of(st.none(), ANY),
    keep_trace=st.one_of(st.booleans(), st.integers(0, 1), JUNK),
)
def test_run_inputs_run_or_name_a_wrong_field(method, x_star, delta, target_kind, epsilon,
                                              p_max, start, diagonal, keep_trace):
    bad = invalid_fields(x_star, delta, target_kind, epsilon, p_max, start, diagonal,
                         keep_trace)
    try:
        target = {"target": lambda: StopTarget(x_star, delta), "none": lambda: None,
                  "junk": lambda: x_star}[target_kind]()
        config = OptConfig(epsilon=epsilon, p_max=p_max, start_vertex=start,
                           target=target, diagonal=diagonal, keep_trace=keep_trace)
        report = method(QUAD2D, config)
    except ValueError as exc:
        assert bad, f"valid inputs raised {exc!r}"
        assert any(field in str(exc) for field in bad), (bad, str(exc))
    else:
        assert not bad, f"ran with wrong {bad}"
        assert 1 <= report.trials <= p_max


@FIXED
@given(method=st.sampled_from(METHODS), x_star=x_stars(),
       keep_trace=st.one_of(st.booleans(), st.integers(0, 1), JUNK))
def test_target_points_and_trace_flags_run_or_name_a_wrong_field(method, x_star, keep_trace):
    # the other fields valid, so a wrong x_star or keep_trace alone is seen
    bad = invalid_fields(x_star, 1e-4, "target", 1e-4, 40, "a", None, keep_trace)
    try:
        report = method(QUAD2D, OptConfig(p_max=40, target=StopTarget(x_star, 1e-4),
                                          keep_trace=keep_trace))
    except ValueError as exc:
        assert bad, f"valid inputs raised {exc!r}"
        assert any(field in str(exc) for field in bad), (bad, str(exc))
    else:
        assert not bad, f"ran with wrong {bad}"
        assert (report.trace is None) is (not keep_trace)


# wrong outputs of f: non-finite, non-real, or no number at all
BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
    HUGE,
    JUNK,
    st.just(b"1"),
    st.just(np.array([0.5, 0.5])),
    st.just({"f": 0.5}),
)
# wrong outputs of grad: wrong shape or size, non-finite or non-real entries
BAD_GRADIENTS = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4).filter(lambda g: len(g) != 2),
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-1.0, 1.0), st.one_of(st.text(max_size=2), st.none(), HUGE,
                                               st.just(1j))),
    st.just([[0.5], [0.5, 0.5]]),
    st.just(np.zeros((2, 1))),
    st.one_of(st.none(), st.floats(-1.0, 1.0), st.text(max_size=3), st.just({0: 1.0})),
)


def sometimes_bad(which: str, bad) -> Problem:
    """quad2d's bowl, with f or grad (``which``) returning ``bad`` where x[0] > 0.5."""
    def f(x):
        return bad if which == "f" and x[0] > 0.5 else QUAD2D.f(x)

    def grad(x):
        return bad if which == "grad" and x[0] > 0.5 else QUAD2D.grad(x)

    return Problem("bad2d", 2, QUAD2D.lower, QUAD2D.upper, f, grad)


@FIXED
@given(method=st.sampled_from(METHODS), value=BAD_VALUES)
def test_every_wrong_value_raises_evaluation_error(method, value):
    try:
        method(sometimes_bad("f", value), OptConfig(p_max=300))
    except EvaluationError as exc:
        assert exc.x[0] > 0.5
    else:
        raise AssertionError(f"f returning {value!r} ran")


@FIXED
@given(grad=BAD_GRADIENTS)
def test_every_wrong_gradient_raises_evaluation_error(grad):
    # only the gradient method reads f'
    try:
        run(sometimes_bad("grad", grad), OptConfig(p_max=300))
    except EvaluationError as exc:
        assert exc.x[0] > 0.5
    else:
        raise AssertionError(f"grad returning {grad!r} ran")
