import dataclasses
import functools
import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgrad import cli, problems
from lipgrad.problems import (
    EvaluationError,
    GenerationError,
    analytic_suite,
    generate,
    problem_class,
    quadratic,
    trig_separable,
)
from util import fd_check, generated_oracle, generated_rows, with_audit


def test_quadratic_fields():
    p = quadratic([0.3, 0.7], name="q")
    assert p.known_K == 2.0
    assert p.known_opt == ((0.3, 0.7), 0.0)
    x = np.array([0.5, 0.5])
    assert math.isclose(p.f(x), 0.2**2 + 0.2**2)
    assert np.allclose(p.grad(x), [0.4, -0.4])


def test_quadratic_spectral_radius_sets_K():
    A = np.array([[2.0, 0.0], [0.0, -5.0]])
    p = quadratic([0.0, 0.0], A, lower=[-1, -1], upper=[1, 1])
    assert p.known_K == 10.0
    assert p.known_opt is None  # indefinite


def test_analytic_suite_passes_fd_check():
    for p in analytic_suite():
        assert fd_check(p, samples=40) < 1e-5


def test_fd_check_constant_function():
    flat = problems.Problem(
        "flat", 2, (0.0, 0.0), (1.0, 1.0),
        f=lambda x: 3.5, grad=lambda x: np.zeros(2),
    )
    assert fd_check(flat, samples=10) == 0.0


def test_fd_check_quadratic_is_tight():
    assert fd_check(quadratic([0.3, 0.7]), samples=50) < 1e-7


def test_fd_check_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_check(quadratic([0.5, 0.5]), step=0.0)


def test_trig_minimum_matches_axis_enumeration():
    # independent re-derivation: dense scan per axis of the separable term
    p = trig_separable(2)
    t = np.linspace(0.0, 1.0, 2_000_001)
    g = t * t + np.sin(5.0 * math.pi * t) / 10.0
    t_best = t[int(np.argmin(g))]
    x_star, f_star = p.known_opt
    assert abs(x_star[0] - t_best) < 1e-5
    assert abs(x_star[0] - x_star[1]) == 0.0
    assert abs(p.f(np.asarray(x_star)) - f_star) < 1e-12
    # stationarity of the pinned minimizer
    assert np.max(np.abs(p.grad(np.asarray(x_star)))) < 1e-9
    # the constant is the float where the axis derivative turns non-negative,
    # so one ulp off either way fails
    ts = x_star[0]

    def dg(t):
        return 2.0 * t + 0.5 * math.pi * math.cos(5.0 * math.pi * t)

    assert dg(math.nextafter(ts, 0.0)) < 0.0 <= dg(ts)


def test_generated_problem_is_deterministic():
    cls = problem_class(2, "simple", seed=5, count=10)
    p1 = generate(cls, 3)
    p2 = generate(cls, 3)
    assert p1.known_opt == p2.known_opt
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(50, 2))
    for x in pts:
        assert p1.f(x) == p2.f(x)
        assert np.array_equal(p1.grad(x), p2.grad(x))


def test_generated_problem_optimum_certificates():
    cls = problem_class(2, "simple", seed=5, count=10)
    for index in (1, 4, 9):
        p = generate(cls, index)
        f_rows = generated_rows(cls, index)
        x_star, f_star = p.known_opt
        x = np.asarray(x_star)
        assert p.f(x) == f_star == -1.0
        assert np.linalg.norm(p.grad(x)) < 1e-8
        assert all(lo <= v <= hi for v, lo, hi in zip(x_star, p.lower, p.upper))
        # dense-grid certificate: nothing falls below f*
        axes = [np.linspace(lo, hi, 200) for lo, hi in zip(p.lower, p.upper)]
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
        values = f_rows(grid)
        assert values.min() >= f_star - 1e-9
        scattered = np.random.default_rng(1).uniform(-1, 1, size=(2000, 2))
        assert all(abs(p.f(row) - v) < 1e-12 for row, v in zip(scattered[:50], f_rows(scattered[:50])))


def test_generated_3d_certificate_by_random_sampling():
    cls = problem_class(3, "simple", seed=8, count=2)
    p = generate(cls, 1)
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1.0, 1.0, size=(1_000_000, 3))
    assert generated_rows(cls, 1)(samples).min() >= p.known_opt[1] - 1e-9


def test_every_method_solves_the_1d_quadratic():
    from lipgrad import baselines, optimizer
    from lipgrad.stopping import OptConfig, StopTarget

    p = quadratic([0.0], lower=[-1.0], upper=[1.0], name="quad1d")
    cfg = OptConfig(target=StopTarget(p.known_opt[0], 1e-6), p_max=100_000)
    for runner in (optimizer.run, baselines.direct_run, baselines.directl_run):
        report = runner(p, cfg)
        assert report.stop_reason == "target_found"
        assert abs(report.x_min[0]) <= 1e-6 * 2.0


def test_generated_gradient_is_continuous_across_ball_boundaries():
    cls = problem_class(2, "simple", seed=6, count=5)
    p = generate(cls, 2)
    rng = np.random.default_rng(2)
    x_star = np.asarray(p.known_opt[0])
    # straddle the global ball's boundary along random directions
    worst = 0.0
    for _ in range(1000):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        inner = x_star + direction * (cls.global_radius - 5e-8)
        outer = x_star + direction * (cls.global_radius + 5e-8)
        if not all(-1 <= v <= 1 for v in np.concatenate([inner, outer])):
            continue
        jump = np.max(np.abs(p.grad(inner) - p.grad(outer)))
        worst = max(worst, float(jump))
    assert worst < 1e-4


def test_generated_problems_pass_fd_check():
    cls = problem_class(2, "hard", seed=7, count=5)
    for index in range(1, 6):
        assert fd_check(generate(cls, index), samples=30) < 1e-5


def ball_and_random_points(prob, rng, n):
    """n points inside the global ball, where f is deformed, and n anywhere."""
    x_star = np.asarray(prob.known_opt[0])
    inside = [x_star + rng.uniform(-0.03, 0.03, prob.dim) for _ in range(n)]
    anywhere = [rng.uniform(prob.lower, prob.upper) for _ in range(n)]
    return inside + anywhere


@pytest.mark.parametrize("dim", [2, 3])
def test_generated_grad_after_f_at_another_point_is_exact(dim):
    # f and grad share the terms of the last point; grad(x1) after f(x2)
    # must recompute them and give the bits of a fresh evaluation
    cls = problem_class(dim, "hard", seed=0, count=5)
    prob = generate(cls, 1)
    points = ball_and_random_points(prob, np.random.default_rng(dim), 10)
    for x1, x2 in zip(points, points[1:] + points[:1]):
        f1 = prob.f(x1)
        prob.f(x2)
        fresh = generate(cls, 1)
        assert prob.grad(x1).tobytes() == fresh.grad(x1).tobytes()
        assert f1 == generate(cls, 1).f(x1)


def test_generated_problem_is_exact_under_interleaved_threads():
    cls = problem_class(2, "hard", seed=0, count=5)
    prob = generate(cls, 1)
    points = ball_and_random_points(prob, np.random.default_rng(7), 20)
    oracle = generate(cls, 1)
    expected = [(oracle.f(x), oracle.grad(x).tobytes()) for x in points]
    rounds = 5000
    done, wrong = [], []
    start = threading.Barrier(4)

    def worker(offset):
        start.wait(timeout=60)
        for k in range(rounds):
            j = (offset + k) % len(points)
            value = prob.f(points[j])
            if (value, prob.grad(points[j]).tobytes()) != expected[j]:
                wrong.append(j)
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(7 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 4 and wrong == []


def ball_boundary_points(C, R2, i, ulps=2):
    """Points within ``ulps`` floats of where ball i's test ``rho^2 < R^2``
    flips, on both sides of its center along every axis."""
    def inside(x):
        dx = x - C
        return bool(np.einsum("ij,ij->i", dx, dx)[i] < R2[i])

    points = []
    for j in range(C.shape[1]):
        for sign in (-1.0, 1.0):
            # bisect the axis between the center (inside) and 1.5 radii out
            x = C[i].copy()
            lo, hi = x[j], x[j] + sign * 1.5 * math.sqrt(R2[i])
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                x[j] = mid
                lo, hi = (mid, hi) if inside(x) else (lo, mid)
            # the last floats inside, then the first outside (or on it)
            for v, towards in ((lo, -sign * math.inf), (hi, sign * math.inf)):
                for _ in range(ulps):
                    x[j] = v
                    points.append(x.copy())
                    v = np.nextafter(v, towards)
    return points


@pytest.mark.parametrize("difficulty", ["simple", "hard"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_generated_objective_matches_its_numpy_oracle(dim, difficulty):
    # the per-ball tail runs on Python floats; every value and gradient must
    # carry the bits of the numpy element-wise expressions: at each ball's
    # center, inside it, on and next to its boundary, and outside every ball;
    # ten balls do not fit on a 1-D domain, so 1-D classes get three
    cls = problem_class(dim, difficulty, seed=3, count=2, n_minima=3 if dim == 1 else 10)
    rng = np.random.default_rng([dim, len(difficulty)])
    for index in (1, 2):
        prob = generate(cls, index)
        f_ref, grad_ref = generated_oracle(cls, index)
        C, R, _, _ = problems.generated_parameters(cls, index)
        R2 = R * R
        points = [rng.uniform(prob.lower, prob.upper) for _ in range(40)]
        for i, c in enumerate(C):
            points.append(c.copy())
            for _ in range(4):
                v = rng.normal(size=dim)
                scale = math.sqrt(R2[i]) * rng.uniform(0.0, 0.999) / np.linalg.norm(v)
                points.append(c + v * scale)
            points += ball_boundary_points(C, R2, i)
        for x in points:
            value = f_ref(x)
            gradient = grad_ref(x)
            assert repr(prob.value(x)) == repr(float(value))
            assert repr(prob.value_and_grad(x)) == repr((float(value), tuple(gradient.tolist())))
            assert prob.grad(x).tobytes() == gradient.tobytes()


def float_steps(v: float, k: int) -> float:
    """The float k floats above v (below for k < 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@functools.lru_cache(maxsize=None)
def oracle_case(dim, difficulty):
    """A generated problem of the oracle test's classes, its numpy oracle
    and its balls; one problem per case, so its last-point slot carries
    over from one example to the next."""
    cls = problem_class(dim, difficulty, seed=3, count=2, n_minima=3 if dim == 1 else 10)
    C, R, _, _ = problems.generated_parameters(cls, 2)
    return cls, generate(cls, 2), generated_oracle(cls, 2), C.tolist(), R.tolist()


@st.composite
def index_probes(draw, cls, center, radius):
    """A point where the ball index could go wrong: on the ball's boundary
    within a few ulps of its radius, on a bin edge near the ball's end
    within an ulp, near the ball at a coordinate off the domain, inf or
    NaN, or anywhere."""
    lower, upper = cls.lower, cls.upper
    x = list(center)
    j = draw(st.integers(0, cls.dim - 1))
    kind = draw(st.sampled_from(["boundary", "bin edge", "off the domain", "not finite", "anywhere"]))
    if kind == "boundary":
        u = draw(st.lists(st.floats(-1.0, 1.0), min_size=cls.dim, max_size=cls.dim)
                 .filter(lambda u: max(map(abs, u)) > 1e-3))
        norm = math.sqrt(sum(t * t for t in u))
        r = float_steps(radius, draw(st.integers(-4, 4)))
        x = [c + t / norm * r for c, t in zip(x, u)]
    elif kind == "bin edge":
        width = (upper - lower) / problems._BINS
        end = x[j] + draw(st.sampled_from([-1.0, 1.0])) * radius
        k = min(max(int((end - lower) / width) + draw(st.integers(-1, 2)), 0), problems._BINS)
        x[j] = min(max(float_steps(lower + k * width, draw(st.integers(-1, 1))), lower), upper)
    elif kind == "off the domain":
        x[j] = draw(st.one_of(st.floats(lower - 10.0, float_steps(lower, -1)),
                              st.floats(float_steps(upper, 1), upper + 10.0)))
    elif kind == "not finite":
        x[j] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    else:
        x = draw(st.lists(st.floats(lower, upper), min_size=cls.dim, max_size=cls.dim))
    return x


@pytest.mark.parametrize("difficulty", ["simple", "hard"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_ball_index_matches_the_numpy_oracle(dim, difficulty, data):
    # where the ball index skips the per-ball distances, f, grad and
    # value_and_grad must still carry the oracle's bits, which compute every
    # ball's distance
    cls, prob, (f_ref, grad_ref), C, R = oracle_case(dim, difficulty)
    for center, radius in zip(C, R):
        x = np.array(data.draw(index_probes(cls, center, radius)))
        value, gradient = float(f_ref(x)), grad_ref(x)
        assert repr(prob.f(x)) == repr(value)
        assert prob.grad(x).tobytes() == gradient.tobytes()
        if math.isfinite(value) and np.isfinite(gradient).all():
            assert repr(prob.value_and_grad(x)) == repr((value, tuple(gradient.tolist())))
        else:
            with pytest.raises(EvaluationError):
                prob.value_and_grad(x)


def test_ball_index_skips_the_per_ball_distances_outside_every_ball(monkeypatch):
    cls = problem_class(2, "hard", seed=0, count=1)
    prob = generate(cls, 1)
    C, R, _, _ = problems.generated_parameters(cls, 1)
    kernel, calls = problems.c_einsum, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(problems, "c_einsum", counted)
    # more than two bins (2/256 wide) outside every ball's bounding box
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2))
    beyond = np.max(np.abs(points[:, None, :] - C) - R[:, None], axis=2)
    outside = points[(beyond > 0.05).all(axis=1)][0]
    prob.value_and_grad(outside)
    assert calls == []
    inside = C[0] + 0.5 * R[0] / math.sqrt(2.0)
    assert prob.value_and_grad(inside)[0] < 0.0  # in the global ball
    assert len(calls) == 1


def test_budget_4d_parameters_are_pinned():
    # the draws of the generated simple 4-D class at seed 11, problems 1-3,
    # byte for byte, as in test_generated_parameters_are_pinned
    cls = problem_class(4, "simple", seed=11, count=3)
    h = hashlib.sha256()
    for index in range(1, cls.count + 1):
        for array in problems.generated_parameters(cls, index):
            h.update(repr(array.shape).encode())
            h.update(array.astype("<f8").tobytes())
    assert h.hexdigest() == "ddbe4894f582aa28da6919e2042e686c6c13732635713dd283c3436229ab26be"


@pytest.mark.parametrize("point", [(0.5,), 0.5, np.float64(0.5), (0.1, 0.2, 0.3), [[0.5, 0.5]]])
@pytest.mark.parametrize("prob", [
    generate(problem_class(2, "hard", seed=0, count=1), 1), quadratic([0.3, 0.7], name="quad2d"),
], ids=["generated", "quad2d"])
def test_a_point_of_another_shape_is_an_evaluation_error(prob, point):
    # numpy broadcasting let value((0.5,)) return a number on both problems
    for evaluate in (prob.value, prob.value_and_grad):
        with pytest.raises(EvaluationError, match=r"expected a point of shape \(2,\).* at x = "):
            evaluate(point)


@pytest.mark.parametrize("difficulty, dim, digest", [
    ("hard", 2, "f5d2b757997b6cd3f520fa0f6a8687e62601df2e7d83b2fa1df65d4700e6102a"),
    ("simple", 3, "6006436c6f3c4c9852ea8e06bc02e814205f9c9dd5dc1048a6ca59ac25cad8fd"),
])
def test_generated_parameters_are_pinned(difficulty, dim, digest):
    # the paper's classes at seed 0: every problem's C, R, T and values, byte
    # for byte; a failure here means the problems changed (a numpy Generator
    # stream or the placement test), not the search
    cls = problem_class(dim, difficulty, seed=0, count=20)
    h = hashlib.sha256()
    for index in range(1, cls.count + 1):
        for array in problems.generated_parameters(cls, index):
            assert array.dtype == np.float64
            h.update(repr(array.shape).encode())
            h.update(array.astype("<f8").tobytes())
    assert h.hexdigest() == digest


def test_generate_validates_index():
    cls = problem_class(2, "simple", seed=0, count=3)
    # only an integral index in 1..count, never a bool or a float
    for index in (0, 4, True, 1.0, 2.5, "1", None, np.float64(1.0)):
        with pytest.raises(ValueError, match="index"):
            generate(cls, index)
    assert generate(cls, np.int64(2)).name == generate(cls, 2).name


def test_overcrowded_class_raises_generation_error():
    cls = problem_class(1, "simple", seed=0, count=1, n_minima=40)
    with pytest.raises(GenerationError):
        generate(cls, 1)


def test_a_ball_wider_than_the_domain_raises_generation_error(tmp_path, capsys):
    # numpy's uniform raised "high - low < 0" before the placement loop could
    # report the ball; the check draws nothing
    cls = dataclasses.replace(problem_class(2, "hard", count=1), global_radius=0.99)
    with pytest.raises(GenerationError, match=r"could not place ball 1/10 \(dim=2, "
                                              r"radius=0\.990\)"):
        problems.generated_parameters(cls, 1)
    path = tmp_path / "wide.json"
    with pytest.raises(GenerationError, match="could not place ball 1/10"):
        problems.write_manifest(cls, path)
    path.write_text(json.dumps(dataclasses.asdict(cls)))
    assert cli.main(["solve", "--problem", f"{path}#1"]) == 1
    assert "error: could not place ball 1/10" in capsys.readouterr().err


def test_problem_class_rejects_a_domain_of_infinite_width(tmp_path):
    # every generate raised numpy's OverflowError on [-1e308, 1e308]
    good = problem_class(2, "hard", count=1)
    with pytest.raises(ValueError, match="upper must be .* a finite upper - lower"):
        dataclasses.replace(good, lower=-1e308, upper=1e308)
    path = tmp_path / "class.json"
    path.write_text(json.dumps({**dataclasses.asdict(good), "lower": -1e308, "upper": 1e308}))
    with pytest.raises(ValueError, match=r"manifest .*class\.json: upper must be"):
        problems.load_manifest(path)
    assert dataclasses.replace(good, lower=-1e307, upper=1e307).upper == 1e307


def test_problem_class_rejects_unknown_difficulty():
    with pytest.raises(ValueError):
        problem_class(2, "medium")


def test_problem_class_rejects_knobs_of_the_wrong_type_or_range():
    # knobs are never converted: a rejected value names its knob
    good = problem_class(2, "hard", seed=3, count=2)
    for knob, value in (
        ("seed", -1), ("seed", 1.0), ("seed", True), ("dim", 0), ("dim", "2"),
        ("count", 0), ("count", 2.5), ("n_minima", 0), ("difficulty", 1),
        ("radius_range", 5), ("radius_range", [0.06, 0.13]), ("radius_range", (0.06,)),
        ("radius_range", (0.13, 0.06)), ("radius_range", (0.0, 0.1)),
        ("radius_range", (0.06, math.inf)), ("global_radius", 0.0),
        ("global_radius", 1), ("value_gap", -0.1), ("value_gap", 0.95),
        ("value_gap", math.nan), ("lower", -1), ("upper", math.inf), ("upper", -1.0),
    ):
        with pytest.raises(ValueError, match=knob):
            dataclasses.replace(good, **{knob: value})
    assert dataclasses.replace(good, n_minima=1, value_gap=0.0).n_minima == 1


def test_problem_class_takes_every_knob():
    # a "hard" label with simple knobs would be another class under that name;
    # problem_class is where a difficulty picks its knobs
    with pytest.raises(TypeError):
        problems.ProblemClass(seed=0, dim=2, difficulty="hard")


def test_manifest_round_trip(tmp_path):
    cls = problem_class(2, "hard", seed=9, count=4)
    path = tmp_path / "class.json"
    problems.write_manifest(cls, path)
    loaded = problems.load_manifest(path)
    assert loaded == cls
    data = json.loads(path.read_text())
    assert len(data["problems"]) == 4
    # listed optima match regenerated problems
    p3 = generate(loaded, 3)
    assert tuple(data["problems"][2]["x_star"]) == p3.known_opt[0]


def test_manifest_bytes_are_pinned(tmp_path):
    # every class knob plus the optima, byte for byte as long written; the
    # knobs are the descriptor's fields, read by load_manifest too
    path = tmp_path / "class.json"
    problems.write_manifest(problem_class(3, "hard", seed=4, count=3), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1029028d6222edfaccc2cb32d8e810a53b742d483264a305e81c6c5bcd8019b6"
    knobs = {f.name for f in dataclasses.fields(problems.ProblemClass)}
    assert set(json.loads(path.read_text())) == knobs | {"problems"}


def test_manifest_missing_keys_or_not_an_object_is_a_value_error(tmp_path):
    path = tmp_path / "class.json"
    problems.write_manifest(problem_class(2, "hard", seed=9, count=4), path)
    data = json.loads(path.read_text())
    del data["seed"], data["value_gap"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="missing seed, value_gap$"):
        problems.load_manifest(path)
    for text in ("[]", "3", "null"):
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object"):
            problems.load_manifest(path)


def test_with_audit_counts_calls():
    p, audit = with_audit(quadratic([0.5, 0.5]))
    x = np.array([0.25, 0.25])
    p.f(x)
    p.f(x)
    p.grad(x)
    assert (audit.f_calls, audit.grad_calls) == (2, 1)


def _sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def _sphere_grad(x):
    return 2.0 * np.asarray(x)


def test_problem_rejects_bounds_of_the_wrong_length():
    # dim 3 with 2-D bounds used to run run and direct_run silently in 2-D
    with pytest.raises(ValueError, match="dim is 3"):
        problems.Problem("short", 3, (0.0, 0.0), (1.0, 1.0), _sphere, _sphere_grad)
    with pytest.raises(ValueError, match="dim is 2"):
        problems.Problem("long", 2, (0.0, 0.0), (1.0, 1.0, 1.0), _sphere, _sphere_grad)
    with pytest.raises(ValueError, match="dim is 2"):  # was a TypeError from len
        problems.Problem("scalar", 2, (0.0, 0.0), 1.0, _sphere, _sphere_grad)


@pytest.mark.parametrize("dim,lower,upper", [
    (2.0, (0.0, 0.0), (1.0, 1.0)),  # run failed late with a TypeError
    (0, (), ()),  # failed in selection: "dot 1 has nonpositive d"
    (True, (0.0,), (1.0,)),  # ran as a 1-D problem
    (-1, (), ()),
    ("2", (0.0, 0.0), (1.0, 1.0)),
])
def test_problem_rejects_a_dim_that_is_no_integer_from_one(dim, lower, upper):
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        problems.Problem("bad", dim, lower, upper, _sphere, _sphere_grad)


@pytest.mark.parametrize("lower,upper", [
    ((0.0, 0.0), (1.0, -1.0)),  # upper < lower: direct_run used to accept it
    ((0.0, 0.5), (1.0, 0.5)),
    ((0.0, -math.inf), (1.0, 1.0)),
    ((0.0, 0.0), (math.nan, 1.0)),
    (("0.0", 0.0), (1.0, 1.0)),  # floats are stored, but a string is no bound
    ((False, 0.0), (True, 1.0)),  # ran on [0, 1]
    ((0.0, -10**400), (1.0, 1.0)),  # was a bare OverflowError
    (((0.0, 1.0), 0.0), (1.0, 1.0)),
    ((0.0, -1e308), (1.0, 1e308)),  # width inf: run then blamed f at x = (nan,)
])
def test_problem_rejects_empty_or_nonfinite_bounds(lower, upper):
    with pytest.raises(ValueError, match="axis"):
        problems.Problem("bad", 2, lower, upper, _sphere, _sphere_grad)
