import itertools
import math

import numpy as np
import pytest

from lipgrad.bounding import characterize
from util import (
    eval_minorant, half_diag_sq, make_box, make_vertex, min_sum_F, random_box_corners,
    random_quadratic, root_characterize,
)


def rec(f, grad):
    """The first two items of a vertex record: (f_value, gradient)."""
    return (float(f), tuple(float(g) for g in grad))


def F_of(box, r):
    """F of a box whose trial vertex has record ``r``."""
    return root_characterize(r, box.a_real, box.b_real)[0]


def test_F_value_examples():
    box = make_box(make_vertex(0, 0), make_vertex(1, 1))
    assert F_of(box, rec(5.0, (1.0, -2.0))) == 3.0
    assert F_of(box, rec(5.0, (0.0, 0.0))) == 5.0
    rev = make_box(make_vertex(1, 0), make_vertex(0, 1))
    assert F_of(rev, rec(0.0, (3.0, -1.0))) == -4.0
    # a zero partial adds nothing on either orientation
    flipped = make_box(make_vertex(1, 1), make_vertex(0, 0))
    assert F_of(flipped, rec(5.0, (0.0, 0.0))) == 5.0


def test_F_never_exceeds_value_at_trial_vertex():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = random_box_corners(rng, dim=3)
        box = make_box(a, b)
        r = rec(rng.normal(), rng.normal(size=3))
        assert F_of(box, r) <= r[0] + 1e-15


def R(box, r, khat):
    """The certified bound F - khat * d of a box."""
    return F_of(box, r) - khat * box.d


def test_characteristic_R_examples():
    box = make_box(make_vertex(0, 0), make_vertex(1, 1))  # d = 1
    flat = rec(3.0, (0.0, 0.0))
    assert R(box, flat, 4.0) == -1.0
    assert math.isclose(R(box, flat, 1e-12), 3.0)


def test_characteristic_R_bounds_quadratic_on_box():
    # f(x) = |x|^2 on the unit square: f(a)=0, grad 0, R(K=2) = -2 <= min f = 0
    box = make_box(make_vertex(0, 0), make_vertex(1, 1))
    r = rec(0.0, (0.0, 0.0))
    assert R(box, r, 2.0) == -2.0
    grid = np.linspace(0, 1, 50)
    grid_min = min(x * x + y * y for x in grid for y in grid)
    assert R(box, r, 2.0) <= grid_min + 1e-9


def test_R_strictly_decreases_in_khat_and_F_does_not_move():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = random_box_corners(rng, dim=2)
        box = make_box(a, b)
        r = rec(rng.normal(), rng.normal(size=2))
        k1, k2 = sorted(rng.uniform(0.1, 10.0, size=2))
        if k1 == k2:
            continue
        r1 = R(box, r, k1)
        r2 = R(box, r, k2)
        assert r2 < r1
        assert math.isclose(r1 - r2, (k2 - k1) * box.d, rel_tol=1e-12, abs_tol=1e-12)


def test_eval_minorant_at_anchor_and_quadratic():
    box = make_box(make_vertex(0, 0), make_vertex(1, 1))
    r = rec(0.0, (0.0, 0.0))  # f(x) = |x|^2 at a = origin
    assert eval_minorant(box, r, 2.0, (0.0, 0.0)) == 0.0
    assert eval_minorant(box, r, 2.0, (1.0, 1.0)) == -2.0
    with pytest.raises(ValueError):
        eval_minorant(box, r, 2.0, (1.5, 0.5))


def test_minorant_stays_below_quadratics():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        prob, _ = random_quadratic(rng, dim)
        a, b = random_box_corners(rng, dim=dim)
        box = make_box(a, b)
        x_a = np.asarray(box.a_real)
        r = rec(prob.f(x_a), prob.grad(x_a))
        for khat in (prob.known_K, 2 * prob.known_K, 10 * prob.known_K):
            for _ in range(30):
                x = np.array(
                    [rng.uniform(min(p, q), max(p, q))
                     for p, q in zip(box.a_real, box.b_real)]
                )
                assert eval_minorant(box, r, khat, x) <= prob.f(x) + 1e-9


def test_F_matches_vertex_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        a, b = random_box_corners(rng, dim=dim)
        box = make_box(a, b)
        grad = rng.normal(size=dim)
        r = rec(rng.normal(), grad)
        # independent oracle: evaluate the linear model at all 2^dim vertices
        lowest = min(
            r[0]
            + sum(
                g * ((q if pick else p) - p)
                for g, p, q, pick in zip(grad, box.a_real, box.b_real, picks)
            )
            for picks in itertools.product((False, True), repeat=dim)
        )
        assert abs(F_of(box, r) - lowest) < 1e-12


def test_characterize_caches_box_geometry():
    # the (d, F) dot of a box: both from one characterize call
    box = make_box(make_vertex(0, 0), make_vertex(1, 1))
    assert box.d == 1.0
    assert root_characterize(rec(5.0, (1.0, -2.0)), box.a_real, box.b_real) == (3.0, 1.0)


def test_characterize_matches_the_min_sum_bit_for_bit():
    def check_root(a_real, b_real, r):
        F, d = root_characterize(r, a_real, b_real)
        assert repr(F) == repr(min_sum_F(r, a_real, b_real)), (a_real, b_real, r)
        assert repr(d) == repr(half_diag_sq(a_real, b_real)), (a_real, b_real)

    cases = [
        # zero gradient components and zero-width sides: products of +-0.0
        ((0.0, 1.0), (1.0, 0.0), rec(5.0, (0.0, -0.0))),
        ((0.0, 1.0), (0.0, 1.0), rec(5.0, (-1.0, 1.0))),
        ((1.0, 0.0), (1.0, 0.0), rec(-0.0, (-2.0, 3.0))),
        ((0.5, 0.5), (0.0, 1.0), rec(-0.0, (-0.0, 0.0))),
        # reversed boxes, both signs of the gradient
        ((1.0, 1.0), (0.0, 0.0), rec(0.0, (3.0, -1.0))),
        ((0.7, 0.2, 0.9), (0.1, 0.8, 0.3), rec(-2.5, (1e-3, -4.0, 7.5))),
        # products that overflow to +inf (dropped) and -inf (kept)
        ((0.0, 0.0), (1e10, 1.0), rec(1.0, (1e300, -1.0))),
        ((0.0, 0.0), (-1e10, 1.0), rec(1.0, (1e300, 2.0))),
        ((1e308, 0.0), (-1e308, 1.0), rec(1.0, (-2.0, -3.0))),
    ]
    for a_real, b_real, r in cases:
        check_root(a_real, b_real, r)

    # every axis of random boxes, b above or below a, gradients with zero,
    # negative and positive components: each child against the per-box sum
    rng = np.random.default_rng(20)
    orientations = set()
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        a_real = tuple(rng.normal(size=dim).tolist())
        b_real = tuple(rng.normal(size=dim).tolist())
        scale = rng.choice([0.0, 1.0, 1e-300, 1e300], size=(2, dim))
        a_rec = rec(rng.normal(), rng.normal(size=dim) * scale[0])
        u_rec = rec(rng.normal(), rng.normal(size=dim) * scale[1])
        check_root(a_real, b_real, a_rec)
        for i in range(dim):
            u_i = a_real[i] + 2 * (b_real[i] - a_real[i]) / 3
            v_i = a_real[i] + (b_real[i] - a_real[i]) / 3
            u_real = a_real[:i] + (u_i,) + a_real[i + 1:]
            v_real = b_real[:i] + (v_i,) + b_real[i + 1:]
            got = characterize(a_rec, u_rec, a_real, b_real, i, u_i, v_i)
            expected = (min_sum_F(u_rec, u_real, v_real), min_sum_F(a_rec, a_real, v_real),
                        min_sum_F(u_rec, u_real, b_real), half_diag_sq(u_real, v_real))
            assert list(map(repr, got)) == list(map(repr, expected)), (a_real, b_real, i)
            # the three children share their sides up to rounding on axis i
            for corners in ((a_real, v_real), (u_real, b_real)):
                assert got[3] == pytest.approx(half_diag_sq(*corners), rel=1e-12, abs=1e-300)
            orientations.add(b_real[i] < a_real[i])
    assert orientations == {False, True}
