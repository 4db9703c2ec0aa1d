import math

import numpy as np
import pytest

from lipgrad.geometry import Partition
from lipgrad.selection import (
    group_representatives,
    improvement_filter,
    nondominated,
)
from util import (
    Dot,
    flat_problem,
    live_boxes,
    nondominated_oracle,
    random_dot_set,
    reference_improvement_filter,
    reference_nondominated,
    wavy_problem,
)


def dots_from(pairs):
    return [Dot(i + 1, d, F) for i, (d, F) in enumerate(pairs)]


def test_three_dot_example():
    dots = dots_from([(1.0, 0.0), (0.5, -1.0), (0.25, -0.5)])
    hull = nondominated(dots)
    assert hull.selected == (2, 1)  # increasing d
    # dominated dot: -0.5 - 0.25k > -1 - 0.5k for every k > 0
    assert 3 not in hull.selected
    # crossover slope between the two selected dots
    assert hull.slopes == (2.0, math.inf)


def test_single_dot_selected_with_unbounded_interval():
    hull = nondominated(dots_from([(0.7, 4.2)]))
    assert hull.selected == (1,)
    assert hull.slopes == (math.inf,)


def test_small_slope_and_large_slope_winners_are_kept():
    # middle dot wins for small estimates, largest-d dot for big ones,
    # small-d dot loses everywhere
    dots = dots_from([(0.5, 5.0), (2.0, 1.0), (3.0, 2.5)])
    hull = nondominated(dots)
    assert hull.selected == (2, 3)


def test_ties_on_a_hull_dot_are_all_selected():
    dots = [Dot(1, 1.0, 0.0), Dot(2, 0.5, -1.0), Dot(3, 0.5, -1.0)]
    hull = nondominated(dots)
    assert set(hull.selected) == {1, 2, 3}
    assert hull.slopes[0] == hull.slopes[1] == 2.0


def test_collinear_dots_are_all_nondominated():
    dots = dots_from([(1.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
    hull = nondominated(dots)
    assert hull.selected == (1, 2, 3)
    assert hull.slopes[1] == hull.slopes[0] == 1.0


def test_equal_F_at_smaller_d_is_dominated():
    dots = dots_from([(1.0, 0.0), (2.0, 0.0)])
    hull = nondominated(dots)
    assert hull.selected == (2,)


def test_nondominated_validates_input():
    with pytest.raises(ValueError):
        nondominated([])
    with pytest.raises(ValueError):
        nondominated([Dot(1, 0.0, 1.0)])


def test_hull_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        dots = random_dot_set(rng)
        hull = nondominated(dots)
        assert set(hull.selected) == nondominated_oracle(dots)


def test_hull_and_filter_match_the_reference_on_ties_and_mixed_dots():
    # few distinct d and F values, so dots tie on (d, F), on d alone and on
    # F alone; each dot is a plain tuple or a named view at random
    rng = np.random.default_rng(45)
    for _ in range(2000):
        n = int(rng.integers(1, 16))
        d_values = rng.integers(1, 7, size=n) / rng.choice([3.0, 16.0])
        f_values = rng.integers(-4, 4, size=n) / rng.choice([7.0, 16.0])
        dots = []
        for box_id, d, F in zip(rng.permutation(n) + 1, d_values, f_values):
            raw = (int(box_id), float(d), float(F))
            dots.append(Dot._make(raw) if rng.random() < 0.5 else raw)
        hull = nondominated(dots)
        selected, ref_dots, slopes = reference_nondominated(dots)
        assert hull.selected == selected
        assert hull.dots == ref_dots
        assert repr(hull.slopes) == repr(slopes)
        f_min = float(rng.choice(f_values)) - float(rng.integers(0, 3)) / 8.0
        for xi in (0.0, 0.1, 1.0):
            assert improvement_filter(hull, f_min, xi) == reference_improvement_filter(
                selected, ref_dots, slopes, f_min, xi)


def test_extreme_dots_always_nondominated():
    rng = np.random.default_rng(43)
    for _ in range(100):
        dots = random_dot_set(rng)
        hull = nondominated(dots)
        f_min = min(t.F for t in dots)
        min_f_dot = max((t for t in dots if t.F == f_min), key=lambda t: t.d)
        d_max = max(t.d for t in dots)
        max_d_dot = min((t for t in dots if t.d == d_max), key=lambda t: t.F)
        assert min_f_dot.box_id in hull.selected
        assert max_d_dot.box_id in hull.selected


def test_selection_is_scale_invariant():
    rng = np.random.default_rng(44)
    for _ in range(100):
        dots = random_dot_set(rng)
        hull = nondominated(dots)
        f_min = min(t.F for t in dots)
        kept = improvement_filter(hull, f_min, 1e-4 * abs(f_min))
        scale = 4.0  # power of two: scaling is exact
        scaled = [Dot(t.box_id, t.d, scale * t.F) for t in dots]
        hull2 = nondominated(scaled)
        kept2 = improvement_filter(hull2, scale * f_min, 1e-4 * abs(scale * f_min))
        assert hull.selected == hull2.selected
        assert kept == kept2


def test_improvement_filter_examples():
    dots = dots_from([(1.0, 0.0), (0.5, -1.0)])
    hull = nondominated(dots)
    # largest-d dot passes regardless of the record
    assert 1 in improvement_filter(hull, f_min=100.0, xi=1000.0)
    # small dot needs -1 - 2*0.5 = -2 <= f_min - xi
    assert improvement_filter(hull, f_min=-1.0, xi=0.1) == [2, 1]
    assert improvement_filter(hull, f_min=-3.0, xi=0.1) == [1]


def test_lowest_dot_can_fail_the_improvement_condition():
    # the lowest dot's best bound (-1 - 0.1*1) cannot undercut f_min - xi,
    # so despite being nondominated it is excluded from subdivision
    dots = dots_from([(4.0, 0.5), (2.0, -0.9), (1.0, -1.0)])
    hull = nondominated(dots)
    assert hull.selected == (3, 2, 1)
    kept = improvement_filter(hull, f_min=-1.05, xi=0.1)
    assert kept == [2, 1]


def test_group_representatives_reports_min_F_ties():
    prob = wavy_problem(2)
    part = Partition(prob)
    for _ in range(5):
        part.trisect(1)
    raw = group_representatives(part, part.q_inf, part.q_0)
    assert all(type(t) is tuple for t in raw)  # views are made on demand only
    dots = list(map(Dot._make, raw))
    group = {t.box_id: part.boxes[t.box_id][2] for t in dots}  # each dot's group s
    assert set(group.values()) == {box.s for box in live_boxes(part)}
    for t in dots:
        assert t.F == min(box.F for box in live_boxes(part) if box.s == group[t.box_id])
    # restricting the range drops the other groups entirely
    only_top = list(map(Dot._make, group_representatives(part, part.q_inf, part.q_inf)))
    assert {part.boxes[t.box_id][2] for t in only_top} == {part.q_inf}
    # and an empty range gives no dots
    assert group_representatives(part, 2, 1) == []


def test_group_representatives_includes_equal_minima():
    prob = flat_problem(2)  # every trial value equal -> all F equal
    part = Partition(prob)
    part.trisect(1)
    dots = list(map(Dot._make, group_representatives(part, 1, 1)))
    assert sorted(t.box_id for t in dots) == [1, 2, 3]

