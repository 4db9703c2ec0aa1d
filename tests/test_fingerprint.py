"""Search fingerprints: the runs must do exactly what they did when pinned.

A fingerprint is (trials, boxes, repr(f_min), stop reason, sha256 of
repr(history)). Any change to the order of subdivisions, to a bound or to a
box measure shows up here even when every other test still passes.
"""

import hashlib

import pytest

from lipgrad import OptConfig, StopTarget, direct_run, directl_run, generate, problem_class, run

HARD_2D = {
    run: (52, 161, "-0.8380273754537348", "target_found",
          "8681e75fe7687cc8acf179a3e61f59dabfc3663ec700923cafdb5581a1e7f9d8"),
    direct_run: (166, 163, "-0.9057061112788408", "target_found",
                 "be451b81e239a0259fb4553c7cff9d2b31bf43a15a0cd27a8726deb5d4e27308"),
    directl_run: (236, 233, "-0.9057061112788408", "target_found",
                  "66acb91d9d15bda3920d09d785d68ad8fbebe1be301ee117c01d1076f2ec4b41"),
}

SIMPLE_4D_BUDGET = (1000, 8483, "-0.8612897978931464", "budget",
                    "4947c869beca62283bf085f6a8a4d324110fdbec109fca4dc8836f24b35ae90b")


def fingerprint(report):
    digest = hashlib.sha256(repr(report.history).encode()).hexdigest()
    return (report.trials, report.boxes, repr(report.f_min), report.stop_reason, digest)


@pytest.mark.parametrize("method", list(HARD_2D), ids=lambda m: m.__name__)
def test_hard_2d_target_runs_match_pinned_fingerprint(method):
    prob = generate(problem_class(2, "hard", seed=0, count=20), 1)
    cfg = OptConfig(target=StopTarget(prob.known_opt[0], 1e-4), p_max=100_000)
    assert fingerprint(method(prob, cfg)) == HARD_2D[method]


def test_simple_4d_budget_run_matches_pinned_fingerprint():
    prob = generate(problem_class(4, "simple", seed=11, count=20), 1)
    assert fingerprint(run(prob, OptConfig(p_max=1000))) == SIMPLE_4D_BUDGET
