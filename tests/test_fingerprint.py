"""Search fingerprints: the runs must do exactly what they did when pinned.

A fingerprint is (trials, boxes, repr(f_min), stop reason, sha256 of
repr(history)); traced runs also pin the sha256 of repr(trace) and of
repr(snapshot). Any change to the order of subdivisions, to a bound or to a
box measure shows up here even when every other test still passes.
"""

import hashlib

import pytest

from lipgrad import (
    OptConfig,
    StopTarget,
    direct_run,
    directl_run,
    generate,
    problem_class,
    run,
    run_class,
)

HARD_2D = {
    run: (52, 161, "-0.8380273754537348", "target_found",
          "8681e75fe7687cc8acf179a3e61f59dabfc3663ec700923cafdb5581a1e7f9d8"),
    direct_run: (166, 163, "-0.9057061112788408", "target_found",
                 "be451b81e239a0259fb4553c7cff9d2b31bf43a15a0cd27a8726deb5d4e27308"),
    directl_run: (236, 233, "-0.9057061112788408", "target_found",
                  "66acb91d9d15bda3920d09d785d68ad8fbebe1be301ee117c01d1076f2ec4b41"),
}

# sha256 of repr(report.trace) and repr(report.snapshot) for the same runs
# with keep_trace=True
HARD_2D_TRACE = {
    run: ("6e230ca9390750f4bdc90d40a867de44c18caf1242f5d9a5005b062dd6be8c0d",
          "9746f152648368bb8b6dd1602e304918ecb3332a403ea6b24e5cf88f5cb401c1"),
    direct_run: ("995d34b95e9e8d5df556c6df89f830112955e807466854d3713abacf9bd69d40",
                 "9bdc222f395c50b1652ae7e5f41a01603d6942a840824a07442e7d4af60bf789"),
    directl_run: ("ea07c23efc7c79737f2bed907f5986cdc3cbee2c66267269a1cdf5aebc62c06b",
                  "fc056abd7a9386bad711964f57491aa3e5467cbf396ac7d49338ad69f4368c98"),
}

# the gradient method from start b, hard 2-D problem 1, traced: fingerprint,
# then sha256 of repr(trace) and repr(snapshot). Start b sets every bit of
# the first box's orientation
HARD_2D_RUN_START_B = (
    (94, 283, "-0.964535046753804", "target_found",
     "a7e966066867e1f78f4f852914efe68403b88926465383980e25f6290f022f5c"),
    "26d0052fccc6c202aa881888be523b34d99ce80ca1c72f5cc8b561e2b7fd1715",
    "a1d6135aec27a26957d710d8d55b4fa16633deb6e0948462f233ca6300c625c0",
)

SIMPLE_4D_BUDGET = (1000, 8483, "-0.8612897978931464", "budget",
                    "4947c869beca62283bf085f6a8a4d324110fdbec109fca4dc8836f24b35ae90b")

# the gradient method on the same 4-D problem, traced, from each start vertex
SIMPLE_4D_RUN_TRACED = {
    "a": (SIMPLE_4D_BUDGET,
          "a997b927cd8fba978e04187f57bf4a56c5b96f821fc50ff57c0a5a6630c90ca9",
          "f80c282bb9285c59ae34a3b91f9958eed7641849b480dbb1d426cf8b5bcb50e1"),
    "b": ((1000, 8193, "-0.19777833430045555", "budget",
           "36e7c5a1cdc6c4eec8568710729e9429411d3df99602c30b14f7e08d6b0fba9d"),
          "e08a212c019d680b601164a323b8a92913730b1eb518faf008eb07d25f378b9f",
          "f40c945717e741f190c792351ed7cf6f62c8d5af43ebb8f8b452e9b794cbfda7"),
}

# DIRECT and DIRECT-l on the same 4-D problem to a 2k-trial budget, traced:
# fingerprint, then sha256 of repr(trace) and repr(snapshot). In 4-D one
# split covers several axes, so each split makes children on up to four axes
SIMPLE_4D_BASELINES = {
    direct_run: ((2000, 1999, "7.629165126280283e-14", "budget",
                  "987ee4907e4ba2316162407091e784cd2d66abf88b1405b1b74b998e4c8792de"),
                 "18ff608d16c3e0fbc3f55ee1c3ad1d59c1696dad4b937887de214bc3a65029cb",
                 "b9ee4d419424279746168dde94665e3157c19b234ecbe7d1e0cd0ce4e0c89a6f"),
    directl_run: ((2000, 1997, "9.586841691876295e-27", "budget",
                   "ad5b20cd1fc079b00d0563ddef98f817721496fa9c9866d45f1717f58d072235"),
                  "99c1fee763dec7af0049b57f11e858717a70030fdc98a3f9d25d593c91b570b7",
                  "434711f9655f920fe34a958a1617e7913154301e1d4e347578b5f8a523f9b003"),
}

# sha256 of report.json from run_class(new, direct, directl) on hard:2:20,
# seed 0, delta 1e-4, p_max 100_000: all 60 runs of the class comparison
HARD_2D_CLASS_REPORT = "927c67d9f89426b3816878994ad42f9e670ca1e1c984ae186d1ca43c052a9aae"
# the same for simple:3:20, whose DIRECT-l runs meet the rounding past depth
# 32 that the center boxes' floor rebuild corrects
SIMPLE_3D_CLASS_REPORT = "d526faf619eb02bc35d1509d80ed33c7307b84a6ca2d63587aabe35a0cab70f4"


def sha256_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(report):
    return (report.trials, report.boxes, repr(report.f_min), report.stop_reason,
            sha256_repr(report.history))


def hard_2d_problem_and_config(keep_trace=False, start_vertex="a"):
    prob = generate(problem_class(2, "hard", seed=0, count=20), 1)
    cfg = OptConfig(target=StopTarget(prob.known_opt[0], 1e-4), p_max=100_000,
                    keep_trace=keep_trace, start_vertex=start_vertex)
    return prob, cfg


def traced_pin(report):
    return fingerprint(report), sha256_repr(report.trace), sha256_repr(report.snapshot)


@pytest.mark.parametrize("method", list(HARD_2D), ids=lambda m: m.__name__)
def test_hard_2d_target_runs_match_pinned_fingerprint(method):
    prob, cfg = hard_2d_problem_and_config()
    assert fingerprint(method(prob, cfg)) == HARD_2D[method]


@pytest.mark.parametrize("method", list(HARD_2D_TRACE), ids=lambda m: m.__name__)
def test_hard_2d_traced_runs_match_pinned_trace_and_snapshot(method):
    # keeping the trace must not change the search, and the trace rows and
    # final boxes must be exactly those pinned
    prob, cfg = hard_2d_problem_and_config(keep_trace=True)
    report = method(prob, cfg)
    assert fingerprint(report) == HARD_2D[method]
    assert (sha256_repr(report.trace), sha256_repr(report.snapshot)) == HARD_2D_TRACE[method]


def test_hard_2d_start_b_traced_run_matches_pinned_trace_and_snapshot():
    prob, cfg = hard_2d_problem_and_config(keep_trace=True, start_vertex="b")
    assert traced_pin(run(prob, cfg)) == HARD_2D_RUN_START_B


def test_simple_4d_budget_run_matches_pinned_fingerprint():
    prob = generate(problem_class(4, "simple", seed=11, count=20), 1)
    assert fingerprint(run(prob, OptConfig(p_max=1000))) == SIMPLE_4D_BUDGET


@pytest.mark.parametrize("start", list(SIMPLE_4D_RUN_TRACED))
def test_simple_4d_traced_run_matches_pinned_trace_and_snapshot(start):
    prob = generate(problem_class(4, "simple", seed=11, count=20), 1)
    report = run(prob, OptConfig(p_max=1000, keep_trace=True, start_vertex=start))
    assert traced_pin(report) == SIMPLE_4D_RUN_TRACED[start]


@pytest.mark.parametrize("method", list(SIMPLE_4D_BASELINES), ids=lambda m: m.__name__)
def test_simple_4d_baseline_runs_match_pinned_trace_and_snapshot(method):
    prob = generate(problem_class(4, "simple", seed=11, count=20), 1)
    report = method(prob, OptConfig(p_max=2000, keep_trace=True))
    pinned, trace, snapshot = SIMPLE_4D_BASELINES[method]
    assert fingerprint(report) == pinned
    assert (sha256_repr(report.trace), sha256_repr(report.snapshot)) == (trace, snapshot)


def test_hard_2d_class_report_matches_pinned_hash(tmp_path):
    cls = problem_class(2, "hard", seed=0, count=20)
    run_class(["new", "direct", "directl"], cls, delta=1e-4, p_max=100_000,
              workers=1, out_dir=tmp_path)
    payload = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == HARD_2D_CLASS_REPORT


def test_simple_3d_class_report_matches_pinned_hash(tmp_path):
    cls = problem_class(3, "simple", seed=0, count=20)
    run_class(["new", "direct", "directl"], cls, delta=1e-4, p_max=100_000,
              workers=1, out_dir=tmp_path)
    payload = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == SIMPLE_3D_CLASS_REPORT
