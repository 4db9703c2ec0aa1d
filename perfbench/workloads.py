"""Workloads of the lipgrad benchmark: inputs, timed runs and output checks.

A workload is a panel of units made from the workload seed. A budget unit is
one generated problem solved by ``run`` until its trial budget is spent; a
class unit is one ``run_class`` comparison on a generated class. Every unit
is repeated, and each repeat is checked against its behaviour fingerprint,
so a speed-up can never come from a different search.

Timing on a shared machine: other tenants slow the CPU, in bursts of
milliseconds and in stretches of a minute or more. Each repeat of a unit
does exactly the same work (the fingerprint proves it), so the objective the
benchmark hands in stamps the clock every ``chunk`` calls, and every chunk
counts at its fastest repeat. This removes the bursts; the stretches remain
and set the run-to-run spread.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

perf_counter = time.perf_counter

METHODS = ("new", "direct", "directl")
F_STAR = -1.0  # global minimum value of every generated problem
PANEL_CLASS_COUNT = 1000  # bounds the problem index only; problems do not depend on it


@dataclass(frozen=True)
class Spec:
    """Fixed parameters of one workload.

    ``unit_s`` is the seed code's wall time for one unit with all its
    repeats; a run of ``--seconds`` measures ``round(seconds / unit_s)``
    units, so the amount of work depends on the requested length only and
    never on how fast the code under test is.
    """

    name: str
    kind: str  # "budget" or "class"
    dim: int
    difficulty: str
    default_seed: int
    p_max: int
    repeats: int
    unit_s: float
    chunk: int = 1  # objective calls per timed chunk
    count: int = 0  # problems per class (class workloads)
    delta: float = 1e-4  # target accuracy (class workloads)

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def methods(self) -> tuple[str, ...]:
        return ("new",) if self.kind == "budget" else METHODS


SPECS = {
    spec.name: spec
    for spec in (
        Spec("budget-4d", "budget", 4, "simple", 11, 5_000, repeats=6,
             unit_s=16.0, chunk=1),
        Spec("class-hard-2d", "class", 2, "hard", 0, 100_000, repeats=8,
             unit_s=9.2, chunk=2, count=20),
    )
}


def unit_keys(spec: Spec, seed: int, n: int) -> list[str]:
    """Input of each unit: ``class_seed/index`` for budget, ``class_seed`` for class."""
    if spec.kind == "budget":
        return [f"{seed}/{i}" for i in range(1, n + 1)]
    return [str(seed + i) for i in range(n)]


def problem_for(lg, spec: Spec, key: str):
    class_seed, index = (int(v) for v in key.split("/"))
    cls = lg.problem_class(spec.dim, spec.difficulty, seed=class_seed,
                           count=PANEL_CLASS_COUNT)
    return lg.problems.generate(cls, index)


def class_for(lg, spec: Spec, key: str):
    return lg.problem_class(spec.dim, spec.difficulty, seed=int(key), count=spec.count)


# -- fingerprints and invariants -----------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(report) -> list:
    """Trials, boxes, exact f_min, stop reason and the hash of the history."""
    return [report.trials, report.boxes, repr(report.f_min), report.stop_reason,
            sha256(repr(report.history).encode())]


def run_problems(report) -> list[str]:
    """Invariants every run must meet, whatever its input."""
    bad = []
    if not report.f_min >= F_STAR - 1e-12:
        bad.append(f"f_min {report.f_min!r} below the known minimum")
    hist = report.history
    if not hist or hist[-1][0] != report.trials:
        bad.append("history does not end at the final trial count")
    if any(b[1] > a[1] for a, b in zip(hist, hist[1:])):
        bad.append("record value increased along the history")
    return bad


def budget_problems(spec: Spec, report) -> list[str]:
    bad = run_problems(report)
    if report.trials != spec.p_max or report.stop_reason != "budget":
        bad.append(f"stopped at {report.trials} trials ({report.stop_reason}), "
                   f"expected the budget {spec.p_max}")
    if report.boxes % 2 != 1:
        bad.append(f"{report.boxes} boxes cannot come from trisections")
    return bad


def class_problems(spec: Spec, report, runs) -> list[str]:
    """Per-run invariants plus C1-C4 recomputed from the report rows."""
    bad = []
    rows = [row for row in report.rows if row["valid"]]
    flat = [(row["index"], m, row["results"][m]) for row in rows for m in report.methods]
    if len(flat) != len(runs):
        return [f"{len(runs)} runs recorded for {len(flat)} report entries"]
    for (index, method, res), (name, _, rep) in zip(flat, runs):
        bad += [f"problem {index} {method}: {msg}" for msg in run_problems(rep)]
        if name != method or res["trials"] != rep.trials or res["boxes"] != rep.boxes:
            bad.append(f"problem {index} {method}: row disagrees with its run")
        if res["solved"] != (rep.stop_reason == "target_found"):
            bad.append(f"problem {index} {method}: solved flag disagrees with stop reason")
        if rep.stop_reason == "budget" and rep.trials != spec.p_max:
            bad.append(f"problem {index} {method}: budget stop below p_max")
        if rep.stop_reason not in ("budget", "target_found"):
            bad.append(f"problem {index} {method}: stop reason {rep.stop_reason!r}")
    for m in report.methods:
        trials = [row["results"][m]["trials"] for row in rows]
        solved = [row["results"][m]["solved"] for row in rows]
        charged = [t if ok else spec.p_max for t, ok in zip(trials, solved)]
        worst = max(trials)
        first = trials.index(worst) + 1
        expect = {
            "c1": [worst, first, solved.count(False)],
            "c2": [row["results"][m]["boxes"] for row in rows][first - 1],
            "c3": sum(charged) / len(charged),
            "fifty": sorted(trials)[(len(trials) + 1) // 2 - 1],
        }
        got = {k: report.summaries[m][k] for k in expect}
        if got != expect:
            bad.append(f"{m}: summary {got} != recomputed {expect}")
    new = [row["results"]["new"]["trials"] for row in rows]
    for m in report.methods[1:]:
        other = [row["results"][m]["trials"] for row in rows]
        p = sum(1 for a, b in zip(new, other) if b < a)
        q = sum(1 for a, b in zip(new, other) if a < b)
        if tuple(report.c4[m]) != (p, q):
            bad.append(f"C4 {m}:new {report.c4[m]} != recomputed {(p, q)}")
    return bad


def warn(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


# -- timing ------------------------------------------------------------------------

def timed_run(solve, problem, config, chunk: int):
    """Solve once; returns the report and the seconds of each ``chunk`` trials.

    The clock is stamped from inside the objective the benchmark hands in,
    every ``chunk`` calls, so the chunks of two repeats are the same work.
    """
    f = problem.f
    marks: list[float] = []
    calls = 0

    def f_clocked(x):
        nonlocal calls
        calls += 1
        if calls % chunk == 0:
            marks.append(perf_counter())
        return f(x)

    start = perf_counter()
    report = solve(dataclasses.replace(problem, f=f_clocked), config)
    stamps = [start, *marks, perf_counter()]
    return report, [b - a for a, b in zip(stamps, stamps[1:])]


def fastest_chunks(repeats: list[list[float]]) -> float:
    """Sum over chunks of each chunk's fastest repeat.

    Repeats that did other work (a failed fingerprint) are left out.
    """
    same = [r for r in repeats if len(r) == len(repeats[0])]
    return sum(min(times) for times in zip(*same))


# -- units ---------------------------------------------------------------------------

def class_pass(lg, spec: Spec, cls, scratch: Path):
    """One run_class call; returns (report, report.json bytes, runs, wall seconds).

    ``runs`` lists (method, chunk seconds, RunReport) per (problem, method)
    run, timed by wrapping the ``run_method`` dispatch that ``run_class``
    calls.
    """
    runs = []
    dispatch = lg.bench.run_method

    def timed(name, problem, config):
        def solve(p, c):
            return dispatch(name, p, c)
        report, times = timed_run(solve, problem, config, spec.chunk)
        runs.append((name, times, report))
        return report

    lg.bench.run_method = timed
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            start = perf_counter()
            report = lg.bench.run_class(METHODS, cls, spec.delta, spec.p_max,
                                        workers=1, out_dir=out)
            wall = perf_counter() - start
            payload = (Path(out) / "report.json").read_bytes()
    finally:
        lg.bench.run_method = dispatch
    return report, payload, runs, wall


def class_fingerprint(payload: bytes, runs) -> dict:
    lines = json.dumps([[name, *fingerprint(rep)] for name, _, rep in runs])
    return {"report_json": sha256(payload), "runs": sha256(lines.encode())}


class Unit:
    """One unit of a panel: its repeats, their checks and their timings.

    A repeat is one solve (budget) or one run_class call (class). A run is
    one (problem, method) solve, the unit in which failures are counted.
    """

    def __init__(self, spec: Spec, key: str, item, pinned: dict):
        self.spec, self.key, self.item = spec, key, item
        self.expected = pinned.get(key)
        self.n_runs = spec.count * len(METHODS) if spec.kind == "class" else 1
        self.attempted = self.failed = 0
        self.prints: list = []
        self.repeats: list = []  # ([(method, chunk seconds, trials, boxes) per run], wall)

    def repeat(self, lg, scratch: Path) -> None:
        spec = self.spec
        self.attempted += self.n_runs
        gc.collect()  # every repeat starts from the same heap, so collections line up
        try:
            if spec.kind == "budget":
                report, times = timed_run(lg.run, self.item, lg.OptConfig(p_max=spec.p_max),
                                          spec.chunk)
                runs, wall = [("new", times, report)], sum(times)
                fp, bad = fingerprint(report), budget_problems(spec, report)
            else:
                report, payload, runs, wall = class_pass(lg, spec, self.item, scratch)
                fp, bad = class_fingerprint(payload, runs), class_problems(spec, report, runs)
        except Exception:
            warn(f"{spec.name} {self.key}: raised\n{traceback.format_exc()}")
            self.failed += self.n_runs
            return
        if self.expected is not None and fp != self.expected:
            bad.append(f"fingerprint {fp} != pinned {self.expected}")
        if self.prints and fp != self.prints[0]:
            bad.append("repeats disagree")
        if bad:
            warn(f"{spec.name} {self.key}: " + "; ".join(bad))
            self.failed += self.n_runs
        self.prints.append(fp)
        self.repeats.append(
            ([(name, times, rep.trials, rep.boxes) for name, times, rep in runs], wall))

    def result(self) -> dict:
        """Each run at its fastest chunks, plus the fastest time spent outside runs."""
        out = {"key": self.key, "attempted": self.attempted, "failed": self.failed,
               "trials": 0, "seconds": 0.0, "repeat_s": [], "runs": []}
        if not self.repeats:
            return out
        first = self.repeats[0][0]
        same = [runs for runs, _ in self.repeats if len(runs) == len(first)]
        per_run = [fastest_chunks([runs[i][1] for runs in same]) for i in range(len(first))]
        outside = min(wall - sum(sum(run[1]) for run in runs) for runs, wall in self.repeats)
        out.update(
            trials=sum(run[2] for run in first),
            seconds=sum(per_run) + max(0.0, outside),
            repeat_s=[wall for _, wall in self.repeats],
            runs=[[name, t, trials] for (name, _, trials, _), t in zip(first, per_run)],
        )
        return out
