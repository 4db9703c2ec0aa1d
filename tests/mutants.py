"""Single-line mutants of the library, and what tier-1 makes of each.

Each mutant replaces one line of a file under ``src/lipgrad``: its anchor,
which may carry neighbouring lines so that it occurs exactly once, becomes
its replacement. A mutant is expected to be killed (tier-1 fails) unless it
is listed as equivalent (no run can tell it apart) or pending (a planned
change of the search will kill it), with the reason.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME ...   # run the named mutants
    python tests/mutants.py --check    # only check the anchors, in well under a second

A run copies ``src``, ``tests``, ``README.md`` and ``pyproject.toml`` to a
temporary directory, applies the mutant there and runs tier-1 with ``-x``.
It prints one line per mutant: killed with the test that failed first,
survived, or equivalent / pending with the reason. The exit code is 1 when
an outcome differs from the list, or, with ``--check``, when an anchor does
not occur exactly once or its replacement changes other than one line.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
LIB = ROOT / "src" / "lipgrad"
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
          "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/lipgrad
    anchor: str
    replacement: str
    expect: str = "killed"  # or "equivalent" or "pending"
    reason: Optional[str] = None  # why an equivalent or pending mutant survives


MUTANTS = [
    # the hull and the margin filter
    Mutant("hull-pop-collinear", "selection.py",
           "(F - F1) - (F2 - F1) * (d - d1) < 0",
           "(F - F1) - (F2 - F1) * (d - d1) <= 0"),
    Mutant("hull-drop-ties", "selection.py",
           "hull[-1][2].append(dot)",
           "pass"),
    Mutant("hull-start-lowest-d", "selection.py",
           "if F <= f_min:",
           "if F < f_min:"),
    Mutant("margin-strict", "selection.py",
           "F - k_hi * d <= f_min - xi",
           "F - k_hi * d < f_min - xi"),
    # the stop rules
    Mutant("diagonal-strict", "stopping.py",
           "if rel <= state.config.diagonal:",
           "if rel < state.config.diagonal:"),
    Mutant("target-strict", "stopping.py",
           "if not abs(xi - si) <= half_width:",
           "if not abs(xi - si) < half_width:"),
    # the gradient method
    Mutant("one-percent-strict", "optimizer.py",
           "return f_min <= f_prec - 0.01 * abs(f_prec)",
           "return f_min < f_prec - 0.01 * abs(f_prec)"),
    Mutant("aligned-strict", "optimizer.py",
           "g * (br - ar) >= 0.0",
           "g * (br - ar) > 0.0"),
    Mutant("record-box-smallest-d", "optimizer.py",
           "(box[0], -box[6], box[1])",
           "(box[0], box[6], box[1])"),
    # the certified bound and the partition
    Mutant("minorant-drops-high-term", "bounding.py",
           "t = gu[j] * (b_real[j] - u_i)\n            if t < 0.0:",
           "t = gu[j] * (b_real[j] - u_i)\n            if t > 0.0:"),
    Mutant("q-inf-never-advances", "geometry.py",
           "if split is not None and split[2] == self.q_inf:",
           "if split is not None and split[2] < self.q_inf:"),
    Mutant("q-inf-advances-once", "geometry.py",
           "while heap_min(groups[self.q_inf], boxes) is None:",
           "if heap_min(groups[self.q_inf], boxes) is None:",
           "equivalent", "a split files a child in group s + 1 before the split box "
           "retires, so group q_inf + 1 is never empty when q_inf advances"),
    Mutant("split-axis-highest-on-ties", "geometry.py",
           "i = max(range(len(k)), key=lambda j: nums[j] * pow3(top - k[j]))",
           "i = max(reversed(range(len(k))), key=lambda j: nums[j] * pow3(top - k[j]))"),
    # the problem boundary and the generator
    Mutant("finite-check-lets-inf-through", "problems.py",
           "if not math.isfinite(value):",
           "if math.isnan(value):"),
    Mutant("ball-reach-without-margin", "problems.py",
           "r * (1.0 + 2.0 ** -20)",
           "r"),
    Mutant("terms-square-as-product", "problems.py",
           "(1.0 - u) ** 2",
           "(1.0 - u) * (1.0 - u)",
           "pending", "192 of 200,000 u round differently; ROADMAP item 19b re-pins "
           "the search with this change on purpose"),
    # the baselines
    Mutant("directl-level-tie-to-later", "baselines.py",
           "box < levels[level]",
           "box <= levels[level]",
           "equivalent", "box tuples carry unique ids, so two never compare equal"),
    Mutant("center-by-float-half", "baselines.py",
           "lo + (2 * num + 1) / (2 * pow3(dep)) * ed",
           "lo + (num + 0.5) / pow3(dep) * ed"),
    Mutant("sample-by-float-half", "baselines.py",
           "x_lo = head + (lo + (2 * lo_num + 1) / side * ed,) + tail",
           "x_lo = head + (lo + (lo_num + 0.5) / pow3(dmin + 1) * ed,) + tail"),
    Mutant("diag-d-float-sum", "baselines.py",
           "return (9 * (dim - r) + r) / (2 * pow3(2 * k + 2))",
           "return 0.5 * ((dim - r) / pow3(2 * k) + r / pow3(2 * k + 2))"),
    Mutant("level-d-float-divisor", "baselines.py",
           "1 / (2 * pow3(2 * level))",
           "0.5 / pow3(2 * level)"),
    # the shared loop: each deleted check hid nothing
    Mutant("record-phase-skips-its-last-row", "optimizer.py",
           "            break\n    log_history(state)",
           "            return\n    log_history(state)"),
    Mutant("margin-signed", "selection.py",
           "epsilon * abs(f_min)",
           "epsilon * f_min"),
    Mutant("group-range-drops-its-top", "selection.py",
           "range(s_lo, s_hi + 1)",
           "range(s_lo, s_hi)"),
    Mutant("split-goes-on-after-a-stop", "baselines.py",
           "if self.stop_reason:  # fired at x_lo or x_hi: _sample takes no trial after it",
           "if False:  # fired at x_lo or x_hi: _sample takes no trial after it"),
    Mutant("sample-after-a-stop", "baselines.py",
           "        if not self.stop_reason:\n            value = self.problem.value(x)",
           "        if True:\n            value = self.problem.value(x)"),
    Mutant("slopes-unbounded", "selection.py",
           "slopes.append(k_hi)",
           "slopes.append(math.inf)"),
    # off the pinned paths: the report's boundary, the row memo, the grid's
    # edge, the trace reader, the axis rule, the quadratic's arguments, the
    # 50% mark, the manifest reader, the float reader and the class's knobs
    Mutant("class-report-methods-unchecked", "bench.py",
           "self.methods = check_methods(self.methods)",
           "self.methods = list(self.methods)"),
    Mutant("memo-miss-is-none", "bench.py",
           "_MISS = object()  # a memo miss; f may return any value, None too",
           "_MISS = None  # a memo miss; f may return any value, None too"),
    Mutant("edge-never-shortened", "geometry.py",
           "while lower + e > upper:",
           "while False:"),
    Mutant("edge-shortened-once", "geometry.py",
           "while lower + e > upper:",
           "if lower + e > upper:",
           "equivalent", "upper - lower rounds up by at most half the float step below "
           "e, so one step down puts lower + e at or below upper"),
    Mutant("trace-reads-points-off-the-domain", "bench.py",
           "and all(lo <= v <= hi for v, lo, hi in zip(x, lower, upper))",
           "and True"),
    Mutant("axis-allows-equal-bounds", "problems.py",
           "and lo < hi and math.isfinite(float(hi) - float(lo))",
           "and lo <= hi and math.isfinite(float(hi) - float(lo))"),
    Mutant("class-report-forgets-row-indices", "bench.py",
           'seen.add(row["index"])',
           "pass"),
    Mutant("quadratic-matrix-any-2d-shape", "problems.py",
           "if A is None or A.shape != (n, n)",
           "if A is None or A.ndim != 2"),
    Mutant("fifty-percent-rounds-down", "bench.py",
           "k = (len(trials) + 1) // 2",
           "k = len(trials) // 2"),
    Mutant("manifest-keeps-radius-range-a-list", "problems.py",
           'if isinstance(knobs["radius_range"], list):',
           "if False:"),
    Mutant("floats-reads-any-object-array", "problems.py",
           'reals = kind == "O" and all(isinstance(e, numbers.Real) for e in a.flat)',
           'reals = kind == "O"'),
    Mutant("problem-class-takes-seed-minus-one", "problems.py",
           'v, least = getattr(self, name), 0 if name == "seed" else 1',
           'v, least = getattr(self, name), -1 if name == "seed" else 1'),
]


def anchor_errors() -> list[str]:
    """Every mutant whose anchor does not occur exactly once, or whose
    replacement does not change exactly one of the anchor's lines."""
    errors, names = [], set()
    for m in MUTANTS:
        if m.name in names:
            errors.append(f"{m.name}: listed twice")
        names.add(m.name)
        count = (LIB / m.file).read_text(encoding="utf-8").count(m.anchor)
        if count != 1:
            errors.append(f"{m.name}: anchor occurs {count} times in {m.file}")
        old, new = m.anchor.split("\n"), m.replacement.split("\n")
        if len(old) != len(new) or sum(a != b for a, b in zip(old, new)) != 1:
            errors.append(f"{m.name}: the replacement must change exactly one line")
        if (m.expect == "killed") != (m.reason is None):
            errors.append(f"{m.name}: only an equivalent or pending mutant gives a reason")
    return errors


def run_mutant(m: Mutant) -> tuple[str, float]:
    """``killed by`` the failing test or ``survived``, and the seconds tier-1
    took on a copy with ``m``."""
    with tempfile.TemporaryDirectory(prefix="lipgrad-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, copy / name)
        path = copy / "src" / "lipgrad" / m.file
        path.write_text(path.read_text(encoding="utf-8").replace(m.anchor, m.replacement),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(TIER_1, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return "survived", seconds
        # pytest's short summary names the failure: FAILED or ERROR, the test, " - " and why
        failed = [line.split(" - ")[0].split()[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return f"killed by {failed[0] if failed else f'exit code {done.returncode}'}", seconds


def main(argv: list[str]) -> int:
    errors = anchor_errors()
    if errors or argv == ["--check"]:
        print("\n".join(errors) or f"{len(MUTANTS)} anchors, each once")
        return 1 if errors else 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    wrong = 0
    for m in MUTANTS:
        if argv and m.name not in argv:
            continue
        outcome, seconds = run_mutant(m)
        expected = "survived" if m.reason else "killed"
        label = f"{m.expect}: {m.reason}" if m.reason and outcome == "survived" else outcome
        mark = "" if outcome.startswith(expected) else f"  UNEXPECTED, listed as {m.expect}"
        wrong += not outcome.startswith(expected)
        print(f"{m.name:<34} {m.file:<13} {seconds:6.1f} s  {label}{mark}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
