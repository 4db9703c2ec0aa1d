"""Self-test of the benchmark at tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric of ``BENCHMARK.json`` prints with its unit, in
both modes and on both kinds of workload; that a wrong expected fingerprint
is counted as failed runs without aborting the run; and that the benchmark
refuses to run without the lipgrad sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SPECS  # noqa: E402

TINY = {
    "budget-4d": dataclasses.replace(SPECS["budget-4d"], p_max=300, unit_s=1.0, repeats=2),
    "class-hard-2d": dataclasses.replace(SPECS["class-hard-2d"], unit_s=1.0, count=3,
                                         repeats=2),
}
WRONG = {"budget-4d": {"11/1": ["not", "the", "fingerprint"]},
         "class-hard-2d": {"0": {"report_json": "0" * 64, "runs": "0" * 64}}}


def bench(name: str, trace: int, pinned: dict) -> tuple[list[str], dict]:
    spec = TINY[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", str(spec.default_seed),
                         "--seconds", "1", "--trace", str(trace)], spec=spec, pinned=pinned)
    lines = buf.getvalue().splitlines()
    assert code == 0, f"{name} trace={trace} exited {code}"
    return lines, json.loads(lines[-1])


def check_metrics(name: str, trace: int) -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    lines, result = bench(name, trace, {})
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in wanted}, result["metrics"].keys()
    for m in wanted:
        pattern = rf"{re.escape(m['name'])} = -?[0-9][0-9.e+-]* {re.escape(m['unit'])}$"
        assert any(re.match(pattern, line) for line in lines), f"no line for {m['name']}"
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    print(f"ok: {name} trace={trace} prints {len(wanted)} metrics with units")


def check_wrong_fingerprint(name: str) -> None:
    _, result = bench(name, 0, WRONG[name])
    spec = TINY[name]
    runs_per_repeat = 1 if spec.kind == "budget" else spec.count * 3
    assert not result["correct"], result
    assert result["failed"] == spec.repeats * runs_per_repeat == result["attempted"], result
    print(f"ok: {name} counts a wrong pinned fingerprint as "
          f"{result['failed']} failed of {result['attempted']} runs")


def check_refuses_without_sources() -> None:
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "budget-4d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print("ok: refuses to run without src/lipgrad")


def main() -> None:
    for name in TINY:
        for trace in (0, 1):
            check_metrics(name, trace)
        check_wrong_fingerprint(name)
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
