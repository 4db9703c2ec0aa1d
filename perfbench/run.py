"""lipgrad benchmark: wall time per trial, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload budget-4d --seed 11 --seconds 40 --trace 0

Every run happens in fresh child processes (``worker.py``) that import
lipgrad from ``src/``. With ``--trace 0`` a few children only set up, to time
set-up, and one child measures the workload; with ``--trace 1`` one child
runs the traced pass. The output is one ``name = value unit`` line per
metric, then one JSON line with ``correct``, ``attempted``, ``failed`` and
the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import METHODS, SPECS, Spec  # noqa: E402

SETUP_CHILDREN = 6  # set-up is timed in these plus the measuring child
TIME_LIMIT_S = 170.0  # every child must have ended by then


def child(params: dict, deadline: float) -> dict:
    params = dict(params, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(params)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{params['mode']} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(spec: Spec, setups: list[float], result: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics plus the extra report lines (sample counts, per method)."""
    units = [u for u in result["units"] if u["trials"]]
    if not units:
        raise RuntimeError("no run of the workload completed")
    runs = [r for u in units for r in u["runs"]]
    seconds = sum(u["seconds"] for u in units)
    trials = sum(u["trials"] for u in units)
    per_method = {}
    for m in spec.methods():
        mine = [r for r in runs if r[0] == m]
        per_method[m] = 1e6 * sum(r[1] for r in mine) / sum(r[2] for r in mine)
    metrics = {
        "setup_s": statistics.median(setups),
        "us_per_trial": 1e6 * seconds / trials,
        "us_per_trial.new": per_method["new"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"units = {len(units)} ({', '.join(u['key'] for u in units)}), "
        f"{spec.repeats} repeats each, {trials} trials per repeat",
        f"setup samples = {len(setups)}",
    ]
    for u in units:
        whole = ", ".join(f"{1e6 * w / u['trials']:.1f}" for w in u["repeat_s"])
        notes.append(f"unit {u['key']}: {1e6 * u['seconds'] / u['trials']:.1f} us/trial "
                     f"(whole repeats {whole} us/trial)")
    for m in METHODS[1:]:
        if m in per_method:
            notes.append(f"us_per_trial.{m} = {per_method[m]:.4f} us")
    if spec.kind == "class":
        times = [r[1] for r in runs]
        notes.append(f"run_s.p50 = {percentile(times, 50):.6f} s")
        notes.append(f"run_s.p80 = {percentile(times, 80):.6f} s")
        notes.append(f"run_s samples = {len(times)}")
    return metrics, notes


def main(argv=None, spec: Spec | None = None, pinned: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = spec or SPECS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed

    src = ROOT / "src"
    if not (src / "lipgrad" / "__init__.py").is_file():
        print(f"perfbench: no lipgrad sources under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if pinned is None:
        pinned = json.loads((HERE / "pinned.json").read_text())[spec.name]
    deadline = time.monotonic() + TIME_LIMIT_S
    params = {
        "spec": dataclasses.asdict(spec), "seed": seed, "seconds": args.seconds,
        "src": str(src), "out": str(ROOT / ".perfbench"), "pinned": pinned,
    }

    if args.trace:
        result = child(dict(params, mode="trace"), deadline)
        metrics = result["layers"]
        wanted = declared["per_layer"]
        notes = [f"traced units = {result['units']}"]
    else:
        setups = [child(dict(params, mode="setup"), deadline)["setup_s"]
                  for _ in range(SETUP_CHILDREN)]
        result = child(dict(params, mode="measure"), deadline)
        setups.append(result["setup_s"])
        metrics, notes = end_to_end(spec, setups, result)
        result["attempted"] = sum(u["attempted"] for u in result["units"])
        result["failed"] = sum(u["failed"] for u in result["units"])
        wanted = declared["end_to_end"]

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload = {spec.name}, seed = {seed}, trace = {args.trace}")
    for line in notes:
        print(line)
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']} = {value!r} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
