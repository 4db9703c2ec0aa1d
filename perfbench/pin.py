"""Recompute the pinned fingerprints of the default seeds.

    python3 perfbench/pin.py

Writes ``perfbench/pinned.json``. Re-pin only in a change that is meant to
alter the search, and show the C1-C4 columns before and after with it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import load_lipgrad  # noqa: E402

# units pinned per workload: enough for runs of up to 60 seconds
PINNED_UNITS = {"budget-4d": 4, "class-hard-2d": 12}


def main() -> None:
    lg = load_lipgrad(str(HERE.parent / "src"))
    out = HERE.parent / ".perfbench"
    out.mkdir(exist_ok=True)
    pinned = {}
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for name, n in PINNED_UNITS.items():
            spec = workloads.SPECS[name]
            pinned[name] = {}
            for key in workloads.unit_keys(spec, spec.default_seed, n):
                item = (workloads.problem_for if spec.kind == "budget"
                        else workloads.class_for)(lg, spec, key)
                unit = workloads.Unit(spec, key, item, {})
                unit.repeat(lg, Path(scratch))
                if unit.failed:
                    raise SystemExit(f"{name} {key}: a run failed its invariants")
                pinned[name][key] = unit.prints[0]
                print(name, key, unit.prints[0], flush=True)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
