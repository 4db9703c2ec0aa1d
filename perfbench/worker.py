"""One fresh benchmark process: set up, then measure or trace one workload.

Started by ``run.py`` with a JSON parameter object as its only argument;
prints one JSON result line. Modes:

- ``setup``: import lipgrad and build the workload's inputs, then stop.
- ``measure``: set up, then time every unit of the panel (tracing off).
- ``trace``: set up, then time half the panel untraced and with every
  layer wrapped, and report the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import Spec, perf_counter

DEADLINE_S = 120.0  # start no unit after this long, so the run ends in time
TRACE_REPEATS = 2


def load_lipgrad(src: str):
    sys.path.insert(0, src)
    import lipgrad
    import lipgrad.bench
    import lipgrad.problems

    if Path(lipgrad.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"lipgrad was imported from {lipgrad.__file__}, not {src}")
    return lipgrad


def build_panel(lg, spec: Spec, keys: list[str]) -> list:
    """Generated problems (budget) or class descriptors (class), one per unit."""
    if spec.kind == "budget":
        return [workloads.problem_for(lg, spec, key) for key in keys]
    return [workloads.class_for(lg, spec, key) for key in keys]


def measure(lg, spec, keys, panel, pinned, repeats, scratch, started) -> list[dict]:
    """Time every unit ``repeats`` times, one pass over the panel per repeat.

    Repeats of a unit are a whole pass apart, so they meet the machine in
    different states. Past the deadline no further repeat starts.
    """
    units = [workloads.Unit(spec, key, item, pinned) for key, item in zip(keys, panel)]
    for r in range(repeats):
        for unit in units:
            if units[0].attempted and perf_counter() - started > DEADLINE_S:
                workloads.warn(f"{spec.name}: deadline reached in pass {r + 1}")
                return [u.result() for u in units if u.attempted]
            unit.repeat(lg, scratch)
    return [u.result() for u in units]


def trace(lg, spec, keys, panel, pinned, scratch: Path) -> dict:
    """Time the first half of the panel untraced and traced, passes alternating.

    Both sides keep each chunk's fastest repeat, so the overhead ratio
    compares like with like; the per-layer totals cover every traced repeat.
    """
    half = (len(keys) + 1) // 2
    keys, panel = keys[:half], panel[:half]
    tracer = tracing.Tracer()

    def layers():
        # lipgrad.run is what a budget unit calls: its span is the solve call
        return tracing.patched([(lg, "run", tracer.span("solve.new")),
                                *tracing.layer_patches(lg, tracer)])

    plain = [workloads.Unit(spec, key, item, pinned) for key, item in zip(keys, panel)]
    with layers():  # generated again under the wrappers so generation is traced too
        traced = [workloads.Unit(spec, key, build_panel(lg, spec, [key])[0], pinned)
                  for key in keys]
    for _ in range(TRACE_REPEATS):
        for unit in plain:
            unit.repeat(lg, scratch)
        with layers():
            for unit in traced:
                unit.repeat(lg, scratch)
    runs = [run for u in traced for runs, _ in u.repeats for run in runs]
    new = [run for run in runs if run[0] == "new"]
    traced_s = sum(wall for u in traced for _, wall in u.repeats)
    metrics = tracing.layer_metrics(
        tracer, traced_s, sum(r[2] for r in new), sum(r[3] for r in new))
    plain_r = [u.result() for u in plain]
    traced_r = [u.result() for u in traced]
    metrics["trace.overhead"] = (sum(u["seconds"] for u in traced_r)
                                 / sum(u["seconds"] for u in plain_r))
    (scratch / f"trace-{spec.name}.json").write_text(json.dumps(
        {"workload": spec.name, "units": keys, "repeats": TRACE_REPEATS, **tracer.dump()},
        indent=1) + "\n")
    return {
        "layers": metrics,
        "units": len(keys),
        "attempted": sum(u["attempted"] for u in plain_r + traced_r),
        "failed": sum(u["failed"] for u in plain_r + traced_r),
    }


def main(params: dict) -> dict:
    started = perf_counter()
    spec = Spec(**params["spec"])
    lg = load_lipgrad(params["src"])
    keys = workloads.unit_keys(spec, params["seed"], spec.units(params["seconds"]))
    panel = build_panel(lg, spec, keys)
    setup_s = time.monotonic() - params["t0"]
    if params["mode"] == "setup":
        return {"setup_s": setup_s}
    pinned = params["pinned"]
    scratch = Path(params["out"])
    scratch.mkdir(parents=True, exist_ok=True)
    if params["mode"] == "trace":
        return trace(lg, spec, keys, panel, pinned, scratch)
    units = measure(lg, spec, keys, panel, pinned, spec.repeats, scratch, started)
    return {
        "setup_s": setup_s,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
