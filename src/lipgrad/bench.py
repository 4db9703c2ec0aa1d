"""Benchmark harness: method-by-class runs, comparison criteria, diagrams.

Every (method, problem) pair runs under the same stop rule (target hit or
trial budget) and the same trial accounting. Aggregation is single-threaded
and ordered by problem index, so reports are byte-identical no matter how
many workers executed the runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from . import baselines, optimizer, problems
from .stopping import REASON_TARGET, OptConfig, RunReport, StopTarget

# every method by name, in the order the CLI offers them
METHODS = {"new": optimizer.run, "direct": baselines.direct_run, "directl": baselines.directl_run}


def run_method(name: str, problem: problems.Problem, config: OptConfig) -> RunReport:
    try:
        method = METHODS[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r} (expected new, direct or directl)") from None
    return method(problem, config)


def check_methods(methods) -> list[str]:
    """The methods as a list; ValueError for a string, none, or one unknown or repeated."""
    if isinstance(methods, str):
        raise ValueError(f"methods must be a collection of names, got the string {methods!r}")
    methods = list(methods)
    if not methods:
        raise ValueError("need at least one method")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} given twice")
    return methods


def criterion_C1(trials: list[int], solved: list[bool]) -> tuple[int, int, int]:
    """Worst-case trial count: (max, 1-based index of first max, #unsolved).

    Unsolved entries carry the budget they exhausted, so with any unsolved
    problem the value is a lower bound and is rendered as "> value (j)".
    """
    worst = max(trials)
    s_star = trials.index(worst) + 1
    return worst, s_star, sum(1 for ok in solved if not ok)


def format_c1(c1: tuple[int, int, int]) -> str:
    value, s_star, unsolved = c1
    if unsolved:
        return f"> {value} ({unsolved})"
    return f"{value} (s={s_star})"


def criterion_C3(trials: list[int], solved: list[bool], p_max: int) -> tuple[float, bool]:
    """Average trial count, substituting the budget for unsolved problems.

    The flag marks the value as a lower estimate of the true average.
    """
    adjusted = [t if ok else p_max for t, ok in zip(trials, solved)]
    return sum(adjusted) / len(adjusted), not all(solved)


def criterion_C4(trials_new: list[int], trials_other: list[int]) -> tuple[int, int]:
    """(p, q): problems where the competitor did strictly fewer / more trials."""
    if len(trials_new) != len(trials_other):
        raise ValueError("trial lists must have equal length")
    p = sum(1 for a, b in zip(trials_new, trials_other) if b < a)
    q = sum(1 for a, b in zip(trials_new, trials_other) if a < b)
    return p, q


def fifty_percent(trials: list[int]) -> int:
    """Smallest budget solving at least half of the problems' runs."""
    k = (len(trials) + 1) // 2
    return sorted(trials)[k - 1]


def _ratio(comp: float, comp_unsolved: bool, new: float, new_unsolved: bool) -> str:
    prefix = ""
    if comp_unsolved and not new_unsolved:
        prefix = "> "
    elif new_unsolved and not comp_unsolved:
        prefix = "< "
    elif comp_unsolved and new_unsolved:
        prefix = "~ "
    return f"{prefix}{comp / new:.2f}"


@dataclass
class ClassReport:
    """Per-problem results and the C1-C4 summary for one class run."""

    class_info: dict
    methods: list[str]
    delta: float
    p_max: int
    epsilon: float
    rows: list[dict]
    summaries: dict[str, dict]
    c4: dict[str, tuple[int, int]]
    ratios: dict[str, dict[str, str]]
    invalid: list[tuple[int, str]]

    def to_text(self) -> str:
        info = self.class_info
        out = [
            f"class: {info['difficulty']} dim={info['dim']} count={info['count']} "
            f"seed={info['seed']}",
            f"delta={self.delta!r} p_max={self.p_max} epsilon={self.epsilon!r}",
        ]
        if self.invalid:
            for index, msg in self.invalid:
                out.append(f"warning: problem {index} invalid, excluded: {msg}")
        out.append(f"{'method':<9} {'50%':>8} {'100% (C1)':>18} {'C2':>9} {'C3':>12}")
        valid = len(self.rows) - len(self.invalid)
        for m in self.methods:
            s = self.summaries[m]
            # fewer than half solved: the budget an unsolved run counts is a lower bound
            fifty = f"{'> ' if 2 * s['unsolved'] > valid else ''}{s['fifty']}"
            c3 = f"{'> ' if s['c3_lower_bound'] else ''}{s['c3']:.2f}"
            out.append(
                f"{m:<9} {fifty:>8} {format_c1(s['c1']):>18} "
                f"{s['c2']:>9} {c3:>12}"
            )
        for other, (p, q) in self.c4.items():
            out.append(f"C4 {other}:new = {p}:{q}")
        for other, r in self.ratios.items():
            out.append(f"improvement {other}/new: C1 {r['c1']}  C3 {r['c3']}")
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        lines = ["index,method,trials,boxes,solved,valid"]
        for row in self.rows:
            for m in self.methods:
                if row["valid"]:
                    r = row["results"][m]
                    lines.append(
                        f"{row['index']},{m},{r['trials']},{r['boxes']},"
                        f"{int(r['solved'])},1"
                    )
                else:
                    lines.append(f"{row['index']},{m},,,,0")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = dict(vars(self))  # json writes tuples as lists
        payload["class"] = payload.pop("class_info")
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _run_one(args) -> dict:
    cls, index, methods, delta, p_max, epsilon = args
    results, stage = {}, "generation"
    try:
        problem = problems.generate(cls, index)
        config = OptConfig(epsilon=epsilon, p_max=p_max,
                           target=StopTarget(problem.known_opt[0], delta))
        for m in methods:
            stage = f"method {m}"
            report = run_method(m, problem, config)
            results[m] = {
                "trials": report.trials,
                "boxes": report.boxes,
                "solved": report.stop_reason == REASON_TARGET,
                "f_min": report.f_min,
            }
    except Exception as exc:  # one failing run must not sink the class run
        error = f"{stage} failed on problem {index}: {exc!r}"
        return {"index": index, "valid": False, "error": error, "results": {}}
    return {"index": index, "valid": True, "error": "", "results": results}


def run_class(
    methods,
    cls: problems.ProblemClass,
    delta: float,
    p_max: int,
    workers: int = 1,
    epsilon: float = 1e-4,
    out_dir=None,
) -> ClassReport:
    """Run every method on every problem of the class and aggregate C1-C4.

    The methods, workers and run parameters are checked, and ``out_dir``
    made, before any problem is generated: a ValueError, or an OSError.
    """
    methods = check_methods(methods)
    if not (problems._number(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    OptConfig(epsilon=epsilon, p_max=p_max, target=StopTarget((), delta))  # what every run shares
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (cls, index, tuple(methods), delta, p_max, epsilon)
        for index in range(1, cls.count + 1)
    ]
    if workers > 1:  # a fork pool starts all its workers at once: no more than the jobs
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_run_one, jobs))
    else:
        rows = [_run_one(job) for job in jobs]

    invalid = [(row["index"], row["error"]) for row in rows if not row["valid"]]
    valid_rows = [row for row in rows if row["valid"]]
    if not valid_rows:
        raise problems.GenerationError(f"every problem of the class is invalid; {invalid[0][1]}")

    summaries = {}
    for m in methods:
        trials = [row["results"][m]["trials"] for row in valid_rows]
        boxes = [row["results"][m]["boxes"] for row in valid_rows]
        solved = [row["results"][m]["solved"] for row in valid_rows]
        worst, pos, unsolved = criterion_C1(trials, solved)
        c3, lower = criterion_C3(trials, solved, p_max)
        summaries[m] = {  # C1's s names the worst problem, whose boxes are C2
            "c1": [worst, valid_rows[pos - 1]["index"], unsolved],
            "c2": boxes[pos - 1],
            "c3": c3,
            "c3_lower_bound": lower,
            "fifty": fifty_percent(trials),
            "unsolved": unsolved,
        }

    c4 = {}
    ratios = {}
    if "new" in methods:
        new_trials = [row["results"]["new"]["trials"] for row in valid_rows]
        new_unsolved = summaries["new"]["unsolved"] > 0
        for m in methods:
            if m == "new":
                continue
            other_trials = [row["results"][m]["trials"] for row in valid_rows]
            c4[m] = criterion_C4(new_trials, other_trials)
            other_unsolved = summaries[m]["unsolved"] > 0
            ratios[m] = {
                "c1": _ratio(summaries[m]["c1"][0], other_unsolved,
                             summaries["new"]["c1"][0], new_unsolved),
                "c3": _ratio(summaries[m]["c3"], other_unsolved,
                             summaries["new"]["c3"], new_unsolved),
            }

    report = ClassReport(
        class_info=dict(
            seed=cls.seed, dim=cls.dim, count=cls.count, difficulty=cls.difficulty,
            n_minima=cls.n_minima,
        ),
        methods=methods,
        delta=delta,
        p_max=p_max,
        epsilon=epsilon,
        rows=rows,
        summaries=summaries,
        c4=c4,
        ratios=ratios,
        invalid=invalid,
    )
    if out_dir is not None:
        (out_dir / "report.txt").write_text(report.to_text())
        (out_dir / "report.csv").write_text(report.to_csv())
        (out_dir / "report.json").write_text(report.to_json())
    return report


# -- trace files and diagrams -------------------------------------------------

def write_trace(report: RunReport, problem: problems.Problem, path) -> None:
    """Line-oriented run trace: domain header, trial points, final boxes."""
    if report.trace is None or report.snapshot is None:
        raise ValueError("run was not configured with keep_trace=True")
    lines = [
        "# domain "
        + ",".join(repr(v) for v in problem.lower)
        + " "
        + ",".join(repr(v) for v in problem.upper)
    ]
    for idx, x, f, f_min, phase in report.trace:
        lines.append(
            f"T {idx} {','.join(repr(v) for v in x)} {f!r} {f_min!r} {phase}"
        )
    lines.extend(f"B {line}" for line in report.snapshot)
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> dict:
    """Parse a trace file into domain bounds, trial points and boxes; a
    malformed domain, T or B line is a ValueError naming the path and line.
    The one domain header comes first, with finite bounds lower < upper and a
    finite upper - lower on every axis, as a ``Problem`` has; every T point
    and B corner has one coordinate per axis, and a T line's point, value and
    f_min are finite, as every run writes them."""
    lower = upper = ()
    trials = []
    boxes = []
    for n, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if line.startswith("# domain"):
            lower, upper = _fields(path, n, line[2:], (_point, _point),
                                   lambda lo, hi: not lower and _is_domain(lo, hi))
        elif line.startswith("T "):
            trials.append(_fields(path, n, line, (int, _point, float, float, str),
                                  lambda _, x, f, f_min, __: len(x) == len(lower)
                                  and all(map(math.isfinite, x + (f, f_min)))))
        elif line.startswith("B "):
            boxes.append(_fields(path, n, line, (int, int, _grid_point, _grid_point),
                                 lambda _, __, a, b: len(a) == len(b) == len(lower)))
    if not lower:
        raise ValueError(f"{path}: missing domain header")
    return {"lower": lower, "upper": upper, "trials": trials, "boxes": boxes}


def _fields(path, n: int, line: str, readers, valid) -> tuple:
    """The fields after line ``n``'s tag, each read by its entry of
    ``readers`` and together ``valid``; a ValueError naming the path and
    line when they do not fit."""
    parts = line.split()
    try:
        if len(parts) == len(readers) + 1:
            fields = tuple(read(v) for read, v in zip(readers, parts[1:]))
            if valid(*fields):
                return fields
    except ValueError:
        pass
    raise ValueError(f"{path}:{n}: malformed {parts[0]} line: {line.strip()!r}")


def _is_domain(lower, upper) -> bool:
    # lo < hi with a finite difference also rules out an infinite or nan bound
    return len(lower) == len(upper) and all(lo < hi and math.isfinite(hi - lo)
                                            for lo, hi in zip(lower, upper))


def _point(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _grid_point(text: str) -> tuple[float, ...]:
    return tuple(_parse_frac(v) for v in text.split(","))


def _parse_frac(text: str) -> float:
    """A grid coordinate num/3^k in [0, 1], as ``geometry.vertex_str`` writes it."""
    num, den = map(int, text.split("/"))
    power = den
    while power > 1 and power % 3 == 0:
        power //= 3
    if power != 1 or not 0 <= num <= den:
        raise ValueError(f"not a grid coordinate in [0, 1]: {text}")
    return num / den


_SVG_SIZE = 640
_SVG_MARGIN = 50


def emit_diagram(source, out) -> Path:
    """Render a 2-D run trace as an SVG file: the final boxes, and each trial
    as a dot labelled with its index."""
    trace = read_trace(source)
    if len(trace["lower"]) != 2:
        raise ValueError("partition2d diagrams require a two-dimensional domain")
    lo = trace["lower"]
    hi = trace["upper"]
    edge = (hi[0] - lo[0], hi[1] - lo[1])
    m = _SVG_MARGIN
    far = m + _SVG_SIZE  # the right and bottom edges of the plot
    size = _SVG_SIZE + 2 * m

    def px(u):  # normalized x -> pixels
        return m + u * _SVG_SIZE

    def py(v):  # normalized y -> pixels, flipped
        return m + (1.0 - v) * _SVG_SIZE

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<line x1="{m}" y1="{far}" x2="{far}" y2="{far}" stroke="black"/>',
        f'<line x1="{m}" y1="{far}" x2="{m}" y2="{m}" stroke="black"/>',
    ]
    for _box_id, _s, a, b in sorted(trace["boxes"], key=lambda t: t[0]):
        x0, x1 = sorted((a[0], b[0]))
        y0, y1 = sorted((a[1], b[1]))
        body.append(
            f'<rect x="{px(x0):.2f}" y="{py(y1):.2f}" '
            f'width="{(x1 - x0) * _SVG_SIZE:.2f}" height="{(y1 - y0) * _SVG_SIZE:.2f}" '
            f'fill="none" stroke="black" stroke-width="0.8"/>'
        )
    for idx, x, _f, _f_min, _phase in trace["trials"]:
        u = (x[0] - lo[0]) / edge[0]
        v = (x[1] - lo[1]) / edge[1]
        body.append(f'<circle cx="{px(u):.2f}" cy="{py(v):.2f}" r="3" fill="black"/>')
        body.append(
            f'<text x="{px(u) + 4:.2f}" y="{py(v) - 4:.2f}" font-size="10">{idx}</text>'
        )
    body.append("</svg>")
    out = Path(out)
    out.write_text("\n".join(body) + "\n")
    return out
