"""Command-line interface: solve, bench and diagram subcommands.

Exit codes: 0 success, 1 usage error, 2 problem-evaluation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, problems
from .stopping import OptConfig, StopTarget


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lipgrad")
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="run one method on one problem")
    solve.add_argument("--problem", required=True,
                       help="builtin name (e.g. quad2d), or manifest path with "
                            "optional #index suffix (default #1)")
    solve.add_argument("--method", choices=tuple(bench.METHODS), default="new")
    solve.add_argument("--eps", type=float, default=1e-4)
    solve.add_argument("--pmax", type=int, default=1_000_000)
    solve.add_argument("--delta", type=float, default=None,
                       help="stop once the known minimizer is located to this accuracy")
    solve.add_argument("--start", choices=("a", "b"), default="a")
    solve.add_argument("--trace", default=None, help="write a run trace to this path")

    benchp = sub.add_parser("bench", help="run methods over a problem class")
    benchp.add_argument("--class", dest="cls", required=True,
                        help="manifest path, or descriptor difficulty:dim:count")
    benchp.add_argument("--methods", default=",".join(bench.METHODS))
    benchp.add_argument("--delta", type=float, required=True)
    benchp.add_argument("--pmax", type=int, default=1_000_000)
    benchp.add_argument("--eps", type=float, default=1e-4)
    benchp.add_argument("--out", default=None)
    benchp.add_argument("--workers", type=int, default=1)
    benchp.add_argument("--seed", type=int, default=None,
                        help="class seed of a descriptor (default 0); a manifest "
                             "fixes its own")

    diagram = sub.add_parser("diagram", help="render a 2-D run trace as SVG")
    diagram.add_argument("--trace", required=True)
    diagram.add_argument("--kind", choices=("partition2d",), default="partition2d")
    diagram.add_argument("--out", required=True)
    return parser


def _resolve_problem(name: str) -> problems.Problem:
    suite = {p.name: p for p in problems.analytic_suite()}
    if name in suite:
        return suite[name]
    path, _, index_s = name.partition("#")
    if Path(path).is_file():
        try:
            index = int(index_s) if index_s else 1
            return problems.generate(problems.load_manifest(path), index)
        except (ValueError, problems.GenerationError) as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown problem {name!r}; builtins: {', '.join(sorted(suite))}"
    )


def _cmd_solve(args) -> int:
    problem = _resolve_problem(args.problem)
    if args.delta is not None and problem.known_opt is None:
        raise UsageError(f"problem {problem.name} has no known minimizer; "
                         "--delta needs one")
    try:
        target = None if args.delta is None else StopTarget(problem.known_opt[0], args.delta)
        config = OptConfig(
            epsilon=args.eps, p_max=args.pmax, start_vertex=args.start,
            target=target, keep_trace=args.trace is not None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.trace is not None:  # checked before any trial, written after the run
        trace = Path(args.trace)
        if not trace.parent.is_dir():
            raise UsageError(f"--trace {args.trace}: no directory {trace.parent}")
        if trace.is_dir():
            raise UsageError(f"--trace {args.trace} is a directory")
    report = bench.run_method(args.method, problem, config)
    if args.trace is not None:
        bench.write_trace(report, problem, args.trace)
    print(f"problem: {problem.name}")
    print(f"method: {report.method}")
    print(f"trials: {report.trials}")
    print(f"boxes: {report.boxes}")
    print(f"f_min: {report.f_min!r}")
    print(f"x_min: {','.join(repr(v) for v in report.x_min)}")
    print(f"stop_reason: {report.stop_reason}")
    return 0


def _cmd_bench(args) -> int:
    if Path(args.cls).is_file():
        if args.seed is not None:
            raise UsageError(f"--seed {args.seed}: the manifest {args.cls} fixes the seed")
        try:
            cls = problems.load_manifest(args.cls)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        try:  # the descriptor's shape; its knobs are checked by the class below
            difficulty, dim, count = args.cls.split(":")
            dim, count = int(dim), int(count)
        except ValueError:
            raise UsageError(f"--class must be a manifest path or difficulty:dim:count, "
                             f"got {args.cls!r}") from None
        seed = 0 if args.seed is None else args.seed
        try:
            cls = problems.problem_class(dim, difficulty, seed=seed, count=count)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    try:
        methods = bench.check_methods(m.strip() for m in args.methods.split(",") if m.strip())
    except ValueError as exc:
        raise UsageError(f"--methods: {exc}") from exc
    try:  # run_class checks its parameters and makes --out before any run
        report = bench.run_class(
            methods, cls, delta=args.delta, p_max=args.pmax,
            workers=args.workers, epsilon=args.eps, out_dir=args.out,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc}") from exc
    sys.stdout.write(report.to_text())
    return 0


def _cmd_diagram(args) -> int:
    try:
        bench.emit_diagram(args.trace, args.out)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "diagram":
            return _cmd_diagram(args)
        raise UsageError("missing subcommand (solve, bench or diagram)")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (problems.EvaluationError, problems.GenerationError) as exc:
        print(f"evaluation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
