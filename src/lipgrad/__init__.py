"""Global optimization for objectives with Lipschitz gradients.

The gradient method partitions the domain by one-point trisection, bounds
each box from below using its trial gradient over every admissible
Lipschitz estimate at once, and alternates broad exploration with record
improvement. DIRECT and DIRECT-l baselines plus a benchmark harness share
the same stop rules and selection machinery.
"""

from .baselines import direct_run, directl_run
from .bench import run_class, run_method
from .optimizer import run
from .problems import (
    EvaluationError,
    Problem,
    ProblemClass,
    analytic_suite,
    generate,
    problem_class,
)
from .stopping import OptConfig, RunReport, StopTarget

__all__ = [
    "EvaluationError",
    "OptConfig",
    "Problem",
    "ProblemClass",
    "RunReport",
    "StopTarget",
    "analytic_suite",
    "direct_run",
    "directl_run",
    "generate",
    "problem_class",
    "run",
    "run_class",
    "run_method",
]
