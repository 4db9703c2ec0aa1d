"""Rules on the library's source text that no behaviour test can see.

Each rule reads the files of ``src/`` as text, so it holds for every code
path, including those no run reaches.
"""

import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LIB = SRC / "lipgrad"


def files_matching(pattern: str) -> list[str]:
    """The files of ``src/``, relative to it, whose text matches ``pattern``."""
    return sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text(encoding="utf-8"))
    )


def test_the_library_leaves_the_garbage_collector_alone():
    # the library must not change its caller's collector
    assert files_matching(r"gc\.(disable|freeze|set_threshold)") == []


def test_the_baselines_do_not_import_the_gradient_method():
    # the baselines are compared with the gradient method, so they share
    # only geometry, selection and the stop rules with it
    text = (LIB / "baselines.py").read_text(encoding="utf-8")
    imports = (r"(from|import) +(\.|lipgrad\.)optimizer\b"
               r"|from +(\.|lipgrad) +import .*\boptimizer\b")
    assert not re.search(imports, text)


def test_importing_the_library_loads_no_process_pool():
    # only run_class with workers > 1 needs multiprocessing; a fresh
    # interpreter, as this one has loaded whatever the other tests use
    code = ("import sys, lipgrad, lipgrad.bench; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_the_optimizer_names_no_child_of_a_split():
    # geometry.py lays a split's children out
    assert "lipgrad/optimizer.py" not in files_matching(r"\b(low|middle|high)\b")


def test_only_the_stop_rules_count_a_trial():
    assert files_matching(r"trials \+= 1") == ["lipgrad/stopping.py"]


def test_only_the_stop_rules_set_a_stop_reason():
    # stopping.py books every trial and applies every stop rule
    assert files_matching(r"\.stop_reason *(:[^=\n]*)?=(?!=)") == ["lipgrad/stopping.py"]


def test_only_geometry_names_heapq_or_a_group_heap():
    # BoxTable.add_boxes files every box on its group's heap. The gradient
    # method and DIRECT read a group's tied minima through
    # geometry.heap_min_entries; DIRECT-l, and add_boxes when it advances
    # q_inf, read a group's least live box through geometry.heap_min
    assert files_matching(r"\bheapq\b|\.heap\b") == ["lipgrad/geometry.py"]


def test_only_the_shared_loop_chooses_boxes():
    # stopping.iterate is every method's select-and-subdivide loop
    assert files_matching(r"selection\.choose\(") == ["lipgrad/stopping.py"]


def test_the_search_squares_by_products():
    # libm's pow need not round w ** 2 to the correctly rounded w * w, so the
    # modules that build, bound and select boxes use no power operator. Read
    # as tokens, as geometry.pow3's docstring says 3**k. stopping.target_window
    # and problems.generate keep theirs until the exact target window re-pins
    # the search (ROADMAP item 19b)
    powers = []
    for name in ("geometry.py", "bounding.py", "selection.py", "optimizer.py", "baselines.py"):
        with open(LIB / name, "rb") as source:
            powers += [f"{name}:{token.start[0]}" for token in tokenize.tokenize(source.readline)
                       if token.exact_type in (tokenize.DOUBLESTAR, tokenize.DOUBLESTAREQUAL)]
    assert powers == []
