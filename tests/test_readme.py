"""The README's examples run as written.

Every ``lipgrad`` command of its CLI section runs through ``cli.main``, and
its Library use block runs as a script, so an edit that breaks an example
fails here.
"""

import re
import shlex
from pathlib import Path

from lipgrad import cli
from lipgrad.problems import problem_class, write_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks under the README's ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```", body, re.M | re.S)


def test_every_cli_command_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the manifest the solve example names, with its problem #7
    write_manifest(problem_class(2, "hard", seed=0, count=7), "class.json")
    commands = [line for block in fenced_blocks("CLI", "sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("lipgrad ")]
    assert {shlex.split(command)[1] for command in commands} == {"solve", "bench", "diagram"}
    for command in commands:  # in order: the diagram reads the first solve's trace
        assert cli.main(shlex.split(command)[1:]) == 0, command
    assert "error" not in capsys.readouterr().err


def test_the_library_use_block_runs(capsys):
    (block,) = fenced_blocks("Library use", "python")
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "target_found"  # the stop reason
