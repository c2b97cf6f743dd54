"""Every command line of the README runs, and prints what its comment shows;
so does every commented print of its library example."""

import contextlib
import io
from pathlib import Path

import pytest

from helpers import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

# subcommands whose README comment is their exact output
SHOWN_OUTPUT = ("schur", "normalize")


def command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("jansum ")]


@pytest.mark.parametrize(
    "line", command_lines(), ids=lambda line: line.partition("#")[0].strip()
)
def test_readme_command_line(line):
    command, _, comment = line.partition("#")
    argv = command.split()[1:]
    code, out, _ = run_cli(argv)
    assert code == 0
    if argv[0] in SHOWN_OUTPUT:
        assert out == comment.strip() + "\n"


def test_readme_uses_every_subcommand():
    from jansum.cli import _COMMANDS

    used = {line.split()[1] for line in command_lines()}
    assert used == set(_COMMANDS)


def test_readme_library_example():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    # each print of the block writes one line
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    shown = [(line, got) for line, got in zip(prints, printed) if "#" in line]
    assert len(shown) == 4
    assert [line.partition("#")[2].strip() for line, _ in shown] == [got for _, got in shown]
