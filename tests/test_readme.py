"""Every command line of the README runs, and prints what its comment shows."""

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
