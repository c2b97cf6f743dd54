"""Every command line of the README runs, and prints what its comment shows;
so does every commented print of its library example.  The README's export
list names exactly the package's public names, and each exported function,
and each public function, method and property of lattice, weyl and
charring, has a caller in the package outside the oracles."""

import ast
import contextlib
import inspect
import io
import re
import types
from pathlib import Path

import pytest

from helpers import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "jansum"

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


def export_list() -> set[str]:
    """Every name the README's export list gives."""
    text = README.read_text(encoding="utf-8").split("The package exports:", 1)[1]
    return set(re.findall(r"`(\w+)`", text.lstrip().split("\n\n", 1)[0]))


def exports() -> dict:
    """The public names the package binds, submodules aside."""
    import jansum

    return {
        name: value
        for name, value in vars(jansum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_readme_lists_the_exports():
    assert export_list() == set(exports())


def referenced_names() -> set[str]:
    """Every name the package's code reads, outside the definition of a
    function of that name (so recursion is no caller) and outside oracle.py
    (so a slow reference is no caller); imports are no read."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "oracle.py":
            continue
        stack = [(ast.parse(path.read_text(encoding="utf-8")), None)]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = node.name
            elif isinstance(node, ast.Name) and node.id != inside:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != inside:
                names.add(node.attr)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return names


def callables() -> dict[str, str]:
    """{shown name: name a caller reads} of every exported function, and of
    every public function, non-dunder method and property defined in
    lattice, weyl or charring."""
    from jansum import charring, lattice, weyl

    out = {name: name for name, value in exports().items() if inspect.isfunction(value)}
    for module in (lattice, weyl, charring):
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and not name.startswith("_"):
                out[name] = name
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member) and not attr.startswith("__"):
                        out[f"{name}.{attr}"] = attr
    return out


def test_every_exported_function_has_a_caller():
    referenced = referenced_names()
    assert [shown for shown, name in callables().items() if name not in referenced] == []
