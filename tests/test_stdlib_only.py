"""jansum is pure Python: each of its modules imports the standard library
by absolute imports and its own modules by relative ones, never sympy,
numpy or another installed package, even where one happens to be present."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jansum"


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert {"cli.py", "jantzen.py", "lattice.py"} <= {p.name for p in paths}
    foreign = {p.name: absolute_imports(p) - sys.stdlib_module_names for p in paths}
    assert not any(foreign.values()), foreign
