"""jansum is pure Python: each of its modules imports the standard library
by absolute imports and its own modules by relative ones, never sympy,
numpy or another installed package, even where one happens to be present.

The CLI ends its process with os._exit, after flushing stdout and stderr,
and skips the interpreter's teardown (cli.entry).  A resource that teardown
would release (an open file's buffer, an atexit handler, a thread, a
temporary file, the work of a __del__) would then be lost without a word;
so no module imports atexit, threading, multiprocessing or tempfile, none
calls open, and no class defines __del__.

Every object is built by its class's constructor, so through its checks:
the one call of X.__new__(X) in the package is lattice._walked, which
builds the Partitions of a walk's leaves (so a character is built only by
FormalCharacter's constructor).

A Weyl character is rows, never a FormalCharacter: jantzen imports nothing
from charring, and charring, the monomial basis, nothing from weyl.  The
package __init__ loads every module, so this is read off the source.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jansum"

# what os._exit would drop unfinished
TEARDOWN_MODULES = {"atexit", "threading", "multiprocessing", "tempfile"}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def relative_imports(path: Path) -> set[str]:
    """The package modules that a source file imports by relative imports:
    x for `from .x import y`, `from .x.z import y` and `from . import x`."""
    names = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.partition(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def teardown_lines(path: Path) -> list[int]:
    """The lines of a source file that call open, builtin or as a method,
    or define __del__."""
    return [
        node.lineno
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
        or isinstance(node, ast.FunctionDef) and node.name == "__del__"
    ]


def new_calls(path: Path) -> list[str]:
    """The names of the functions of a source file that hold a call of
    X.__new__, the functions around a nested one included."""
    names = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names += [
                node.name
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "__new__"
            ]
    return names


def test_every_module_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert {"cli.py", "jantzen.py", "lattice.py"} <= {p.name for p in paths}
    foreign = {p.name: absolute_imports(p) - sys.stdlib_module_names for p in paths}
    assert not any(foreign.values()), foreign


def test_no_module_holds_what_teardown_would_release():
    paths = sorted(SRC.glob("*.py"))
    held = {p.name: absolute_imports(p) & TEARDOWN_MODULES for p in paths}
    assert not any(held.values()), held
    opened = {p.name: teardown_lines(p) for p in paths}
    assert not any(opened.values()), opened


def test_the_walk_sees_what_it_forbids(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import threading.local\nfrom atexit import register\nwith open('x') as f:\n"
                    "    pass\nPath('y').open()\nclass A:\n    def __del__(self):\n        pass\n")
    assert absolute_imports(path) & TEARDOWN_MODULES == {"threading", "atexit"}
    assert sorted(teardown_lines(path)) == [3, 5, 7]


def test_one_constructor_bypass():
    bypasses = {p.name: new_calls(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in bypasses.items() if calls} == {"lattice.py": ["_walked"]}


def test_the_bypass_scan_sees_a_new_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class A:\n    pass\ndef make():\n    return A.__new__(A)\n"
                    "def outer():\n    def inner():\n        return object.__new__(A)\n")
    assert sorted(new_calls(path)) == ["inner", "make", "outer"]


def test_jantzen_imports_no_charring_and_charring_no_weyl():
    assert {"charring", "jantzen", "weyl"} <= {p.stem for p in SRC.glob("*.py")}
    assert "charring" not in relative_imports(SRC / "jantzen.py")
    assert "weyl" not in relative_imports(SRC / "charring.py")


def test_the_import_scan_sees_relative_imports(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom json import dumps\nfrom .charring import kostka\n"
                    "from . import weyl, lattice\ndef f():\n    from .jantzen.x import y\n")
    assert relative_imports(path) == {"charring", "weyl", "lattice", "jantzen"}
