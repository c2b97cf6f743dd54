"""Names that the prose cites still exist: every module-qualified name
(`jantzen.TERM_LIMIT`) in the README and in the package's sources, and every
private name (`_terms_at`) in a module's own docstrings and comments, so
that a rename or a removal cannot leave its description behind."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "jansum"

MODULES = ("lattice", "charring", "weyl", "jantzen", "identities", "serialize", "cli", "oracle")
DOTTED = re.compile(rf"\b({'|'.join(MODULES)})\.(\w+)")
# a private name standing alone, not an attribute (those are DOTTED's) and
# not a dunder
PRIVATE = re.compile(r"(?<![\w.])_[A-Za-z]\w*")


def sources() -> list[Path]:
    return sorted(SRC.glob("*.py"))


def module_of(path: Path):
    """The module of a source file; None for __main__, which importing runs."""
    if path.stem == "__main__":
        return None
    return importlib.import_module("jansum" if path.stem == "__init__" else f"jansum.{path.stem}")


def prose(text: str) -> list[str]:
    """The docstrings and comments of a module's source."""
    tree = ast.parse(text)
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    docs = [ast.get_docstring(node, clean=False) for node in nodes]
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comments = [token.string for token in tokens if token.type == tokenize.COMMENT]
    return [doc for doc in docs if doc] + comments


def test_module_qualified_names_exist():
    cited = {
        (path.name, *match.groups())
        for path in [README, *sources()]
        for match in DOTTED.finditer(path.read_text(encoding="utf-8"))
    }
    missing = [
        (where, module, name)
        for where, module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"jansum.{module}"), name)
    ]
    assert not missing
    assert len(cited) >= 15


def test_private_names_in_prose_exist_in_their_module():
    cited = set()
    missing = []
    for path in sources():
        module = module_of(path)
        if module is None:
            continue
        for chunk in prose(path.read_text(encoding="utf-8")):
            for name in PRIVATE.findall(chunk):
                cited.add((path.name, name))
                if not hasattr(module, name):
                    missing.append((path.name, name))
    assert not missing
    assert len(cited) >= 15
