"""The package's own source: every module reads each name it imports, and every
module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "susychain"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from .basis import SectorKey, decompose_n_sector\nprint(os.sep, SectorKey)\n")
    assert unused_imports(source) == ["system", "decompose_n_sector"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Module-level `_private` names a module defines; dunders are exempt."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unread_privates(sources: list[str]) -> list[str]:
    """Module-level `_private` names defined in `sources` that none of them reads."""
    read = set().union(*map(read_names, sources))
    return [name for source in sources for name in private_definitions(source)
            if name not in read]


def test_the_check_finds_an_unread_private_name():
    sources = ["_LIMIT = 3\n__all__ = []\n\ndef _used():\n    return _LIMIT\n\n"
               "def _stranded():\n    pass\n\nclass _Orphan:\n    pass\n",
               "from .a import _used\n\ndef public():\n    return _used()\n"]
    assert unread_privates(sources) == ["_stranded", "_Orphan"]


def test_every_private_name_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_privates(sources) == []
