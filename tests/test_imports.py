"""Every name a package module imports is referenced in that module.

The project ships no linter, so this test stands in for an unused-import
check: a deletion that leaves an import behind fails here. It reads the
sources with ``ast`` only and imports nothing from the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "microseg"


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name that the source never reads.

    A name counts as read where it appears as an expression (attribute
    access included), inside a string annotation, or in ``__all__``.
    ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations and __all__ entries; any other string that
            # parses as an expression can only hide an unused import.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .flows import DataError\n"
        "def f(x: 'Mapping') -> Sequence:\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: DataError"]
