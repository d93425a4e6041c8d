"""Every name a package module imports is referenced in that module, no
module imports another's private name, every name a module defines is
referenced somewhere, and every config key is read by a stage.

The project ships no linter, so these tests stand in for unused-import and
dead-code checks: a deletion that leaves an import or a definition behind
fails here. They read the sources with ``ast`` only; the last imports the
config class to list its keys.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "microseg"


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


def private_imports(source: str) -> list[str]:
    """``line N: name`` for each ``_``-prefixed name the source imports from
    a package module: a relative import or one from ``microseg``. A private
    name is its module's own; one that another module needs is public."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "microseg"
        ):
            hits.extend(
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    return hits


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_detects_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .pipeline import UsageError, _validate_config\n"
        "from . import _helpers\n"
        "from microseg.flows import _parse_value as parse_value\n"
        "from microseg import cli\n"
        "from microsegment import _other\n"
    )
    assert private_imports(source) == [
        "line 3: _validate_config", "line 4: _helpers", "line 5: _parse_value"
    ]


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each top-level function, class and assigned name, with its statement."""
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        defined[name.id] = node
    return defined


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each name read, attribute accessed or name imported."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
    return refs


def dead_names(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """``module: name`` for each top-level definition of a ``package``
    module that no source references outside the definition's own lines.
    Both arguments map a source's label to its text."""
    trees = {label: ast.parse(text) for label, text in {**others, **package}.items()}
    refs: dict[str, list[tuple[str, int]]] = {}
    for label, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((label, line))
    dead = []
    for module in package:
        for name, node in _defined(trees[module]).items():
            if not any(
                label != module or not node.lineno <= line <= node.end_lineno
                for label, line in refs.get(name, ())
            ):
                dead.append(f"{module}: {name}")
    return dead


def test_no_dead_names():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for folder in ("src", "bench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    package = {label: text for label, text in sources.items() if label.startswith("src/")}
    others = {label: text for label, text in sources.items() if label not in package}
    assert dead_names(package, others) == []


def test_detects_dead_names():
    module = (
        "import os\n"
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "LOW, HIGH = 0, 1\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else LIMIT\n"
        "def used():\n"
        "    return os.sep, LOW\n"
        "class Kept:\n"
        "    pass\n"
    )
    other = "from mod import used\nprint(used(), Kept)\n"
    assert dead_names({"mod.py": module}, {"test.py": other}) == [
        "mod.py: UNUSED", "mod.py: HIGH", "mod.py: helper"
    ]


def unread_keys(keys: list[str], sources: list[str]) -> list[str]:
    """Each key that no source reads as an attribute (``config.key``)
    outside ``PipelineConfig.__post_init__``: a key only checked there
    changes no run."""
    read = set()
    for source in sources:
        tree = ast.parse(source)
        checks = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "PipelineConfig"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)
        }
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in checks
        )
    return [key for key in keys if key not in read]


def test_every_config_key_is_read():
    from microseg.pipeline import PipelineConfig

    keys = [field.name for field in dataclasses.fields(PipelineConfig)]
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_keys(keys, sources) == []


def test_detects_unread_keys():
    source = (
        "class PipelineConfig:\n"
        "    def __post_init__(self):\n"
        "        if self.checked_only < 1:\n"
        "            raise ValueError\n"
        "def run(config):\n"
        "    config.stored_only = 2\n"
        "    return config.used\n"
    )
    assert unread_keys(["used", "checked_only", "stored_only"], [source]) == [
        "checked_only", "stored_only"
    ]
