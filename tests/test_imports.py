"""Every package module reads each name it imports.

No linter is required to work on the package, so this AST check stands in for
the unused-import rule (F401).  ``__init__.py`` re-exports by design and is
skipped; an import line marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wcsp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that import statements bind and no other code reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if not any("# noqa: F401" in line for line in marked):
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_unused_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from typing import (\n"
        "    Any,\n"
        "    Iterable,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: Iterable) -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == ["Any", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
