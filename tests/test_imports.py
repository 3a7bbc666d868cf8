"""Every package module reads each name it imports and formats each f-string.

No linter is required to work on the package, so these AST checks stand in
for the unused-import rule (F401) and the placeholder-free f-string rule
(F541).  ``__init__.py`` re-exports by design and is skipped by the import
check; an import line marked ``# noqa: F401`` is a deliberate re-export.
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


def placeholderless_fstrings(source: str) -> list[int]:
    """The lines of f-strings that hold no ``{...}`` placeholder.

    The format spec of a placeholder, ``.12g`` in ``f"{x:.12g}"``, is an
    f-string node of its own and is not counted.
    """
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    specs = {
        id(node.format_spec)
        for node in nodes
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    return [
        node.lineno
        for node in nodes
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(value, ast.FormattedValue) for value in node.values)
    ]


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


def test_the_check_finds_fstrings_without_placeholders():
    source = (
        'a = f"plain"\n'
        'b = f"{x:.12g}"\n'
        'c = f"{x:{width}}"\n'
        'd = "joined " f"{x}"\n'
        'e = (f"no "\n'
        '     "fields")\n'
    )
    assert placeholderless_fstrings(source) == [1, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_formats_every_fstring(path):
    assert placeholderless_fstrings(path.read_text(encoding="utf-8")) == []
