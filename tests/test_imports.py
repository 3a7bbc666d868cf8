"""Every package module reads each name it imports or binds, and formats each f-string.

No linter is required to work on the package, so these AST checks stand in
for the unused-import rule (F401), the placeholder-free f-string rule (F541)
and the unused-local rule (F841), which also guards the test files, and find
module-level private names that no package module reads (dead code).  One
more check holds ``wcsp.__all__`` to exactly the public names that
``__init__.py`` imports, and one holds the imports inside function bodies to
the loader's single deferred one, and one holds the module-level imports
between package modules to a graph without a cycle.
``__init__.py`` re-exports by design and is skipped by the import check; an
import line marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wcsp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


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


def unused_locals(source: str) -> list[str]:
    """The names each function binds and never reads, as ``function.name``.

    Assignments, augmented assignments and ``for`` and ``with`` targets bind a
    name; a read anywhere in the function, nested scopes included, counts.
    Names that start with ``_`` are exempt, and so are names a ``global`` or
    ``nonlocal`` statement hands to an enclosing scope.
    """
    hits = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: dict[str, int] = {}
        declared: set[str] = set()
        pending = list(function.body)
        while pending:  # the function's own scope, not the scopes nested in it
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [item.optional_vars for item in node.items if item.optional_vars]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        bound.setdefault(name.id, name.lineno)
            pending.extend(ast.iter_child_nodes(node))
        read = {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        hits += [
            f"{function.name}.{name}"
            for name, _line in sorted(bound.items(), key=lambda item: item[1])
            if name not in read and name not in declared and not name.startswith("_")
        ]
    return hits


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


def test_the_check_finds_unused_locals():
    source = (
        "total = 0\n"
        "def f(rows):\n"
        "    global total\n"
        "    total = 1\n"
        "    count = 0\n"
        "    count += 1\n"
        "    for i, row in enumerate(rows):\n"
        "        first, *rest = row\n"
        "    with open('x') as handle:\n"
        "        _, kept = 1, 2\n"
        "    size: int = 3\n"
        "    width: int\n"
        "    def g():\n"
        "        inner = 1\n"
        "        return kept + size\n"
        "    return lambda: first\n"
    )
    assert unused_locals(source) == ["f.count", "f.i", "f.rest", "f.handle", "g.inner"]


@pytest.mark.parametrize(
    "path",
    [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))],
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_module_reads_every_local(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names that no module reads, as ``module.name``.

    ``sources`` maps module names to their text.  A private name starts with
    ``_`` and is not a dunder.  Its own module reads it outside the statement
    that defines it; another module reads it by importing it from that module
    or as an attribute of anything.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = set()
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                imported.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    hits = []
    for module, tree in trees.items():
        defined = []
        read = set()
        for statement in tree.body:
            names = _defined_names(statement)
            defined += names
            read |= {
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            } - set(names)
        hits += [
            f"{module}.{name}"
            for name in defined
            if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))
            and name not in read
            and (module, name) not in imported
            and name not in attributes
        ]
    return hits


def test_the_check_finds_dead_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD: int = 2\n"
            "__version__ = '1'\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) + _USED\n"
            "def _imported():\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "class _Orphan:\n"
            "    def _method(self):\n"
            "        pass\n"
            "def public():\n"
            "    pass\n"
        ),
        "b": (
            "from .a import _imported\n"
            "import a\n"
            "a._by_attribute()\n"
            "_imported()\n"
        ),
    }
    assert dead_private_names(sources) == ["a._DEAD", "a._recursive", "a._Orphan"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def test_all_lists_exactly_the_public_imports():
    import wcsp

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert len(wcsp.__all__) == len(set(wcsp.__all__))
    assert sorted(wcsp.__all__) == sorted(name for name in imported if not name.startswith("_"))
    assert [name for name in wcsp.__all__ if not hasattr(wcsp, name)] == []


def function_imports(source: str) -> list[str]:
    """The import statements inside function bodies, as ``function: statement``.

    A statement is listed under the innermost function that holds it.
    """
    hits = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                hits.append(f"{function}: {ast.unparse(child)}")
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return hits


def test_the_check_finds_imports_in_function_bodies():
    source = (
        "import os\n"
        "def f():\n"
        "    from .a import b\n"
        "    def g():\n"
        "        import json as j\n"
        "    if b:\n"
        "        import re\n"
        "class C:\n"
        "    import sys\n"
        "    def m(self):\n"
        "        from . import d, e\n"
    )
    assert function_imports(source) == [
        "f: from .a import b",
        "g: import json as j",
        "f: import re",
        "m: from . import d, e",
    ]


def test_the_only_import_in_a_function_is_the_loaders_builtin_lookup():
    # an import in a function runs on every call, and one placed there to
    # break a cycle marks that cycle; the loader's runs once per load
    hits = {
        path.name: function_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in hits.items() if found} == {
        "model.py": ["instance_from_obj: from .library import resolve_builtin"]
    }


def package_imports(source: str) -> set[str]:
    """The package modules that a module imports outside function bodies.

    ``from .a import b`` and ``from .a.c import b`` name ``a``; ``from . import a``
    names ``a``.
    """
    found = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                if child.module:
                    found.add(child.module.split(".")[0])
                else:
                    found.update(alias.name for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of the graph as the path that closes it, or ``[]`` when it has none."""
    done: set[str] = set()
    path: list[str] = []

    def walk(node: str) -> list[str]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = walk(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = walk(node)
        if cycle:
            return cycle
    return []


def test_the_check_finds_import_cycles():
    source = (
        "from . import a, b\n"
        "from .c.d import e\n"
        "from .errors import InputError\n"
        "import json\n"
        "from json import dumps\n"
        "if True:\n"
        "    from .f import g\n"
        "def h():\n"
        "    from .i import j\n"
        "class K:\n"
        "    from .l import m\n"
    )
    assert package_imports(source) == {"a", "b", "c", "errors", "f", "l"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert import_cycle({"a": {"a"}}) == ["a", "a"]


def test_package_imports_are_layered():
    graph = {
        path.stem: package_imports(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    assert import_cycle(graph) == []
    # the GF(2) routines take bit-packed ints, so they need no model type
    assert graph["gf2"] == {"errors"}
    assert graph["errors"] == set()
    # unary extraction reads one coset of the support, not a classification
    assert "classify" not in graph["reductions"]
