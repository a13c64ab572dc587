"""Every library module reads each name it imports: module-level imports
somewhere in the module, imports inside a function within that function."""

import ast
import pathlib

import pytest

import spherecomplex

PACKAGE = pathlib.Path(spherecomplex.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope: ast.AST):
    """The import statements of ``scope`` itself, not of the functions
    nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def module_id(path: pathlib.Path) -> str:
    """``cli`` for ``cli.py``, ``commands/pants`` for ``commands/pants.py``."""
    return path.relative_to(PACKAGE).with_suffix("").as_posix()


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression in its scope reads
    (``__future__`` imports excluded); a name imported inside a function
    is reported as ``function.name``."""
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound = set()
        for node in _imports(scope):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        prefix = "" if scope is tree else scope.name + "."
        unused += [prefix + name for name in bound - read]
    return sorted(unused)


def test_every_module_is_checked():
    assert {module_id(p) for p in MODULES} >= {"__init__", "cli", "commands/__init__",
                                               "commands/rigidity", "dual", "flagcomplex",
                                               "rigidity"}


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\nx: Optional[int]\n")
    assert unused_imports(tree) == ["Sequence", "os"]
    # a function-level import counts only reads in its own function; one
    # under ``if`` at module level counts as module-level
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .a import A, B\n"
        "def f(x: A):\n"
        "    from .b import g, h\n"
        "    import os\n"
        "    return g(x)\n"
        "def k():\n"
        "    return os, h\n")
    assert unused_imports(tree) == ["B", "f.h", "f.os"]
