"""Every library module reads each name it imports at module level."""

import ast
import pathlib

import pytest

import spherecomplex

MODULES = sorted(p for p in pathlib.Path(spherecomplex.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that no expression
    in the module reads (``__future__`` imports excluded)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "dual", "flagcomplex", "rigidity"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\nx: Optional[int]\n")
    assert unused_imports(tree) == ["Sequence", "os"]
