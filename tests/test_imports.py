"""Every name the engine imports at module level is used in that module."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "glueforge")


def unused_imports(source):
    """Top-level imported names that the module never reads and does not
    re-export through ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_unused_top_level_import(path):
    with open(path, encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_scan_finds_a_leftover_import():
    source = ("from .fincat import equalizer, product_enumerate, tag\n"
              "import os.path\n"
              "def f(x):\n"
              "    return tag('a', os.path.join(x))\n")
    assert unused_imports(source) == [(1, "equalizer"), (1, "product_enumerate")]
