"""Every name the engine imports at module level is used in that module,
and every parameter of an engine function is read by its body."""

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


def unread_parameters(source):
    """Parameters that their function's body never reads, as (line, function,
    parameter).  Dunder methods, the receiver ``self``/``cls`` and the
    command handlers listed in a module-level ``_HANDLERS`` dict, which share
    one dispatch signature, are exempt."""
    tree = ast.parse(source)
    handlers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_HANDLERS"
                for t in node.targets):
            handlers = {v.id for v in node.value.values
                        if isinstance(v, ast.Name)}
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name in handlers or (fn.name.startswith("__")
                                   and fn.name.endswith("__")):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        unread.extend((fn.lineno, fn.name, a.arg) for a in params
                      if a.arg not in read and a.arg not in ("self", "cls"))
    return sorted(unread)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_every_parameter_is_read(path):
    with open(path, encoding="utf-8") as handle:
        assert unread_parameters(handle.read()) == []


def test_scan_finds_a_leftover_parameter():
    source = ("def glue(datum, glued, projections, flag=True):\n"
              "    def inner(x, unused):\n"
              "        return x + projections\n"
              "    return inner(datum, 0)\n"
              "class Store:\n"
              "    def __init__(self, spare):\n"
              "        pass\n"
              "    def at(self, o, *rest, **extra):\n"
              "        return rest\n"
              "def _command(doc, flags):\n"
              "    return None\n"
              "_HANDLERS = {'command': _command}\n")
    assert unread_parameters(source) == [
        (1, "glue", "flag"), (1, "glue", "glued"), (2, "inner", "unused"),
        (8, "at", "extra"), (8, "at", "o")]


def repeated_definitions(sources):
    """Each top-level function or class name that two or more of
    ``sources`` (module name to source text) define, with those modules,
    sorted."""
    where = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                where.setdefault(node.name, []).append(module)
    return sorted((name, modules) for name, modules in where.items()
                  if len(modules) > 1)


def engine_sources():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            sources[os.path.basename(path)[:-3]] = handle.read()
    return sources


def test_no_two_modules_define_one_name():
    assert repeated_definitions(engine_sources()) == []


def test_scan_finds_a_definition_made_twice():
    planted = dict(engine_sources())
    planted["gluing"] += ("\n\ndef compose(first, then):\n"
                          "    return [then[k] for k in first]\n"
                          "\n\nclass Sink:\n    pass\n")
    assert repeated_definitions(planted) == [
        ("Sink", ["gluing", "site"]), ("compose", ["fincat", "gluing"])]
