"""Every top-level definition and every method of the engine is reached
from a command.

An ``ast`` scan starts from ``cli.main`` and from every module-level
statement that is not a definition, and follows each ``Name`` and
``Attribute`` that matches a definition's name, in any module.  A method
other than a dunder is a definition of its own, ``module.Class.method``,
reached by its name as an attribute; a class that is reached brings its
dunder methods and the rest of its body, not its other methods.  A
definition the scan does not reach has no caller in the product: it belongs
on the test side (``tests/paper.py``, ``tests/fixtures.py`` or
``tests/oracles.py``), unless it is on the allow-list below."""

import ast
import glob
import os

import pytest

from fixtures import perfbench_module

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "glueforge")

SOURCES = {}
for _path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
    with open(_path, encoding="utf-8") as _handle:
        SOURCES[os.path.basename(_path)[:-3]] = _handle.read()

# perfbench/tracing.py binds these by name, with getattr and no default, so
# they stay in the engine, as roots of the scan, while it does
TRACER_BOUND = {
    "fincat.pullback": "the fincat.pullback.* metrics",
    "fincat.product_enumerate": "the fincat.product_enumerate.* metrics",
    "fincat.top_product": "the fincat.top_product.* metrics",
    "gluing.mediating_map": "the gluing.mediating_map.* metrics",
    "site.canonical_sink_functor": "the site.canonical_sink_functor.ms metric",
    "site.base_change_sink": "the site.base_change_sink.ms metric",
    "site.sinks_equivalent": "the site.sinks_equivalent.calls metric",
}
# stays with a tracer-bound definition that uses it without naming it
COMPANIONS = {
    "gluing.ConeCandidate": "gluing.mediating_map",   # the cone it factors
}
ROOTS = ("cli.main", *TRACER_BOUND, *COMPANIONS)


def unreached(sources, roots=("cli.main",)):
    """``module.name`` of each top-level function and class definition, and
    ``module.Class.name`` of each method but the dunders, of ``sources``
    (module name to source text) that neither ``roots`` nor a module-level
    statement reaches, sorted."""
    defs = {}
    todo = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs["%s.%s" % (module, node.name)] = node
            else:
                todo.append(node)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    defs["%s.%s.%s" % (module, node.name, item.name)] = item
    methods = {id(node) for key, node in defs.items() if key.count(".") == 2}
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
    reached = set(roots)
    todo += [defs[key] for key in roots]
    while todo:
        walk = [todo.pop()]
        while walk:
            node = walk.pop()
            # a method inside a reached class waits to be reached itself
            walk += [child for child in ast.iter_child_nodes(node)
                     if id(child) not in methods]
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(defs[key])
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_from_a_command():
    assert unreached(SOURCES, ROOTS) == []


@pytest.mark.parametrize("name", sorted({**TRACER_BOUND, **COMPANIONS}))
def test_allow_list_names_only_unreached_definitions(name):
    module, _, attr = name.partition(".")
    assert any(isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name == attr
               for node in ast.parse(SOURCES[module]).body), "gone"
    assert name in unreached(SOURCES), "reached from a command"


def test_tracer_still_binds_every_tracer_bound_name():
    tracing = perfbench_module("tracing")
    bound = {"%s.%s" % (module.__name__.rsplit(".", 1)[1], attr)
             for module, attr, *_ in tracing.TRACED}
    assert sorted(set(TRACER_BOUND) - bound) == []
    assert set(COMPANIONS.values()) <= set(TRACER_BOUND)


def test_scan_finds_a_planted_leftover():
    sources = {
        "cli": ("from . import kernel\n"
                "def main(argv=None):\n"
                "    return kernel.run(argv)\n"
                "def _glue(doc):\n"
                "    return Report(doc)\n"
                "_HANDLERS = {'glue': _glue}\n"),
        "kernel": ("def run(argv):\n"
                   "    return argv\n"
                   "class Report:\n"
                   "    pass\n"
                   "def leftover(x):\n"
                   "    return helper(x)\n"
                   "def helper(x):\n"
                   "    return run(x)\n"),
    }
    assert unreached(sources) == ["kernel.helper", "kernel.leftover"]
    assert unreached(sources, ("cli.main", "kernel.leftover")) == []
    planted = dict(SOURCES, fincat=SOURCES["fincat"]
                   + "\n\ndef leftover(a):\n    return pair_label(a, a)\n")
    assert unreached(planted, ROOTS) == ["fincat.leftover"]


def test_scan_finds_a_planted_method():
    sources = {
        "cli": ("def main(argv=None):\n"
                "    return Report(argv).text()\n"),
        "kernel": ("class Report:\n"
                   "    def __init__(self, argv):\n"
                   "        self.argv = argv\n"
                   "    def text(self):\n"
                   "        return str(self.argv)\n"
                   "    def leftover(self):\n"
                   "        return helper(self)\n"
                   "def helper(report):\n"
                   "    return report\n"),
    }
    assert unreached(sources) == ["kernel.Report.leftover", "kernel.helper"]
    planted = dict(SOURCES, fincat=SOURCES["fincat"].replace(
        "class FinSet:\n", "class FinSet:\n"
        "    def leftover(self):\n        return self.labels\n", 1))
    assert unreached(planted, ROOTS) == ["fincat.FinSet.leftover"]


def test_report_records_are_written_only_through_the_emitter():
    call = "node.emit(indent, out)"
    assert SOURCES["cli"].count(call) == 1
    cut = dict(SOURCES, cli=SOURCES["cli"].replace(call, "pass"))
    # the records are the one user of the bulk object join
    assert unreached(cut, ROOTS) == ["cli.Classes.emit", "cli.LabelMap.emit",
                                     "cli._joined", "cli._object"]
