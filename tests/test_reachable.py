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
``tests/oracles.py``), unless it is on the allow-list below.

A runtime check backs the scan: a profile hook records every function of
the engine that ``cli.main`` enters on the golden documents and on the
seed-1 lists of the benchmark workloads, and every top-level function and
method, dunders included, must be entered unless ``RUNTIME_ALLOWED`` names
it with a reason."""

import ast
import contextlib
import fnmatch
import glob
import io
import json
import os
import sys
from unittest import mock

import pytest

import glueforge
from glueforge import cli

from fixtures import benchmark_items, item_argv, perfbench_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "glueforge")
CORPUS = os.path.join(ROOT, "perfbench", "golden")

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
                                     "cli.Opens.emit", "cli._joined",
                                     "cli._object"]


# what the runtime check may find unentered, by ``fnmatch`` pattern over
# ``module.qualname``, with the reason
_TRACER_CLOSURE = "reached only from the tracer-bound definitions"
RUNTIME_ALLOWED = {
    # refusal paths: no golden or seed-1 document is refused there
    "fincat._refuse_*": "words the refusal of a checking constructor",
    "cli._parse_objkey": "parses a key the key table lacks, to word its "
                         "refusal",
    "cli._parse_openkey": "parses a key the lattice lacks, to word its "
                          "refusal",
    "presheaf.OpenLattice.names": "names opens in error texts only",
    # the tracer-bound definitions and what only they reach
    **dict.fromkeys(TRACER_BOUND, "tracer-bound"),
    "gluing.ConeCandidate.*": "the cone that gluing.mediating_map factors",
    "gluing._check_cone": _TRACER_CLOSURE,
    "gluing.GluingData.fn": _TRACER_CLOSURE,
    "gluing.GluingData.expected_endpoints": _TRACER_CLOSURE,
    "site._fibred": _TRACER_CLOSURE,
    "fincat.FinFn.*": _TRACER_CLOSURE,
    "fincat.TopMap.*": _TRACER_CLOSURE,
    "fincat.PairedSubset.*": _TRACER_CLOSURE,
    "fincat.commutes": _TRACER_CLOSURE,
    "fincat.is_iso": _TRACER_CLOSURE,
    "fincat.pair_label": _TRACER_CLOSURE,
    "fincat._positions": _TRACER_CLOSURE,
    "fincat.FinTop.opens": "the tracer's counts of opens",
    "fincat.FinTop._sets": "the tracer's counts of opens",
    # the schema generator runs at import, before the hook is set
    "schema.compile_schemas": "runs at import",
    "schema._shipped": "runs at import",
    "schema._check_values": "runs at import",
    "schema._lines": "runs at import",
    "schema._malformed": "runs at import",
    # guards and texts for a debugger
    "*.__setattr__": "an immutability guard",
    "*.__repr__": "a text for a debugger",
    "indexcat.IndexCat.__eq__": "index categories are compared by tests "
                                "only",
    "indexcat.IndexCat.__hash__": "index categories are hashed by tests "
                                  "only",
    "presheaf.all_coverings": "runs only when an exhaustive sheaf verdict "
                              "is false",
}


def functions(sources):
    """``module.qualname`` of each top-level function and each method,
    dunders included, of ``sources`` (module name to source text)."""
    names = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                names.add("%s.%s" % (module, node.name))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    names.add("%s.%s.%s" % (module, node.name, item.name))
    return names


def entered(run, package):
    """``module.qualname`` of each function in the directory ``package``
    that ``run()`` enters, as a profile hook records them."""
    codes = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)
    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(outer)
    package = os.path.abspath(package)
    return {"%s.%s" % (os.path.basename(code.co_filename)[:-3],
                       code.co_qualname)
            for code in codes
            if os.path.dirname(os.path.abspath(code.co_filename)) == package}


def unentered(sources, names, allowed=()):
    """Each function of ``sources`` that is not in ``names`` and that no
    pattern of ``allowed`` matches, sorted."""
    return sorted(name for name in functions(sources) - names
                  if not any(fnmatch.fnmatchcase(name, pattern)
                             for pattern in allowed))


def _run_documents():
    with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as h:
        cases = json.load(h)
    runs = []
    for case in cases:
        with open(os.path.join(CORPUS, case["name"] + ".json"),
                  encoding="utf-8") as handle:
            runs.append((case["argv"], handle.read(), (case["exit"],)))
    for _, item in benchmark_items():
        runs.append((item_argv(item), json.dumps(item["doc"]), (0, 1)))

    def run():
        for argv, text, codes in runs:
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in codes
    return run


@pytest.fixture(scope="module")
def entered_by_commands():
    cli._schema_registry.cache_clear()    # entered once per process
    return entered(_run_documents(),
                   os.path.dirname(glueforge.__file__))


def test_every_function_is_entered_by_a_command(entered_by_commands):
    assert unentered(SOURCES, entered_by_commands, RUNTIME_ALLOWED) == []


@pytest.mark.parametrize("pattern", sorted(RUNTIME_ALLOWED))
def test_runtime_allow_list_names_only_unentered_functions(
        entered_by_commands, pattern):
    matched = fnmatch.filter(functions(SOURCES), pattern)
    assert matched, "gone"
    assert not set(matched) & entered_by_commands, "entered by a command"


def test_runtime_check_finds_a_planted_function(entered_by_commands,
                                                tmp_path):
    planted = dict(SOURCES, fincat=SOURCES["fincat"]
                   + "\n\ndef leftover(a):\n    return pair_label(a, a)\n")
    assert unentered(planted, entered_by_commands, RUNTIME_ALLOWED) \
        == ["fincat.leftover"]
    # the hook itself, on a module that enters one of its two functions
    source = ("class Report:\n"
              "    def text(self):\n"
              "        return 'used'\n"
              "def leftover():\n"
              "    return Report().text()\n")
    namespace = {}
    exec(compile(source, str(tmp_path / "kernel.py"), "exec"), namespace)
    names = entered(namespace["Report"]().text, tmp_path)
    assert names == {"kernel.Report.text"}
    assert unentered({"kernel": source}, names) == ["kernel.leftover"]
