"""The unchecked constructors are used only where the value is correct by
construction: with each one (``FinSet.from_distinct`` and
``FinSet.from_trusted``, ``FinFn.from_total``, ``FinTop.from_nbhd``,
``Sink``, which trusts the tables of its sources, and ``trusted_table``,
which builds the position tables of the presheaf and gluing layers)
replaced by its validating constructor,
the golden corpus gives the same bytes and the acceptance criteria still
pass, so no trusted value would have failed its own check.  The same holds
for the maps that ``table_properties`` trusts to be continuous: with each
report preceded by a ``TopMap``, which raises on a map that is not,
nothing changes."""

import contextlib
import io
import json
import os
import sys

import pytest

from glueforge import cli, fincat, gluing, presheaf, site
from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet, FinTop, TopMap
from glueforge.site import Sink

import test_acceptance
from fixtures import discrete_space, indiscrete_space, label_nbhd

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "golden")


def listed_opens(nbhd):
    """Every union of the given neighbourhoods, uncharged."""
    family = {frozenset()}
    for u in nbhd.values():
        family |= {o | u for o in family}
    return family


UNCHECKED = FinTop.from_nbhd


def validating_space(cls, carrier, rows):
    nbhd = label_nbhd(UNCHECKED(carrier, rows))
    space = cls(carrier, listed_opens(nbhd))
    assert label_nbhd(space) == nbhd, \
        "not the minimal neighbourhoods of a topology"
    return space


def checking_table(values, domain, codomain):
    """A table built from the points or sections ``domain`` into
    ``codomain``, refused unless it has one position of ``codomain`` per
    member of ``domain``."""
    if len(values) != len(domain) or not all(
            type(y) is int and 0 <= y < len(codomain) for y in values):
        raise StructuralError("table %r does not map %d points into %d"
                              % (values, len(domain), len(codomain)))
    return values


def table_view(img, dom, cod):
    """The ``FinFn`` between the carriers of two spaces that sends position
    ``k`` to position ``img[k]``."""
    return FinFn(dom.carrier, cod.carrier, dict(zip(
        dom.carrier.labels, map(cod.carrier.labels.__getitem__, img))))


def swap_everywhere(monkeypatch, real, replacement):
    """Replace ``real`` in every glueforge module that holds it, so that
    each import of it is replaced."""
    name = real.__name__
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("glueforge") and \
                getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def validating(monkeypatch):
    for name in ("from_distinct", "from_trusted"):
        monkeypatch.setattr(FinSet, name,
                            classmethod(lambda cls, labels: cls(labels)))
    real_sink = Sink.__init__

    def checking_sink(self, ambient, target, sources, target_space=None):
        sources = list(sources)
        for _, obj, values in sources:
            space = obj if isinstance(obj, FinTop) else None
            carrier = obj if space is None else obj.carrier
            checking_table(values, carrier, target)
            if ambient == "top":
                TopMap(table_view(values, space, target_space), space,
                       target_space)
        real_sink(self, ambient, target, sources, target_space)

    monkeypatch.setattr(Sink, "__init__", checking_sink)
    monkeypatch.setattr(FinFn, "from_total",
                        classmethod(lambda cls, dom, cod, m: cls(dom, cod, m)))
    monkeypatch.setattr(FinTop, "from_nbhd", classmethod(validating_space))
    swap_everywhere(monkeypatch, fincat.trusted_table, checking_table)
    real_table = fincat.table_properties

    def table_properties(img, dom, cod):
        TopMap(table_view(img, dom, cod), dom, cod)
        return real_table(img, dom, cod)

    swap_everywhere(monkeypatch, real_table, table_properties)


def test_validating_swap_checks(validating):
    for build in (FinSet.from_distinct, FinSet.from_trusted):
        with pytest.raises(StructuralError, match="duplicate label"):
            build(["a", "a"])
    a = FinSet(["a"])
    with pytest.raises(StructuralError, match="not a codomain label"):
        FinFn.from_total(a, a, {"a": "b"})
    for module in (fincat, gluing, presheaf):
        for values in ([0, 2], [0], [0, -1], [0, 1.0]):
            with pytest.raises(StructuralError, match="does not map"):
                module.trusted_table(values, ("s", "t"), ("u", "v"))
    # b is missing from its own neighbourhood, the row 0b01 of a alone
    with pytest.raises(AssertionError):
        FinTop.from_nbhd(FinSet(["a", "b"]), [0b11, 0b01])
    # the identity from the indiscrete onto the discrete pair
    pair = FinSet(["a", "b"])
    with pytest.raises(StructuralError, match="not continuous"):
        Sink("top", pair, [("1", indiscrete_space(pair), [0, 1])],
             target_space=discrete_space(pair))
    with pytest.raises(StructuralError, match="does not map"):
        Sink("sets", pair, [("1", pair, [0, 2])])
    for module in (fincat, gluing, site):
        with pytest.raises(StructuralError, match="not continuous"):
            module.table_properties([0, 1], indiscrete_space(pair),
                                    discrete_space(pair))


def golden_cases():
    with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as h:
        return json.load(h)


def test_golden_corpus_identical_with_validating_constructors(validating):
    for case in golden_cases():
        base = os.path.join(CORPUS, case["name"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([case["argv"][0], "--input", base + ".json"]
                            + case["argv"][1:])
        with open(base + ".out", encoding="utf-8") as h:
            assert out.getvalue() == h.read(), case["name"]
        with open(base + ".err", encoding="utf-8") as h:
            assert err.getvalue() == h.read(), case["name"]
        assert code == case["exit"], case["name"]


CRITERIA = [getattr(test_acceptance, name) for name in dir(test_acceptance)
            if name.startswith("test_criterion_")]


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=lambda fn: fn.__name__[len("test_"):])
def test_acceptance_with_validating_constructors(validating, criterion):
    criterion()
