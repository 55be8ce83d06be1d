"""The unchecked constructors are used only where the value is correct by
construction: with each one (``FinSet.from_distinct`` and
``FinSet.from_trusted``, ``FinFn.from_total``, ``FinTop.from_nbhd``,
``Sink.from_valid`` and the presheaf layer's ``trusted_table``) replaced
by its validating constructor, the golden
corpus gives the same bytes and the acceptance criteria still pass, so no
trusted value would have failed its own check.  The same holds for the
maps that ``map_properties`` trusts to be continuous: with each report
preceded by a ``TopMap``, which raises on a map that is not, nothing
changes."""

import contextlib
import io
import json
import os
import sys

import pytest

from glueforge import cli, fincat, presheaf
from glueforge.errors import StructuralError
from glueforge.fincat import FinFn, FinSet, FinTop, TopMap
from glueforge.site import Sink

import test_acceptance
from fixtures import label_nbhd

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
    """A table built from the sections ``domain`` into ``codomain``,
    refused unless it has one position of ``codomain`` per section."""
    if len(values) != len(domain) or not all(
            type(y) is int and 0 <= y < len(codomain) for y in values):
        raise StructuralError("table %r does not map %d sections into %d"
                              % (values, len(domain), len(codomain)))
    return values


@pytest.fixture
def validating(monkeypatch):
    for name in ("from_distinct", "from_trusted"):
        monkeypatch.setattr(FinSet, name,
                            classmethod(lambda cls, labels: cls(labels)))
    monkeypatch.setattr(Sink, "from_valid", classmethod(
        lambda cls, *args, **kwargs: cls(*args, **kwargs)))
    monkeypatch.setattr(FinFn, "from_total",
                        classmethod(lambda cls, dom, cod, m: cls(dom, cod, m)))
    monkeypatch.setattr(FinTop, "from_nbhd", classmethod(validating_space))
    monkeypatch.setattr(presheaf, "trusted_table", checking_table)
    real = fincat.map_properties

    def validating_properties(fn, dom, cod):
        TopMap(fn, dom, cod)
        return real(fn, dom, cod)

    # every module that holds the name, so that each import of it is checked
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("glueforge") and \
                getattr(module, "map_properties", None) is real:
            monkeypatch.setattr(module, "map_properties",
                                validating_properties)


def test_validating_swap_checks(validating):
    for build in (FinSet.from_distinct, FinSet.from_trusted):
        with pytest.raises(StructuralError, match="duplicate label"):
            build(["a", "a"])
    a = FinSet(["a"])
    with pytest.raises(StructuralError, match="not a codomain label"):
        FinFn.from_total(a, a, {"a": "b"})
    for values in ([0, 2], [0], [0, -1], [0, 1.0]):
        with pytest.raises(StructuralError, match="does not map"):
            presheaf.trusted_table(values, ("s", "t"), ("u", "v"))
    # b is missing from its own neighbourhood, the row 0b01 of a alone
    with pytest.raises(AssertionError):
        FinTop.from_nbhd(FinSet(["a", "b"]), [0b11, 0b01])
    # the identity from the indiscrete onto the discrete pair
    pair = FinSet(["a", "b"])
    with pytest.raises(StructuralError, match="not continuous"):
        Sink.from_valid("top", pair, [("1", FinTop.indiscrete(pair),
                                       FinFn.identity(pair))],
                        target_space=FinTop.discrete(pair))
    for module in ("fincat", "gluing", "site"):
        with pytest.raises(StructuralError, match="not continuous"):
            getattr(sys.modules["glueforge." + module], "map_properties")(
                FinFn.identity(pair), FinTop.indiscrete(pair),
                FinTop.discrete(pair))


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
