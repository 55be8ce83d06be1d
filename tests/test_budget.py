"""The enumeration cap is a scoped budget, read only by ``errors.charge``."""

import inspect

import pytest

import glueforge.errors
from glueforge import fincat, gluing, presheaf, refine, site
from glueforge.errors import DEFAULT_CAP, ResourceError, budget, charge


def refused_at(size):
    """The cap in force, read from the error of a charge just above it."""
    with pytest.raises(ResourceError) as err:
        charge("probe", size)
    return err.value.cap


def test_budget_scopes_nest_and_restore_the_outer_cap():
    assert refused_at(DEFAULT_CAP + 1) == DEFAULT_CAP
    with budget(10):
        charge("probe", 10)
        assert refused_at(11) == 10
        with budget(3):
            assert refused_at(4) == 3
        assert refused_at(11) == 10
        with pytest.raises(ResourceError), budget(2):
            charge("probe", 5)
        charge("probe", 10)
        assert refused_at(11) == 10
    assert refused_at(DEFAULT_CAP + 1) == DEFAULT_CAP


def test_budget_none_falls_back_to_the_default(monkeypatch):
    with budget(None):
        charge("probe", DEFAULT_CAP)
        assert refused_at(DEFAULT_CAP + 1) == DEFAULT_CAP
    monkeypatch.setattr(glueforge.errors, "DEFAULT_CAP", 7)
    with budget(100), budget(None):
        with pytest.raises(ResourceError) as err:
            charge("probe", 8)
    assert err.value.size == 8
    assert str(err.value) == "probe would enumerate 8 items, above the cap of 7"


@pytest.mark.parametrize("module", [fincat, gluing, presheaf, refine, site],
                         ids=lambda m: m.__name__)
def test_no_engine_function_takes_a_cap(module):
    functions = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions.extend(f for f in vars(obj).values()
                             if inspect.isfunction(f))
    assert functions
    assert [f.__qualname__ for f in functions
            if "cap" in inspect.signature(f).parameters] == []
