from __future__ import annotations

import pytest

import pctrank.indicators
import pctrank.model
from pctrank import DocumentSet, RankedSet, rank
from support import make_distinct


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Run tests/test_fast_paths.py one case at a time: every test of a
    case, then those of the next, so that support.attribute_each computes
    each of a case's references once. A case test's id is its case's id in
    IDS; the module's other tests run after them, and no item leaves its
    place among the other modules' items."""
    places = [i for i, item in enumerate(items) if item.path.name == "test_fast_paths.py"]
    if not places:
        return
    order = {case_id: i for i, case_id in enumerate(items[places[0]].module.IDS)}

    def case(item):
        return order.get(getattr(getattr(item, "callspec", None), "id", None), len(order))

    for place, item in zip(places, sorted((items[i] for i in places), key=case)):
        items[place] = item


@pytest.fixture
def five_distinct() -> DocumentSet:
    """Five documents with distinct citation counts; d3 is the middle one."""
    return make_distinct(5)


@pytest.fixture
def five_ranked(five_distinct) -> RankedSet:
    return rank(five_distinct)


@pytest.fixture
def eight_distinct() -> DocumentSet:
    """Eight documents with distinct citation counts; d8 is the top one."""
    return make_distinct(8)


@pytest.fixture
def eight_ranked(eight_distinct) -> RankedSet:
    return rank(eight_distinct)


@pytest.fixture
def builds(monkeypatch):
    """The document sets that RankedSet sorts into citation order, in order:
    the one sort that `groups`, the walks over the rank ends and the
    near-boundary search share."""
    calls = []
    order = RankedSet._order.fget

    def counted(ranked):
        if ranked._sorted is None:
            calls.append(ranked.source)
        return order(ranked)

    monkeypatch.setattr(RankedSet, "_order", property(counted))
    return calls


@pytest.fixture
def tie_groups_built(monkeypatch):
    """Every TieGroup built from a ranked set's citation order, in order,
    through the one builder that `RankedSet.groups` and `compare_rules`
    call."""
    built = []
    build = pctrank.model._tie_groups

    def counted(*args):
        groups = build(*args)
        built.extend(groups)
        return groups

    for module in (pctrank.model, pctrank.indicators):
        monkeypatch.setattr(module, "_tie_groups", counted)
    return built
