from __future__ import annotations

import pytest

import pctrank.model
from pctrank import DocumentSet, RankedSet, rank
from support import make_distinct


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
    """The document sets that the tie group builder behind RankedSet.groups
    is called on, in order."""
    calls = []
    build = pctrank.model._tie_groups

    def counted(document_set):
        calls.append(document_set)
        return build(document_set)

    monkeypatch.setattr(pctrank.model, "_tie_groups", counted)
    return calls
