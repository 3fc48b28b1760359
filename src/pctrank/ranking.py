"""Ascending citation ranking, tie grouping, and exact quantile intervals."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .model import DocumentSet


class _QuantileInterval(NamedTuple):
    low: Fraction
    high: Fraction

    @property
    def width(self) -> Fraction:
        return self.high - self.low


class QuantileInterval(_QuantileInterval):
    """The exact slice of the quantile axis a document occupies.

    A tie group spanning ranks [rank_low, rank_high] of n documents covers
    [(rank_low - 1)/n, rank_high/n]; every member of the group shares it.
    """

    __slots__ = ()

    def __new__(cls, low: Fraction, high: Fraction):
        if not (0 <= low < high <= 1):
            raise ValueError(f"need 0 <= low < high <= 1, got [{low}, {high}]")
        return tuple.__new__(cls, (low, high))


class TieGroup(NamedTuple):
    """Documents sharing one citation count, hence one rank span and interval."""

    citations: int
    member_ids: tuple[str, ...]
    rank_low: int
    rank_high: int

    @property
    def size(self) -> int:
        return self.rank_high - self.rank_low + 1


class RankedSet:
    """A document set ranked ascending by citation count.

    `groups`, its tie groups in rank order, is built by `_tie_groups` on
    first read and kept; n needs no sorting. interval_for gives a group's
    quantile interval.
    """

    def __init__(self, source: DocumentSet):
        self.source = source
        self._groups: tuple[TieGroup, ...] | None = None

    @property
    def groups(self) -> tuple[TieGroup, ...]:
        if self._groups is None:
            self._groups = _tie_groups(self.source)
        return self._groups

    @property
    def n(self) -> int:
        return self.source.n


def interval_for(group: TieGroup, n: int) -> QuantileInterval:
    """Quantile interval shared by all members of a tie group among n documents."""
    if not (1 <= group.rank_low <= group.rank_high <= n):
        raise ValueError(
            f"rank span [{group.rank_low}, {group.rank_high}] does not fit a set of {n}"
        )
    return QuantileInterval(Fraction(group.rank_low - 1, n), Fraction(group.rank_high, n))


def rank(document_set: DocumentSet) -> RankedSet:
    """Rank a document set ascending by citation count.

    Nothing is sorted here: the ranked set sorts and splits the documents
    into tie groups when its `groups` is first read. A caller that needs
    only n, such as fractional `compute_indicators`, never pays for it.
    """
    return RankedSet(document_set)


def _tie_groups(document_set: DocumentSet) -> tuple[TieGroup, ...]:
    """Sort ascending by citation count and split into tie groups.

    Tied documents form one group with one rank span, hence one shared
    interval. Member ids are sorted, so the result is identical for any
    permutation of the input records.
    """
    # By id, then stably by citations: ordered by citations, then by id.
    by_id, by_citations = itemgetter(0), itemgetter(1)
    ordered = sorted(document_set.records, key=by_id)
    ordered.sort(key=by_citations)
    ids = tuple(map(by_id, ordered))
    # Counted in rank order, so the sizes come out by ascending citations.
    sizes = Counter(map(by_citations, ordered))
    ends = [*accumulate(sizes.values(), initial=0)]
    return tuple([
        tuple.__new__(TieGroup, (citations, ids[low:high], low + 1, high))
        for citations, low, high in zip(sizes, ends, ends[1:])
    ])
