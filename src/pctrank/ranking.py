"""Ascending citation ranking, tie grouping, and exact quantile intervals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby

from .model import DocumentSet


@dataclass(frozen=True)
class QuantileInterval:
    """The exact slice of the quantile axis a document occupies.

    A tie group spanning ranks [rank_low, rank_high] of n documents covers
    [(rank_low - 1)/n, rank_high/n]; every member of the group shares it.
    """

    low: Fraction
    high: Fraction

    def __post_init__(self):
        if not (0 <= self.low < self.high <= 1):
            raise ValueError(f"need 0 <= low < high <= 1, got [{self.low}, {self.high}]")

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


@dataclass(frozen=True)
class TieGroup:
    """Documents sharing one citation count, hence one rank span and interval."""

    citations: int
    member_ids: tuple[str, ...]
    rank_low: int
    rank_high: int

    @property
    def size(self) -> int:
        return self.rank_high - self.rank_low + 1


@dataclass(frozen=True)
class RankedSet:
    """A document set with its tie groups and per-document quantile intervals."""

    source: DocumentSet
    groups: tuple[TieGroup, ...]

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def interval_of(self) -> dict[str, QuantileInterval]:
        """Each document's quantile interval, in rank order, built on first
        access. The members of a tie group share one interval object."""
        interval_of: dict[str, QuantileInterval] = {}
        for group in self.groups:
            interval_of.update(dict.fromkeys(group.member_ids, interval_for(group, self.n)))
        return interval_of

    def doc_ids_in_rank_order(self) -> list[str]:
        """Ascending by citations, ids sorted inside each tie group."""
        return [doc_id for group in self.groups for doc_id in group.member_ids]


def interval_for(group: TieGroup, n: int) -> QuantileInterval:
    """Quantile interval shared by all members of a tie group among n documents."""
    if not (1 <= group.rank_low <= group.rank_high <= n):
        raise ValueError(
            f"rank span [{group.rank_low}, {group.rank_high}] does not fit a set of {n}"
        )
    return QuantileInterval(Fraction(group.rank_low - 1, n), Fraction(group.rank_high, n))


def rank(document_set: DocumentSet) -> RankedSet:
    """Sort ascending by citation count and split into tie groups.

    Tied documents form one group with one rank span, hence one shared
    interval. Member ids are sorted, so the result is identical for any
    permutation of the input records.
    """
    ordered = sorted(document_set.records, key=lambda record: record.citations)
    groups: list[TieGroup] = []
    next_rank = 1
    for citations, members in groupby(ordered, key=lambda record: record.citations):
        ids = tuple(sorted(member.doc_id for member in members))
        groups.append(TieGroup(citations, ids, next_rank, next_rank + len(ids) - 1))
        next_rank += len(ids)
    return RankedSet(document_set, tuple(groups))
