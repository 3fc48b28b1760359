"""Shared test helpers: reference oracles and random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from pctrank import (
    CitationRecord,
    CountingRule,
    DocumentSet,
    PRScheme,
    RankedSet,
    fractional_attribution,
    point_attribution,
    scheme_from_boundaries,
)


def overlap_fractions_oracle(
    low: Fraction, high: Fraction, boundaries: tuple[Fraction, ...]
) -> list[Fraction]:
    """Reference fractional attribution, computed the slow way.

    Subdivides [low, high] at every class boundary and assigns each piece to
    the class containing its own midpoint by linear scan. Deliberately avoids
    the production min/max overlap formula.
    """
    cuts = sorted({low, high, *(b for b in boundaries if low < b < high)})
    k = len(boundaries) - 1
    acc = [Fraction(0)] * k
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        for i in range(k):
            if boundaries[i] <= mid < boundaries[i + 1]:
                acc[i] += b - a
                break
    width = high - low
    return [piece / width for piece in acc]


def attribute_each(ranked: RankedSet, scheme: PRScheme, rule: CountingRule, **options):
    """Reference for attribute_all: every document attributed on its own,
    in rank order, through the per-document functions."""
    if rule is CountingRule.FRACTIONAL:
        return [
            fractional_attribution(doc_id, ranked, scheme)
            for doc_id in ranked.doc_ids_in_rank_order()
        ]
    return [
        point_attribution(doc_id, ranked, scheme, rule, **options)
        for doc_id in ranked.doc_ids_in_rank_order()
    ]


def first_difference(actual: str | bytes, expected: str | bytes) -> str:
    """The first line where two long texts differ. Asserting on a boolean
    with this message keeps a failure fast, where pytest's own diff of two
    long texts can take minutes."""
    got, want = actual.splitlines(), expected.splitlines()
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        if line != wanted:
            return f"line {number}: got {line!r}, expected {wanted!r}"
    return f"got {len(got)} lines, expected {len(want)}"


def make_distinct(n: int, prefix: str = "d") -> DocumentSet:
    """n documents with citation counts 1..n; zero-padded ids follow rank order."""
    pad = len(str(n))
    return DocumentSet(
        tuple(CitationRecord(f"{prefix}{i:0{pad}d}", i) for i in range(1, n + 1))
    )


def make_tied(n: int, citations: int = 7, prefix: str = "t") -> DocumentSet:
    pad = len(str(n))
    return DocumentSet(
        tuple(CitationRecord(f"{prefix}{i:0{pad}d}", citations) for i in range(1, n + 1))
    )


def random_document_set(rng: random.Random, max_n: int = 12) -> DocumentSet:
    """Random set with tie multiplicity anywhere between 1 and n."""
    n = rng.randint(1, max_n)
    spread = rng.randint(0, n - 1)  # 0 forces every document into one tie group
    records = tuple(
        CitationRecord(f"r{i:02d}", rng.randint(0, spread)) for i in range(1, n + 1)
    )
    return DocumentSet(records)


_BOUNDARY_POOL = sorted(
    {Fraction(p, q) for q in range(2, 13) for p in range(1, q)}
)


def random_scheme(rng: random.Random, max_classes: int = 10) -> PRScheme:
    """Random valid scheme: up to max_classes classes, small-denominator cuts,
    small integer weights (not necessarily distinct or monotone)."""
    k = rng.randint(1, max_classes)
    interior = sorted(rng.sample(_BOUNDARY_POOL, k - 1)) if k > 1 else []
    boundaries = [Fraction(0), *interior, Fraction(1)]
    weights = [Fraction(rng.randint(0, 9)) for _ in range(k)]
    return scheme_from_boundaries("random", boundaries, weights)
