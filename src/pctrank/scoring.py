"""Attribution of ranked documents to percentile rank classes.

Three point rules pick a single quantile out of a document's interval (its low
end, its high end, or the middle) and classify that point; the fractional rule
spreads the document over every class its interval overlaps, in proportion to
overlap length. All arithmetic is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BoundaryAmbiguityError
from .model import PRScheme
from .ranking import QuantileInterval, RankedSet, TieGroup


class CountingRule(Enum):
    """How a document's position inside its quantile interval is counted."""

    COUNT_WORSE = "count-worse"                    # low end of the interval
    COUNT_WORSE_OR_EQUAL = "count-worse-or-equal"  # high end of the interval
    MIDPOINT = "midpoint"
    FRACTIONAL = "fractional"


POINT_RULES = (
    CountingRule.COUNT_WORSE,
    CountingRule.COUNT_WORSE_OR_EQUAL,
    CountingRule.MIDPOINT,
)


class RoundingMode(Enum):
    """Optional rounding of 100*q before classification; NONE keeps q exact."""

    FLOOR = "floor"
    CEIL = "ceil"
    HALF_UP = "half-up"
    NONE = "none"


class BoundaryPolicy(Enum):
    """What to do when a point lands exactly on an interior class boundary."""

    LOWER = "lower"
    UPPER = "upper"
    ERROR = "error"


class MidpointRoute(Enum):
    """Whether the midpoint is taken exactly or from rounded endpoint percentiles."""

    EXACT = "exact"
    ENDPOINTS = "endpoints"


@dataclass(frozen=True)
class PointClassification:
    class_index: int
    ambiguous: bool
    boundary_hit: Fraction | None


@dataclass(frozen=True)
class PointAttribution:
    """One document classified by a point rule.

    quantile is the rule's exact point value before any rounding. percentile is
    the rounded integer actually classified when a rounding mode applies, None
    otherwise. endpoint_percentiles is set only on the midpoint endpoints
    route: the rounded percentiles of the interval ends whose middle was used.
    """

    doc_id: str
    quantile: Fraction
    percentile: int | None
    class_index: int
    ambiguous: bool
    boundary_hit: Fraction | None
    endpoint_percentiles: tuple[int, int] | None = None


@dataclass(frozen=True)
class FractionalAttribution:
    """One document spread over the classes; fractions sum to exactly 1."""

    doc_id: str
    fractions: tuple[Fraction, ...]


Attribution = PointAttribution | FractionalAttribution


def _interval(ranked: RankedSet, doc_id: str) -> QuantileInterval:
    try:
        return ranked.interval_of[doc_id]
    except KeyError:
        raise KeyError(f"unknown document id {doc_id!r}") from None


def _rule_point(interval: QuantileInterval, rule: CountingRule) -> Fraction:
    if rule is CountingRule.COUNT_WORSE:
        return interval.low
    if rule is CountingRule.COUNT_WORSE_OR_EQUAL:
        return interval.high
    if rule is CountingRule.MIDPOINT:
        return interval.midpoint
    raise ValueError("the fractional rule has no point quantile; use fractional_attribution")


def point_quantile(doc_id: str, ranked: RankedSet, rule: CountingRule) -> Fraction:
    """The single quantile a point rule assigns to a document."""
    return _rule_point(_interval(ranked, doc_id), rule)


def to_percentile(q: Fraction, mode: RoundingMode) -> int | Fraction:
    """Map a quantile in [0, 1] onto the percentile scale.

    Integer modes return an int in 0..100; NONE returns the exact value 100*q.
    HALF_UP rounds exact halves upward (50.5 -> 51).
    """
    q = Fraction(q)
    if not (0 <= q <= 1):
        raise ValueError(f"quantile {q} lies outside [0, 1]")
    scaled = 100 * q
    if mode is RoundingMode.FLOOR:
        return math.floor(scaled)
    if mode is RoundingMode.CEIL:
        return math.ceil(scaled)
    if mode is RoundingMode.HALF_UP:
        return math.floor(scaled + Fraction(1, 2))
    return scaled


def classify_point(
    q: Fraction,
    scheme: PRScheme,
    policy: BoundaryPolicy = BoundaryPolicy.ERROR,
) -> PointClassification:
    """Assign a single quantile to a class, flagging interior boundary hits.

    A point strictly inside a class is unambiguous; 0 and 1 always belong to
    the first and last class. A point equal to an interior boundary is
    inherently ambiguous: the policy picks the class below or above it, or
    refuses with BoundaryAmbiguityError.
    """
    q = Fraction(q)
    if not (0 <= q <= 1):
        raise ValueError(f"quantile {q} lies outside [0, 1]")
    lowers = scheme.lower_bounds
    idx = bisect_left(lowers, q)
    if 1 <= idx < len(lowers) and lowers[idx] == q:
        if policy is BoundaryPolicy.ERROR:
            raise BoundaryAmbiguityError(q)
        class_index = idx if policy is BoundaryPolicy.LOWER else idx + 1
        return PointClassification(class_index, True, q)
    return PointClassification(bisect_right(lowers, q), False, None)


def _point_fields(
    interval: QuantileInterval,
    scheme: PRScheme,
    rule: CountingRule,
    rounding: RoundingMode,
    policy: BoundaryPolicy,
    midpoint_route: MidpointRoute,
) -> tuple:
    """Every PointAttribution field after doc_id, for a point rule applied to
    one quantile interval."""
    quantile = _rule_point(interval, rule)
    percentile: int | None = None
    endpoint_percentiles: tuple[int, int] | None = None
    effective = quantile
    if rounding is not RoundingMode.NONE:
        if rule is CountingRule.MIDPOINT and midpoint_route is MidpointRoute.ENDPOINTS:
            p_low = to_percentile(interval.low, rounding)
            p_high = to_percentile(interval.high, rounding)
            endpoint_percentiles = (p_low, p_high)
            percentile = to_percentile(Fraction(p_low + p_high, 200), rounding)
        else:
            percentile = to_percentile(quantile, rounding)
        effective = Fraction(percentile, 100)
    decision = classify_point(effective, scheme, policy)
    return (
        quantile,
        percentile,
        decision.class_index,
        decision.ambiguous,
        decision.boundary_hit,
        endpoint_percentiles,
    )


def _fractions(interval: QuantileInterval, scheme: PRScheme) -> tuple[Fraction, ...]:
    """Overlap of one quantile interval with each class, over its width."""
    fractions = [Fraction(0)] * scheme.k
    lowers = scheme.lower_bounds
    # Only classes with lower <= interval.low < ... < interval.high can overlap.
    start = bisect_right(lowers, interval.low) - 1
    stop = bisect_left(lowers, interval.high)
    for i in range(start, stop):
        cls = scheme.classes[i]
        overlap = min(interval.high, cls.upper) - max(interval.low, cls.lower)
        if overlap > 0:
            fractions[i] = overlap / interval.width
    return tuple(fractions)


def point_attribution(
    doc_id: str,
    ranked: RankedSet,
    scheme: PRScheme,
    rule: CountingRule,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    policy: BoundaryPolicy = BoundaryPolicy.ERROR,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
) -> PointAttribution:
    """Classify one document under a point rule.

    With an integer rounding mode, the rounded percentile is what gets
    classified (so the ambiguity flag tracks the rounded value). The endpoints
    route, which applies to the midpoint rule only, first rounds both interval
    ends to percentiles and then rounds their middle the same way.
    """
    fields = _point_fields(
        _interval(ranked, doc_id), scheme, rule, rounding, policy, midpoint_route
    )
    return PointAttribution(doc_id, *fields)


def fractional_attribution(
    doc_id: str, ranked: RankedSet, scheme: PRScheme
) -> FractionalAttribution:
    """Spread a document over the classes its quantile interval overlaps.

    Each class receives overlap length divided by interval width. Rounding
    modes and boundary policies play no part: a shared endpoint has zero
    length, so nothing is ever ambiguous and the fractions sum to exactly 1.
    """
    return FractionalAttribution(doc_id, _fractions(_interval(ranked, doc_id), scheme))


def attribute_all(
    ranked: RankedSet,
    scheme: PRScheme,
    rule: CountingRule,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    policy: BoundaryPolicy = BoundaryPolicy.ERROR,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
) -> list[Attribution]:
    """Attribute every document, in rank order (ids sorted inside tie groups).

    The members of a tie group share one interval, so each group is attributed
    once and its members' attributions share that payload (under the
    fractional rule, one `fractions` tuple). rounding, policy and
    midpoint_route only apply to point rules; the fractional rule ignores them.
    """
    out: list[Attribution] = []
    for group in ranked.groups:
        interval = _interval(ranked, group.member_ids[0])
        if rule is CountingRule.FRACTIONAL:
            fractions = _fractions(interval, scheme)
            out += [FractionalAttribution(doc_id, fractions) for doc_id in group.member_ids]
        else:
            fields = _point_fields(interval, scheme, rule, rounding, policy, midpoint_route)
            out += [PointAttribution(doc_id, *fields) for doc_id in group.member_ids]
    return out


def tie_group_attributions(
    ranked: RankedSet, attributions: Sequence[Attribution]
) -> Iterator[tuple[TieGroup, Sequence[Attribution]]]:
    """Each tie group of `ranked` with its members' attributions.

    `attributions` must be attribute_all's output for `ranked`: rank order,
    one per document, with every member of a group sharing its payload.
    """
    if len(attributions) != ranked.n:
        raise ValueError(
            f"{len(attributions)} attributions for a ranked set of {ranked.n} documents"
        )
    position = 0
    for group in ranked.groups:
        yield group, attributions[position:position + group.size]
        position += group.size
