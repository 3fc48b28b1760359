"""Attribution of ranked documents to percentile rank classes.

Three point rules pick a single quantile out of a document's interval (its low
end, its high end, or the middle) and classify that point; the fractional rule
spreads the document over every class its interval overlaps, in proportion to
overlap length. All arithmetic is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from itertools import pairwise
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .model import _CITATIONS, BoundaryAmbiguityError, PRScheme, RankedSet


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


class PointAttribution(NamedTuple):
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


class FractionalAttribution(NamedTuple):
    """One document spread over the classes; fractions sum to exactly 1."""

    doc_id: str
    fractions: tuple[Fraction, ...]


Attribution = PointAttribution | FractionalAttribution


_ZERO = Fraction(0)
_ONE = Fraction(1)


# The integer grid. With D the lcm of the boundary denominators, boundary b_j is
# the integer cut c_j = b_j*D (PRScheme._cuts). A quantile a/s lies below, on or
# above b_j as a*D compares with c_j*s, so each walk scales the cuts once, by
# the scale of its points. A tie group spanning ranks r_low..r_high of n is the
# span [(r_low - 1)*D, r_high*D] against the cuts scaled by n, in units of
# 1/(n*D); the walks take it as its integer rank ends (r_low - 1, r_high), a
# span. Rounded percentiles p are points at scale 100. A group inside one
# class shares that class's fractions tuple, kept on the scheme object
# (PRScheme._one_hot), so every walk over that object shares it. A group that
# spans several classes is measured by `_overlaps`, its integer overlap with
# each class it reaches: `_fractions` divides each by the group's width, and
# `_fractional_score` weighs them in units of 1/W (PRScheme._weight_units) and
# divides once, so a group's score and cells never touch the other classes.
#
# In rank order the spans tile [0, n*D], and each rule's point, rounded or not,
# on either midpoint route, never goes down. So `_fractions` and `_points`
# classify a ranked set's groups in one merge walk: a class pointer that only
# moves forward over the cuts. `_points` walks any spans in rank order, such as
# those `_near_boundaries` picks.


def _points(
    scheme: PRScheme,
    n: int,
    spans: Iterable[tuple[int, int]],
    rule: CountingRule,
    rounding: RoundingMode,
    policy: BoundaryPolicy,
    midpoint_route: MidpointRoute,
) -> Iterator[tuple]:
    """A point rule on each of `spans`, the rank ends (r_low - 1, r_high)
    of tie groups of a ranked set of n documents in rank order, as
    point_attribution in tests/support.py decides it for each member: (a,
    scale, percentile, class index, boundary hit, endpoint percentiles) per
    group, where the rule's quantile is a/scale. Under the error policy the
    first boundary hit raises BoundaryAmbiguityError."""
    d, k = scheme._boundary_lcm, scheme.k
    rounded, midpoint = rounding is not RoundingMode.NONE, rule is CountingRule.MIDPOINT
    scale = 2 * n if midpoint else n
    edges = [c * (100 if rounded else scale) for c in scheme._cuts]
    # a is r_low - 1, r_high, or their sum at scale 2n.
    low_end = rule is not CountingRule.COUNT_WORSE_OR_EQUAL
    high_end = rule is not CountingRule.COUNT_WORSE
    pairs = rounded and midpoint and midpoint_route is MidpointRoute.ENDPOINTS
    percentile = pair = None
    i = 0  # the first cut at or above the point, among the k below 1
    for below, high in spans:
        a = low_end * below + high_end * high
        if pairs:
            pair = _rounded_percent(below, n, rounding), _rounded_percent(high, n, rounding)
            percentile = _rounded_percent(sum(pair), 200, rounding)
        elif rounded:
            percentile = _rounded_percent(a, scale, rounding)
        x = (a if percentile is None else percentile) * d
        while i < k and edges[i] < x:
            i += 1
        if 0 < i < k and edges[i] == x:
            boundary = scheme.lower_bounds[i]
            if policy is BoundaryPolicy.ERROR:
                raise BoundaryAmbiguityError(boundary)
            yield a, scale, percentile, i + (policy is BoundaryPolicy.UPPER), boundary, pair
        else:
            yield a, scale, percentile, i or 1, None, pair


def _near_boundaries(
    scheme: PRScheme, ranked: RankedSet, margin: int
) -> Iterator[tuple[int, int]]:
    """The spans (r_low - 1, r_high), in rank order, of the tie groups of
    `ranked` whose closed interval [low, high] comes within margin/100 of an
    interior boundary b: high >= b - margin/100 and low <= b + margin/100.
    Such groups run from the one holding rank ceil(n*(b - margin/100)) to the
    one holding rank floor(n*(b + margin/100)) + 1, each clamped to 1..n;
    each group is found by bisecting the citation order at its count. A
    group near two boundaries is yielded once."""
    d, n, order = scheme._boundary_lcm, ranked.n, ranked._order
    visited = 0
    for cut in scheme._cuts[1:-1]:  # b*D
        # The positions in `order` (rank - 1) of those two ranks.
        first = max(-(-n * (100 * cut - margin * d) // (100 * d)), 1) - 1
        last = min(n * (100 * cut + margin * d) // (100 * d), n - 1)
        below = max(bisect_left(order, order[first][1], key=_CITATIONS), visited)
        stop = bisect_right(order, order[last][1], below, key=_CITATIONS)
        while below < stop:
            high = bisect_right(order, order[below][1], below, stop, key=_CITATIONS)
            yield below, high
            below = high
        visited = stop


def _fractions(
    scheme: PRScheme, n: int, spans: Iterable[tuple[int, int]]
) -> Iterator[tuple[Fraction, ...]]:
    """Overlap of each tie group's interval with each class, over its width,
    for the spans (r_low - 1, r_high) of all the groups of a ranked set of n
    documents in rank order: fractional_attribution in tests/support.py, per
    group."""
    d, k, one_hot = scheme._boundary_lcm, scheme.k, scheme._one_hot
    edges = [c * n for c in scheme._cuts]
    i = 0  # the class holding the group's low end
    for below, high in spans:
        low, top = below * d, high * d
        while edges[i + 1] <= low:
            i += 1
        if top <= edges[i + 1]:
            if one_hot[i] is None:
                one_hot[i] = (_ZERO,) * i + (_ONE,) + (_ZERO,) * (k - 1 - i)
            yield one_hot[i]
            continue
        # Spread over several classes: every overlap is shorter than the width.
        first, overlaps = _overlaps(scheme, n, below, high)
        yield ((_ZERO,) * first + tuple(Fraction(overlap, top - low) for overlap in overlaps)
               + (_ZERO,) * (k - first - len(overlaps)))


def _overlaps(scheme: PRScheme, n: int, below: int, high: int) -> tuple[int, list[int]]:
    """The first class (0-based) that the interval of a tie group's span
    (r_low - 1, r_high) in a ranked set of n documents overlaps, and the
    overlap with it and with each later class the interval reaches, in units
    of 1/(n*D): each one positive."""
    d, cuts = scheme._boundary_lcm, scheme._cuts
    low, high = below * d, high * d
    # Class j starts at or below low when c_j*n <= low, and below high when
    # c_j*n < high; c_j is an integer, so c_j <= floor(low/n), c_j < ceil(high/n).
    first = bisect_right(cuts, low // n) - 1
    stop = bisect_left(cuts, -(-high // n), first + 1)
    return first, [min(high, cuts[j + 1] * n) - max(low, cuts[j] * n) for j in range(first, stop)]


def _fractional_score(
    scheme: PRScheme, n: int, below: int, high: int
) -> tuple[Fraction, int, int]:
    """The fractional score of a tie group with span (r_low - 1, r_high) in
    a ranked set of n documents, and the classes [first, stop) (0-based) its
    interval overlaps: per_doc_score of its fractional_attribution in
    tests/support.py. The score is the sum of each overlap times its class
    weight in units of 1/W, over the group's width times W: one Fraction. A
    group inside one class scores that class's weight."""
    first, overlaps = _overlaps(scheme, n, below, high)
    stop = first + len(overlaps)
    if stop == first + 1:
        return scheme.weights[first], first, stop
    units = sum(map(mul, overlaps, scheme._weight_units[first:stop]))
    return Fraction(units, (high - below) * scheme._boundary_lcm * scheme._weight_lcm), first, stop


def _rounded_percent(a: int, scale: int, mode: RoundingMode) -> int:
    """The percentile of a/scale under an integer rounding mode, as
    to_percentile in tests/support.py gives it."""
    if mode is RoundingMode.FLOOR:
        return 100 * a // scale
    if mode is RoundingMode.CEIL:
        return -(-100 * a // scale)
    return (200 * a + scale) // (2 * scale)


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

    The members of a tie group share one interval, so each group is
    attributed once, in one walk of the grid over the ranked set's rank
    ends, and its members' attributions share that payload (under the
    fractional rule, one `fractions` tuple); `ranked.groups` is read only
    for the member ids. Fractions are made only for the values returned.
    rounding, policy and midpoint_route only apply to point rules.
    """
    n, spans = ranked.n, pairwise(ranked._ends)
    # Per group, the fields of its members' attributions after the id.
    if rule is CountingRule.FRACTIONAL:
        kind, shared = FractionalAttribution, zip(_fractions(scheme, n, spans))
    else:
        kind, shared = PointAttribution, (
            (Fraction(a, scale), percentile, class_index, boundary is not None, boundary, pair)
            for a, scale, percentile, class_index, boundary, pair
            in _points(scheme, n, spans, rule, rounding, policy, midpoint_route)
        )
    new, out = tuple.__new__, []
    for group, fields in zip(ranked.groups, shared):
        ids = group.member_ids
        if len(ids) == 1:
            out.append(new(kind, ids + fields))
        else:
            out += [new(kind, (doc_id, *fields)) for doc_id in ids]
    return out

