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
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import BoundaryAmbiguityError
from .model import PRScheme
from .ranking import RankedSet, TieGroup


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
_RANK_LOW = attrgetter("rank_low")
_RANK_HIGH = attrgetter("rank_high")


class _SchemeGrid:
    """The half of _Grid that depends on the scheme alone: the lcm D of the
    boundary denominators, the integer cuts, the cuts at percentile scale,
    and the one shared fractions tuple of each class, built on first use."""

    def __init__(self, scheme: PRScheme):
        self.d = scheme._boundary_lcm
        self.cuts = [b.numerator * (self.d // b.denominator) for b in scheme.boundaries]
        self.percent_edges = [100 * c for c in self.cuts]
        self.single: list[tuple[Fraction, ...] | None] = [None] * scheme.k


class _Grid:
    """A scheme's boundaries and a ranked set's quantiles on one integer grid.

    With D the lcm of the boundary denominators, boundary b_j is the integer
    cut c_j = b_j*D. A quantile a/s lies below, on or above b_j as a*D
    compares with c_j*s, so each point scale s gets its list of scaled cuts.
    A tie group spanning ranks r_low..r_high of n is the span
    [(r_low - 1)*D, r_high*D] against the cuts scaled by n, in units of
    1/(n*D). Rounded percentiles p are points at scale 100. A group inside
    one class shares that class's fractions tuple.

    Only the cuts scaled by n and 2n belong to one ranked set. The rest, a
    _SchemeGrid, is built on the first grid of a scheme and kept on the
    scheme object, so later grids of that scheme share it.
    """

    def __init__(self, scheme: PRScheme, n: int):
        try:
            base = scheme._grid
        except AttributeError:
            base = scheme._grid = _SchemeGrid(scheme)
        self.scheme = scheme
        self.n = n
        self.base = base
        self.d = base.d
        self.edges = {100: base.percent_edges}
        self.edges.update((scale, [c * scale for c in base.cuts]) for scale in (n, 2 * n))

    def classify(self, a: int, scale: int, policy: BoundaryPolicy) -> tuple[int, Fraction | None]:
        """The class of the quantile a/scale as classify_point in
        tests/support.py decides it: (class index, boundary hit)."""
        edges = self.edges[scale]
        k = self.scheme.k
        x = a * self.d
        idx = bisect_left(edges, x, 0, k)
        if idx < k and edges[idx] == x:
            if idx == 0:
                return 1, None
            boundary = self.scheme.lower_bounds[idx]
            if policy is BoundaryPolicy.ERROR:
                raise BoundaryAmbiguityError(boundary)
            return (idx if policy is BoundaryPolicy.LOWER else idx + 1), boundary
        return idx, None

    def point(
        self,
        group: TieGroup,
        rule: CountingRule,
        rounding: RoundingMode,
        policy: BoundaryPolicy,
        midpoint_route: MidpointRoute,
    ) -> tuple:
        """A point rule on one tie group, as point_attribution in
        tests/support.py decides it for each member: (a, scale, percentile,
        class index, boundary hit, endpoint percentiles), where the rule's
        quantile is a/scale."""
        n = self.n
        if rule is CountingRule.COUNT_WORSE:
            a, scale = group.rank_low - 1, n
        elif rule is CountingRule.COUNT_WORSE_OR_EQUAL:
            a, scale = group.rank_high, n
        else:  # midpoint
            a, scale = group.rank_low - 1 + group.rank_high, 2 * n
        if rounding is RoundingMode.NONE:
            return (a, scale, None, *self.classify(a, scale, policy), None)
        endpoint_percentiles = None
        if rule is CountingRule.MIDPOINT and midpoint_route is MidpointRoute.ENDPOINTS:
            endpoint_percentiles = (
                _rounded_percent(group.rank_low - 1, n, rounding),
                _rounded_percent(group.rank_high, n, rounding),
            )
            percentile = _rounded_percent(sum(endpoint_percentiles), 200, rounding)
        else:
            percentile = _rounded_percent(a, scale, rounding)
        return (a, scale, percentile, *self.classify(percentile, 100, policy),
                endpoint_percentiles)

    def near_boundaries(self, groups: Sequence[TieGroup], margin: int) -> Iterator[TieGroup]:
        """The tie groups (in rank order, as `groups` is) whose closed
        interval [low, high] comes within margin/100 of an interior boundary
        b: high >= b - margin/100 and low <= b + margin/100. Each boundary's
        window is found by bisecting the groups' rank spans."""
        n, scale = self.n, 100 * self.d
        visited = 0
        for cut in self.edges[100][1:-1]:  # 100*b*D
            # r_high >= n*(b - margin/100), r_high an integer
            start = bisect_left(
                groups, -(-n * (cut - margin * self.d) // scale), visited, key=_RANK_HIGH
            )
            # r_low - 1 <= n*(b + margin/100)
            stop = bisect_right(
                groups, n * (cut + margin * self.d) // scale + 1, visited, key=_RANK_LOW
            )
            yield from groups[start:stop]
            visited = stop

    def span(self, group: TieGroup) -> tuple[int, int, range]:
        """A tie group's interval [low, high] on the grid (against the cuts
        scaled by n) and the positions of the classes it overlaps."""
        edges = self.edges[self.n]
        k = self.scheme.k
        low = (group.rank_low - 1) * self.d
        high = group.rank_high * self.d
        return low, high, range(bisect_right(edges, low, 0, k) - 1, bisect_left(edges, high, 0, k))

    def single(self, i: int) -> tuple[Fraction, ...]:
        """The fractions of every tie group that lies inside class i alone
        (position i, 0-based): one tuple per class, built on first use."""
        shared = self.base.single[i]
        if shared is None:
            k = self.scheme.k
            shared = self.base.single[i] = (_ZERO,) * i + (_ONE,) + (_ZERO,) * (k - 1 - i)
        return shared

    def fractions(self, group: TieGroup) -> tuple[Fraction, ...]:
        """Overlap of one tie group's interval with each class, over its
        width: fractional_attribution in tests/support.py, per group."""
        low, high, classes = self.span(group)
        if len(classes) == 1:
            return self.single(classes[0])
        # Spread over several classes: every overlap is shorter than the width.
        edges = self.edges[self.n]
        width = high - low
        fractions = [_ZERO] * self.scheme.k
        for i in classes:
            fractions[i] = Fraction(min(high, edges[i + 1]) - max(low, edges[i]), width)
        return tuple(fractions)


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

    The members of a tie group share one interval, so each group is attributed
    once and its members' attributions share that payload (under the
    fractional rule, one `fractions` tuple). Groups are classified on an
    integer grid; Fractions are made only for the values returned. rounding,
    policy and midpoint_route only apply to point rules; the fractional rule
    ignores them.
    """
    grid = _Grid(scheme, ranked.n)
    out: list[Attribution] = []
    for group in ranked.groups:
        if rule is CountingRule.FRACTIONAL:
            fractions = grid.fractions(group)
            out += [FractionalAttribution(doc_id, fractions) for doc_id in group.member_ids]
        else:
            a, scale, percentile, class_index, boundary, endpoints = grid.point(
                group, rule, rounding, policy, midpoint_route
            )
            fields = (Fraction(a, scale), percentile, class_index, boundary is not None,
                      boundary, endpoints)
            out += [PointAttribution(doc_id, *fields) for doc_id in group.member_ids]
    return out


def _group_heads(
    ranked: RankedSet, attributions: Sequence[Attribution]
) -> Iterator[tuple[TieGroup, Attribution]]:
    """(tie group, the attribution its members share) per tie group of
    attribute_all's output for `ranked`, in rank order."""
    if len(attributions) != ranked.n:
        raise ValueError(
            f"{len(attributions)} attributions for a ranked set of {ranked.n} documents"
        )
    # A group's members share one attribution; rank r sits at position r - 1.
    return ((group, attributions[group.rank_low - 1]) for group in ranked.groups)
