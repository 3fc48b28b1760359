"""Aggregation of attributions into class counts, the I3 / R / PP indicators,
and the cross-rule ambiguity report."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import pairwise
from operator import mul
from typing import NamedTuple

from .model import PRScheme, RankedSet, _tie_groups, interval_for
from .scoring import (
    POINT_RULES,
    Attribution,
    BoundaryPolicy,
    CountingRule,
    FractionalAttribution,
    MidpointRoute,
    RoundingMode,
    _group_heads,
    _near_boundaries,
    _points,
    attribute_all,
)


class ClassCounts(NamedTuple):
    """Per-class document mass; fractional under the fractional rule."""

    scheme: PRScheme
    counts: tuple[Fraction, ...]


def class_counts(attributions: Sequence[Attribution], scheme: PRScheme) -> ClassCounts:
    """Total per-class mass across documents (one attribution per document);
    an attribution that does not fit the scheme is refused."""
    counts = [Fraction(0)] * scheme.k
    for attribution in attributions:
        if isinstance(attribution, FractionalAttribution):
            if len(attribution.fractions) != scheme.k:
                raise ValueError(
                    f"attribution for {attribution.doc_id!r} has "
                    f"{len(attribution.fractions)} fractions but the scheme has "
                    f"{scheme.k} classes"
                )
            for i, fraction in enumerate(attribution.fractions):
                if fraction:
                    counts[i] += fraction
        elif not (1 <= attribution.class_index <= scheme.k):
            raise ValueError(
                f"attribution for {attribution.doc_id!r} names class "
                f"{attribution.class_index}, outside this scheme"
            )
        else:
            counts[attribution.class_index - 1] += 1
    return ClassCounts(scheme, tuple(counts))


def per_doc_score(attribution: Attribution, scheme: PRScheme) -> Fraction:
    """One document's contribution to I3: its class weight, or the
    fraction-weighted sum of weights under the fractional rule."""
    if isinstance(attribution, FractionalAttribution):
        if len(attribution.fractions) != scheme.k:
            raise ValueError(
                f"attribution for {attribution.doc_id!r} does not match the scheme"
            )
        return sum(
            (fraction * cls.weight
             for fraction, cls in zip(attribution.fractions, scheme.classes)
             if fraction),
            start=Fraction(0),
        )
    return scheme.classes[attribution.class_index - 1].weight


class IndicatorResult(NamedTuple):
    """All indicator values for one document set under one configuration.

    boundary_hits counts the documents whose point landed exactly on an
    interior class boundary (always 0 under the fractional rule).
    """

    scheme_name: str
    rule: CountingRule
    n: int
    i3: Fraction
    r: Fraction
    pp: Fraction | None  # only for 2-class schemes
    per_doc_scores: Mapping[str, Fraction]
    boundary_hits: int = 0


class _MemberScores(Mapping):
    """Each document's contribution to I3, by id, in rank order: read-only.

    The members of a tie group share one score. On first lookup the ranked
    set is attributed and one score is taken per tie group; len() is n
    without that work.
    """

    __slots__ = ("_ranked", "_scheme", "_rule", "_options", "_scores")

    def __init__(self, ranked: RankedSet, scheme: PRScheme, rule: CountingRule, options: dict):
        self._ranked = ranked
        self._scheme = scheme
        self._rule = rule
        self._options = options
        self._scores: dict[str, Fraction] | None = None

    def _built(self) -> dict[str, Fraction]:
        if self._scores is None:
            ranked, scheme = self._ranked, self._scheme
            attributions = attribute_all(ranked, scheme, self._rule, **self._options)
            scores: dict[str, Fraction] = {}
            for group, head in _group_heads(ranked, attributions):
                scores.update(dict.fromkeys(group.member_ids, per_doc_score(head, scheme)))
            self._scores = scores
        return self._scores

    def __getitem__(self, doc_id: str) -> Fraction:
        return self._built()[doc_id]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return self._ranked.n

    def __repr__(self) -> str:
        return repr(self._built())


def compute_indicators(
    ranked: RankedSet,
    scheme: PRScheme,
    rule: CountingRule,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    policy: BoundaryPolicy = BoundaryPolicy.ERROR,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
) -> IndicatorResult:
    """The indicator set of a ranked set, decided per tie group.

    Under the fractional rule class j holds n times its width, so the
    result needs only n: I3 is n*T and R is T, for the scheme's constant
    T = sum(weight * width), and PP is the top class's width. Nothing is
    sorted. Under a point rule each tie group is decided once, in one walk
    of the integer grid over the ranked set's rank ends, and adds its size
    to its class; under the error policy the first boundary hit raises
    BoundaryAmbiguityError. No TieGroup and no per-document attribution is
    built, and per_doc_scores is taken only when it is read.
    """
    n = ranked.n
    hits = 0
    if rule is CountingRule.FRACTIONAL:
        total, r = n * scheme._mean_weight, scheme._mean_weight
        pp = scheme.classes[-1].width if scheme.k == 2 else None
    else:
        tallies, ends = [0] * scheme.k, ranked._ends
        decisions = _points(scheme, n, pairwise(ends), rule, rounding, policy, midpoint_route)
        for (below, high), (_, _, _, class_index, boundary, _) in zip(pairwise(ends), decisions):
            tallies[class_index - 1] += high - below
            if boundary is not None:
                hits += high - below
        # I3 in units of 1/W, W the weights' lcm: integer products only.
        units = sum(map(mul, tallies, scheme._weight_units))
        total, r = Fraction(units, scheme._weight_lcm), Fraction(units, scheme._weight_lcm * n)
        pp = Fraction(tallies[-1], n) if scheme.k == 2 else None
    options = dict(rounding=rounding, policy=policy, midpoint_route=midpoint_route)
    return IndicatorResult(
        scheme.name, rule, n, total, r, pp, _MemberScores(ranked, scheme, rule, options), hits,
    )


class BoundaryFlag(NamedTuple):
    """A point rule landing a tie group exactly on an interior class boundary."""

    rule: CountingRule
    member_ids: tuple[str, ...]
    quantile: Fraction
    boundary: Fraction
    interval_low: Fraction
    interval_high: Fraction


class RuleDisagreement(NamedTuple):
    """A tie group whose class assignment differs between point rules."""

    member_ids: tuple[str, ...]
    classes: dict[CountingRule, int]


class AmbiguityReport(NamedTuple):
    """Boundary hits and cross-rule class disagreements for one ranked set.

    Every member of a tie group shares its interval, so each record covers
    one tie group: a flag per rule whose point landed on an interior
    boundary, a disagreement when two rules put the group in different
    classes. flag_counts counts documents. Fractional class counts ride
    along for reference.
    """

    scheme: PRScheme
    flags: tuple[BoundaryFlag, ...]
    disagreements: tuple[RuleDisagreement, ...]
    fractional_counts: ClassCounts

    def flags_for(self, rule: CountingRule) -> tuple[BoundaryFlag, ...]:
        return tuple(flag for flag in self.flags if flag.rule is rule)

    @property
    def flag_counts(self) -> dict[CountingRule, int]:
        return {rule: sum(len(f.member_ids) for f in self.flags_for(rule)) for rule in POINT_RULES}


def compare_rules(
    ranked: RankedSet,
    scheme: PRScheme,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
) -> AmbiguityReport:
    """Run all three point rules side by side and collect the trouble spots.

    Classes are assigned under the 'lower' policy so the comparison can proceed
    across the very boundary cases it exists to surface; each hit is still
    flagged with the boundary it sat on. Only the tie groups near an interior
    boundary are classified: every point of any other group, rounded or not,
    lies strictly inside the one class that holds its interval, so it can
    neither hit a boundary nor make the rules disagree. They are found by
    bisecting the ranked set's citation order, and a TieGroup is built for
    them alone; `ranked.groups` is not built. Fractional counts are attached
    for reference: n times each class width.
    """
    n = ranked.n
    # A rounded percentile p of a group [low, high] has p/100 within one
    # percentile point of it, on both midpoint routes.
    margin = 0 if rounding is RoundingMode.NONE else 1
    flags: dict[CountingRule, list[BoundaryFlag]] = {rule: [] for rule in POINT_RULES}
    disagreements: list[RuleDisagreement] = []
    spans = [*_near_boundaries(scheme, ranked, margin)]
    near = _tie_groups(ranked, spans)
    walks = [
        _points(scheme, n, spans, rule, rounding, BoundaryPolicy.LOWER, midpoint_route)
        for rule in POINT_RULES
    ]
    for group, *decisions in zip(near, *walks):
        classes = {}
        for rule, (a, scale, _, classes[rule], boundary, _) in zip(POINT_RULES, decisions):
            if boundary is not None:
                flags[rule].append(BoundaryFlag(
                    rule, group.member_ids, Fraction(a, scale), boundary,
                    *interval_for(group, n),
                ))
        if len(set(classes.values())) > 1:
            disagreements.append(RuleDisagreement(group.member_ids, classes))
    return AmbiguityReport(
        scheme,
        tuple(flag for rule in POINT_RULES for flag in flags[rule]),
        tuple(disagreements),
        # Tie group intervals tile [0, 1], so the fractional mass of class j
        # is exactly n times its width.
        ClassCounts(scheme, tuple(n * cls.width for cls in scheme.classes)),
    )
