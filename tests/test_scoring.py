"""Unit tests of the counting rules: the per-document reference path in
support.py (point_quantile, to_percentile, classify_point and the two
attribution functions) and the package's attribute_all."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pctrank import (
    BoundaryAmbiguityError,
    BoundaryPolicy,
    CountingRule,
    FractionalAttribution,
    MidpointRoute,
    PointAttribution,
    RoundingMode,
    attribute_all,
    builtin_scheme,
    rank,
)
from pctrank.model import topx_scheme
from support import (
    classify_point,
    fractional_attribution,
    intervals_by_id,
    make_distinct,
    overlap_fractions_oracle,
    point_attribution,
    point_quantile,
    random_document_set,
    random_scheme,
    to_percentile,
)

F = Fraction

CW = CountingRule.COUNT_WORSE
CWE = CountingRule.COUNT_WORSE_OR_EQUAL
MID = CountingRule.MIDPOINT


class TestPointQuantile:
    @pytest.mark.parametrize(
        "rule,expected",
        [(CW, F(2, 5)), (CWE, F(3, 5)), (MID, F(1, 2))],
    )
    def test_middle_of_five(self, five_ranked, rule, expected):
        assert point_quantile("d3", five_ranked, rule) == expected

    def test_fractional_rule_has_no_point(self, five_ranked):
        with pytest.raises(ValueError):
            point_quantile("d3", five_ranked, CountingRule.FRACTIONAL)

    def test_unknown_id(self, five_ranked):
        with pytest.raises(KeyError):
            point_quantile("nope", five_ranked, CW)


class TestToPercentile:
    @pytest.mark.parametrize(
        "q,mode,expected",
        [
            (F(1, 3), RoundingMode.FLOOR, 33),
            (F(2, 3), RoundingMode.FLOOR, 66),
            (F(1, 3), RoundingMode.CEIL, 34),
            (F(2, 3), RoundingMode.CEIL, 67),
            (F(99, 200), RoundingMode.HALF_UP, 50),   # 49.5 rounds up
            (F(101, 200), RoundingMode.HALF_UP, 51),  # 50.5 rounds up
            (F(2, 5), RoundingMode.FLOOR, 40),
            (F(2, 5), RoundingMode.CEIL, 40),
            (F(2, 5), RoundingMode.HALF_UP, 40),
            (F(0), RoundingMode.FLOOR, 0),
            (F(1), RoundingMode.CEIL, 100),
            (F(1), RoundingMode.HALF_UP, 100),
        ],
    )
    def test_integer_modes(self, q, mode, expected):
        result = to_percentile(q, mode)
        assert result == expected
        assert isinstance(result, int)

    def test_none_keeps_exact_value(self):
        assert to_percentile(F(15, 16), RoundingMode.NONE) == F(375, 4)
        assert to_percentile(F(1, 3), RoundingMode.NONE) == F(100, 3)

    @pytest.mark.parametrize("q", [F(-1, 10), F(11, 10)])
    def test_out_of_range(self, q):
        with pytest.raises(ValueError):
            to_percentile(q, RoundingMode.FLOOR)


class TestClassifyPoint:
    def test_interior_points_are_unambiguous(self):
        top50 = builtin_scheme("top50")
        low = classify_point(F(1, 4), top50)
        high = classify_point(F(3, 4), top50)
        assert (low.class_index, low.ambiguous) == (1, False)
        assert (high.class_index, high.ambiguous) == (2, False)
        assert low.boundary_hit is None

    def test_boundary_default_policy_refuses(self):
        with pytest.raises(BoundaryAmbiguityError) as err:
            classify_point(F(1, 2), builtin_scheme("top50"))
        assert err.value.boundary == F(1, 2)

    @pytest.mark.parametrize(
        "policy,expected",
        [(BoundaryPolicy.LOWER, 1), (BoundaryPolicy.UPPER, 2)],
    )
    def test_boundary_policies(self, policy, expected):
        decision = classify_point(F(1, 2), builtin_scheme("top50"), policy)
        assert decision.class_index == expected
        assert decision.ambiguous
        assert decision.boundary_hit == F(1, 2)

    @pytest.mark.parametrize(
        "boundary,below,above",
        [(F(1, 2), 1, 2), (F(3, 4), 2, 3), (F(9, 10), 3, 4),
         (F(19, 20), 4, 5), (F(99, 100), 5, 6)],
    )
    def test_every_interior_boundary_of_pr6(self, boundary, below, above):
        scheme = builtin_scheme("pr6")
        assert classify_point(boundary, scheme, BoundaryPolicy.LOWER).class_index == below
        assert classify_point(boundary, scheme, BoundaryPolicy.UPPER).class_index == above

    def test_extremes_are_never_ambiguous(self):
        for name in ("top50", "pr6", "pr100"):
            scheme = builtin_scheme(name)
            bottom = classify_point(F(0), scheme)  # ERROR policy must not fire
            top = classify_point(F(1), scheme)
            assert (bottom.class_index, bottom.ambiguous) == (1, False)
            assert (top.class_index, top.ambiguous) == (scheme.k, False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_point(F(3, 2), builtin_scheme("top50"))


class TestFractionalAttribution:
    def test_middle_of_five_splits_top50_evenly(self, five_ranked):
        result = fractional_attribution("d3", five_ranked, builtin_scheme("top50"))
        assert result.fractions == (F(1, 2), F(1, 2))

    def test_middle_of_five_spreads_over_twenty_hundredths(self, five_ranked):
        result = fractional_attribution("d3", five_ranked, builtin_scheme("pr100"))
        # interval [2/5, 3/5] covers the twenty classes 41..60, 1/20 each
        for index, fraction in enumerate(result.fractions, start=1):
            assert fraction == (F(1, 20) if 41 <= index <= 60 else 0)
        assert sum(result.fractions) == 1

    def test_top_of_eight_pr6(self, eight_ranked):
        result = fractional_attribution("d8", eight_ranked, builtin_scheme("pr6"))
        assert result.fractions == (0, 0, F(1, 5), F(2, 5), F(8, 25), F(2, 25))

    def test_top_of_eight_top_decile(self, eight_ranked):
        result = fractional_attribution("d8", eight_ranked, topx_scheme(F(1, 10)))
        assert result.fractions == (F(1, 5), F(4, 5))

    def test_single_document_gets_the_class_widths(self):
        ranked = rank(make_distinct(1))
        scheme = builtin_scheme("pr6")
        result = fractional_attribution("d1", ranked, scheme)
        assert result.fractions == tuple(cls.width for cls in scheme.classes)

    def test_interval_inside_one_class(self, five_ranked):
        result = fractional_attribution("d1", five_ranked, builtin_scheme("top50"))
        assert result.fractions == (1, 0)

    def test_touching_a_boundary_contributes_nothing_across(self):
        ranked = rank(make_distinct(4))
        top50 = builtin_scheme("top50")
        # d2 ends exactly at 1/2, d3 starts there; zero-length contact
        assert fractional_attribution("d2", ranked, top50).fractions == (1, 0)
        assert fractional_attribution("d3", ranked, top50).fractions == (0, 1)


class TestPointAttribution:
    def test_exact_midpoint_keeps_percentile_unset(self, five_ranked):
        result = point_attribution(
            "d3", five_ranked, builtin_scheme("top50"), MID,
            policy=BoundaryPolicy.LOWER,
        )
        assert result == PointAttribution("d3", F(1, 2), None, 1, True, F(1, 2))

    def test_exact_midpoint_on_hundredth_scale(self, eight_ranked):
        result = point_attribution("d8", eight_ranked, builtin_scheme("pr100"), MID)
        assert result.quantile == F(15, 16)  # 93.75 on the percentile scale
        assert result.percentile is None
        assert result.class_index == 94
        assert not result.ambiguous

    def test_floor_rounding_can_create_a_boundary_hit(self, eight_ranked):
        scheme = builtin_scheme("pr100")
        lower = point_attribution(
            "d8", eight_ranked, scheme, MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
        )
        upper = point_attribution(
            "d8", eight_ranked, scheme, MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.UPPER,
        )
        assert lower.percentile == upper.percentile == 93
        assert lower.boundary_hit == F(93, 100)
        assert (lower.class_index, upper.class_index) == (93, 94)
        assert lower.ambiguous and upper.ambiguous

    def test_rounding_applies_to_end_rules_too(self, five_ranked):
        top50 = builtin_scheme("top50")
        low = point_attribution(
            "d3", five_ranked, top50, CW, rounding=RoundingMode.FLOOR
        )
        high = point_attribution(
            "d3", five_ranked, top50, CWE, rounding=RoundingMode.FLOOR
        )
        assert (low.percentile, low.class_index) == (40, 1)
        assert (high.percentile, high.class_index) == (60, 2)
        assert low.endpoint_percentiles is None


class TestMidpointEndpointsRoute:
    """Midpoint taken between already-rounded endpoint percentiles."""

    @pytest.fixture
    def three_ranked(self):
        return rank(make_distinct(3))

    def test_floor(self, three_ranked):
        results = attribute_all(
            three_ranked, builtin_scheme("top50"), MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        assert [a.endpoint_percentiles for a in results] == [(0, 33), (33, 66), (66, 100)]
        assert [a.percentile for a in results] == [16, 49, 83]
        assert [a.class_index for a in results] == [1, 1, 2]
        assert not any(a.ambiguous for a in results)

    def test_ceil(self, three_ranked):
        results = attribute_all(
            three_ranked, builtin_scheme("top50"), MID,
            rounding=RoundingMode.CEIL, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        assert [a.endpoint_percentiles for a in results] == [(0, 34), (34, 67), (67, 100)]
        assert [a.percentile for a in results] == [17, 51, 84]
        assert [a.class_index for a in results] == [1, 2, 2]
        assert not any(a.ambiguous for a in results)

    def test_half_up_middle_lands_on_fifty(self, three_ranked):
        result = point_attribution(
            "d2", three_ranked, builtin_scheme("top50"), MID,
            rounding=RoundingMode.HALF_UP, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        assert result.endpoint_percentiles == (33, 67)
        assert result.percentile == 50
        assert result.ambiguous and result.class_index == 1

    def test_exact_route_differs_from_endpoints_route(self, three_ranked):
        # the same document, same floor rounding: 1/2 -> 50 vs (33+66)/2 -> 49
        exact = point_attribution(
            "d2", three_ranked, builtin_scheme("top50"), MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.EXACT,
        )
        endpoints = point_attribution(
            "d2", three_ranked, builtin_scheme("top50"), MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        assert (exact.percentile, exact.ambiguous) == (50, True)
        assert (endpoints.percentile, endpoints.ambiguous) == (49, False)

    def test_route_is_inert_without_rounding(self, three_ranked):
        top50 = builtin_scheme("top50")
        kwargs = dict(rounding=RoundingMode.NONE, policy=BoundaryPolicy.LOWER)
        exact = point_attribution(
            "d2", three_ranked, top50, MID,
            midpoint_route=MidpointRoute.EXACT, **kwargs,
        )
        endpoints = point_attribution(
            "d2", three_ranked, top50, MID,
            midpoint_route=MidpointRoute.ENDPOINTS, **kwargs,
        )
        assert exact == endpoints
        assert endpoints.endpoint_percentiles is None


class TestAttributeAll:
    def test_fractional_comes_back_in_rank_order(self, five_ranked):
        results = attribute_all(five_ranked, builtin_scheme("top50"),
                                CountingRule.FRACTIONAL)
        assert [a.doc_id for a in results] == ["d1", "d2", "d3", "d4", "d5"]
        assert all(isinstance(a, FractionalAttribution) for a in results)

    def test_point_rule_classes_for_five(self, five_ranked):
        results = attribute_all(
            five_ranked, builtin_scheme("top50"), MID, policy=BoundaryPolicy.LOWER
        )
        assert [a.class_index for a in results] == [1, 1, 1, 2, 2]
        assert [a.ambiguous for a in results] == [False, False, True, False, False]

    def test_fractional_ignores_point_rule_knobs(self, five_ranked):
        plain = attribute_all(five_ranked, builtin_scheme("pr6"),
                              CountingRule.FRACTIONAL)
        noisy = attribute_all(
            five_ranked, builtin_scheme("pr6"), CountingRule.FRACTIONAL,
            rounding=RoundingMode.CEIL, policy=BoundaryPolicy.UPPER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        assert plain == noisy


class TestFractionalProperties:
    @given(st.randoms(use_true_random=False))
    def test_matches_the_slow_oracle(self, rng):
        ranked = rank(random_document_set(rng))
        scheme = random_scheme(rng)
        for doc_id, interval in intervals_by_id(ranked).items():
            got = fractional_attribution(doc_id, ranked, scheme)
            expected = overlap_fractions_oracle(
                interval.low, interval.high, scheme.boundaries
            )
            assert list(got.fractions) == expected

    @given(st.randoms(use_true_random=False))
    def test_mass_is_conserved(self, rng):
        ranked = rank(random_document_set(rng))
        scheme = random_scheme(rng)
        for attribution in attribute_all(ranked, scheme, CountingRule.FRACTIONAL):
            assert sum(attribution.fractions) == 1
            assert all(f >= 0 for f in attribution.fractions)

    @given(st.randoms(use_true_random=False))
    def test_support_matches_positive_overlap(self, rng):
        ranked = rank(random_document_set(rng))
        scheme = random_scheme(rng)
        for doc_id, interval in intervals_by_id(ranked).items():
            fractions = fractional_attribution(doc_id, ranked, scheme).fractions
            for cls, fraction in zip(scheme.classes, fractions):
                overlaps = min(interval.high, cls.upper) > max(interval.low, cls.lower)
                assert (fraction > 0) == overlaps


class TestPointRuleProperties:
    @given(st.randoms(use_true_random=False))
    def test_point_quantiles_bracket_the_midpoint(self, rng):
        ranked = rank(random_document_set(rng))
        for doc_id in intervals_by_id(ranked):
            low = point_quantile(doc_id, ranked, CW)
            mid = point_quantile(doc_id, ranked, MID)
            high = point_quantile(doc_id, ranked, CWE)
            assert low < mid < high

    @given(st.randoms(use_true_random=False))
    def test_classes_rise_with_the_rules(self, rng):
        ranked = rank(random_document_set(rng))
        scheme = random_scheme(rng)
        for doc_id in intervals_by_id(ranked):
            classes = [
                point_attribution(
                    doc_id, ranked, scheme, rule, policy=BoundaryPolicy.LOWER
                ).class_index
                for rule in (CW, MID, CWE)
            ]
            assert classes == sorted(classes)
