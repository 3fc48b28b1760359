from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pctrank.indicators
import pctrank.scoring
from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DocumentSet,
    FractionalAttribution,
    PointAttribution,
    RoundingMode,
    SchemeError,
    attribute_all,
    builtin_scheme,
    compare_rules,
    compute_indicators,
    rank,
    theoretical_total,
)
from pctrank.indicators import class_counts
from pctrank.model import scheme_from_boundaries, topx_scheme
from support import (
    attribute_each,
    i3,
    ids_in_rank_order,
    make_distinct,
    make_tied,
    per_doc_score,
    pp_top,
    r_indicator,
)

F = Fraction

CW = CountingRule.COUNT_WORSE
CWE = CountingRule.COUNT_WORSE_OR_EQUAL
MID = CountingRule.MIDPOINT
FRAC = CountingRule.FRACTIONAL


def counts_for(ranked, scheme, rule, **kwargs):
    return class_counts(attribute_all(ranked, scheme, rule, **kwargs), scheme)


class TestClassCounts:
    def test_fractional_five_split_in_half(self, five_ranked):
        counts = counts_for(five_ranked, builtin_scheme("top50"), FRAC)
        assert counts.counts == (F(5, 2), F(5, 2))
        assert sum(counts.counts) == 5

    @pytest.mark.parametrize(
        "policy,expected",
        [(BoundaryPolicy.LOWER, (3, 2)), (BoundaryPolicy.UPPER, (2, 3))],
    )
    def test_midpoint_five_depends_on_the_boundary_policy(
        self, five_ranked, policy, expected
    ):
        counts = counts_for(five_ranked, builtin_scheme("top50"), MID, policy=policy)
        assert counts.counts == expected

    def test_point_and_fractional_counts_differ_by_half(self, five_ranked):
        top50 = builtin_scheme("top50")
        point = counts_for(five_ranked, top50, MID, policy=BoundaryPolicy.LOWER)
        fractional = counts_for(five_ranked, top50, FRAC)
        diffs = [p - f for p, f in zip(point.counts, fractional.counts)]
        assert diffs == [F(1, 2), F(-1, 2)]

    def test_rejects_attribution_from_another_scheme(self):
        top50 = builtin_scheme("top50")
        with pytest.raises(ValueError, match="1 fractions but the scheme has 2"):
            class_counts([FractionalAttribution("x", (F(1),))], top50)
        with pytest.raises(ValueError, match="names class 3, outside this scheme"):
            class_counts(
                [PointAttribution("x", F(1, 4), None, 3, False, None)], top50
            )


class TestScoresAndI3:
    def test_thousand_distinct_documents_reach_the_theoretical_total(self):
        scheme = builtin_scheme("pr6")
        ranked = rank(make_distinct(1000))
        total = i3(counts_for(ranked, scheme, FRAC))
        assert total == 1910
        assert total == theoretical_total(scheme, 1000)

    def test_eight_distinct_documents_on_the_hundredth_scale(self, eight_ranked):
        assert i3(counts_for(eight_ranked, builtin_scheme("pr100"), FRAC)) == 404

    def test_top_of_eight_scores(self, eight_ranked):
        pr6 = builtin_scheme("pr6")
        pr100 = builtin_scheme("pr100")
        by_id = {
            a.doc_id: a for a in attribute_all(eight_ranked, pr6, FRAC)
        }
        assert per_doc_score(by_id["d8"], pr6) == F(107, 25)
        by_id = {
            a.doc_id: a for a in attribute_all(eight_ranked, pr100, FRAC)
        }
        assert per_doc_score(by_id["d8"], pr100) == F(2356, 25)
        with pytest.raises(ValueError, match="^attribution for 'd8' does not match the scheme$"):
            per_doc_score(by_id["d8"], pr6)

    def test_top_of_eight_midpoint_with_floor(self, eight_ranked):
        pr6 = builtin_scheme("pr6")
        attribution = attribute_all(
            eight_ranked, pr6, MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
        )[-1]
        assert attribution.doc_id == "d8"
        assert attribution.percentile == 93
        assert per_doc_score(attribution, pr6) == 4

    def test_i3_is_the_sum_of_per_doc_scores(self, eight_ranked):
        for scheme in (builtin_scheme("pr6"), builtin_scheme("top50")):
            for rule in (FRAC, MID):
                attributions = attribute_all(
                    eight_ranked, scheme, rule, policy=BoundaryPolicy.LOWER
                )
                total = i3(class_counts(attributions, scheme))
                assert total == sum(per_doc_score(a, scheme) for a in attributions)

    def test_exact_shares_for_a_custom_scheme(self):
        # ten distinct documents against cuts at 3/10 and 1/2
        scheme = scheme_from_boundaries(
            "custom", [F(0), F(3, 10), F(1, 2), F(1)], [F(0), F(1), F(2)]
        )
        counts = counts_for(rank(make_distinct(10)), scheme, FRAC)
        assert counts.counts == (3, 2, 5)


class TestRAndPP:
    def test_r_divides_by_n(self):
        assert r_indicator(F(382, 25), 8) == F(191, 100)
        assert r_indicator(F(5, 2), 5) == F(1, 2)

    def test_r_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            r_indicator(F(1), 0)

    def test_pp_needs_two_classes(self):
        counts = counts_for(rank(make_distinct(10)), builtin_scheme("pr6"), FRAC)
        with pytest.raises(SchemeError):
            pp_top(counts, 10)

    def test_pp_top_decile_of_ten_distinct(self):
        scheme = topx_scheme(F(1, 10))
        counts = counts_for(rank(make_distinct(10)), scheme, FRAC)
        assert pp_top(counts, 10) == F(1, 10)
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            pp_top(counts, 0)


class TestComputeIndicators:
    def test_five_documents_top50(self, five_ranked):
        result = compute_indicators(five_ranked, builtin_scheme("top50"), FRAC)
        assert result.scheme_name == "top50"
        assert result.rule is FRAC
        assert result.n == 5
        assert result.i3 == F(5, 2)
        assert result.r == F(1, 2)
        assert result.pp == F(1, 2)
        assert result.per_doc_scores["d3"] == F(1, 2)
        assert repr(result.per_doc_scores) == (
            "{'d1': Fraction(0, 1), 'd2': Fraction(0, 1), 'd3': Fraction(1, 2), "
            "'d4': Fraction(1, 1), 'd5': Fraction(1, 1)}"
        )

    def test_eight_documents_pr6(self, eight_ranked):
        result = compute_indicators(eight_ranked, builtin_scheme("pr6"), FRAC)
        assert result.i3 == F(382, 25)
        assert result.r == F(191, 100)
        assert result.pp is None
        assert result.per_doc_scores["d8"] == F(107, 25)
        assert result.per_doc_scores["d8"] / result.n == F(107, 200)

    def test_eight_documents_pr100(self, eight_ranked):
        result = compute_indicators(eight_ranked, builtin_scheme("pr100"), FRAC)
        assert result.i3 == 404
        assert result.r == F(101, 2)
        assert result.per_doc_scores["d8"] == F(2356, 25)
        assert result.per_doc_scores["d8"] / result.n == F(589, 50)

    @pytest.mark.parametrize("rule,top_score", [(FRAC, F(26, 5)), (CWE, 6)])
    def test_per_doc_scores_are_taken_on_first_lookup(self, monkeypatch, rule, top_score):
        calls = 0

        def counted(original):
            """The walk, counting the tie groups it decides."""
            def wrapper(*args):
                nonlocal calls
                for decision in original(*args):
                    calls += 1
                    yield decision
            return wrapper

        def scored(original):
            """The grid score of one tie group, counted."""
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return original(*args)
            return wrapper

        # Each walk, and the grid score, is patched where it is looked up.
        for module, name in ((pctrank.scoring, "_points"), (pctrank.indicators, "_points")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        monkeypatch.setattr(pctrank.indicators, "_fractional_score",
                            scored(pctrank.indicators._fractional_score))
        ranked = rank(make_distinct(20))
        result = compute_indicators(
            ranked, builtin_scheme("pr6"), rule, policy=BoundaryPolicy.LOWER
        )
        decided = calls
        assert decided == (0 if rule is FRAC else 20)
        assert len(result.per_doc_scores) == 20
        assert calls == decided
        assert result.per_doc_scores["d20"] == top_score
        assert calls == decided + 20  # one grid decision per tie group
        assert list(result.per_doc_scores) == ids_in_rank_order(ranked)
        assert "d00" not in result.per_doc_scores
        assert calls == decided + 20
        with pytest.raises(TypeError):
            result.per_doc_scores["d20"] = F(0)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("rule", list(CountingRule), ids=lambda rule: rule.value)
def test_results_pickle_copy_and_compare_alike(rule, read):
    """A result is a value whether per_doc_scores was read or not: a pickle
    round trip gives an equal result, a deep copy gives equal scores, and
    both print as the original does."""
    ranked = rank(DocumentSet(tuple(CitationRecord(f"d{i}", i // 3) for i in range(12))))
    result = compute_indicators(ranked, builtin_scheme("pr6"), rule, policy=BoundaryPolicy.LOWER)
    if read:
        assert result.per_doc_scores["d11"] == result.per_doc_scores["d9"]  # one tie group
    loaded, copied = pickle.loads(pickle.dumps(result)), copy.deepcopy(result)
    assert loaded == result
    assert copied.per_doc_scores == result.per_doc_scores
    assert repr(loaded) == repr(copied) == repr(result)


class TestGroupedIndicators:
    """Each group's indicators come from its own ranked set: no pooling."""

    @pytest.fixture
    def sets(self):
        return {"solo": make_distinct(10), "herd": make_tied(10)}

    def test_fractional_pp_ignores_ties(self, sets):
        scheme = topx_scheme(F(1, 10))
        results = {key: compute_indicators(rank(s), scheme, FRAC) for key, s in sets.items()}
        assert results["solo"].pp == F(1, 10)
        assert results["herd"].pp == F(1, 10)

    def test_point_rules_break_on_full_ties(self, sets):
        scheme = topx_scheme(F(1, 10))
        high = {
            key: compute_indicators(rank(s), scheme, CWE, policy=BoundaryPolicy.LOWER)
            for key, s in sets.items()
        }
        assert high["solo"].pp == F(1, 10)
        assert high["herd"].pp == 1  # every tied document counts as top
        mid = {
            key: compute_indicators(rank(s), scheme, MID, policy=BoundaryPolicy.LOWER)
            for key, s in sets.items()
        }
        assert mid["solo"].pp == F(1, 10)
        assert mid["herd"].pp == 0  # and here none does


class TestCompareRules:
    def test_five_documents(self, five_ranked):
        report = compare_rules(five_ranked, builtin_scheme("top50"))
        assert [f.rule for f in report.flags] == [MID]
        flag = report.flags[0]
        assert flag.member_ids == ("d3",)
        assert flag.quantile == flag.boundary == F(1, 2)
        assert (flag.interval_low, flag.interval_high) == (F(2, 5), F(3, 5))
        assert report.flag_counts == {CW: 0, CWE: 0, MID: 1}
        assert [d.member_ids for d in report.disagreements] == [("d3",)]
        assert report.disagreements[0].classes == {CW: 1, CWE: 2, MID: 1}
        assert report.fractional_counts.counts == (F(5, 2), F(5, 2))

    def test_four_documents_hit_boundaries_with_the_end_rules(self):
        report = compare_rules(rank(make_distinct(4)), builtin_scheme("top50"))
        assert report.flags_for(MID) == ()
        [cw_flag] = report.flags_for(CW)
        [cwe_flag] = report.flags_for(CWE)
        assert (cw_flag.member_ids, cw_flag.boundary) == (("d3",), F(1, 2))
        assert (cwe_flag.member_ids, cwe_flag.boundary) == (("d2",), F(1, 2))
        assert [d.member_ids for d in report.disagreements] == [("d3",)]
        assert report.disagreements[0].classes == {CW: 1, CWE: 2, MID: 2}

    def test_hundred_and_fifty_documents_pr6(self):
        report = compare_rules(rank(make_distinct(150)), builtin_scheme("pr6"))
        midpoint_hits = {
            doc_id: f.boundary for f in report.flags_for(MID) for doc_id in f.member_ids
        }
        assert midpoint_hits == {
            "d113": F(3, 4), "d143": F(19, 20), "d149": F(99, 100),
        }
        at_99 = [f for f in report.flags if f.boundary == F(99, 100)]
        assert [f.member_ids for f in at_99] == [("d149",)]
        assert at_99[0].interval_low == F(74, 75)
        assert at_99[0].interval_high == F(149, 150)

    def test_classifies_only_the_groups_next_to_a_boundary(self, monkeypatch):
        """Each pr6 boundary falls between two of 10 000 distinct documents,
        so the three rules classify those two groups and no other."""
        calls = 0
        points = pctrank.indicators._points

        def counted(*args):
            nonlocal calls
            for decision in points(*args):
                calls += 1
                yield decision

        monkeypatch.setattr(pctrank.indicators, "_points", counted)
        pr6 = builtin_scheme("pr6")
        report = compare_rules(rank(make_distinct(10_000)), pr6)
        assert calls <= 3 * 2 * (pr6.k - 1)
        assert report.flag_counts == {CW: 5, CWE: 5, MID: 0}
        assert [d.member_ids for d in report.disagreements] == [
            ("d05001",), ("d07501",), ("d09001",), ("d09501",), ("d09901",),
        ]

    def test_rounding_is_passed_through(self, eight_ranked):
        report = compare_rules(
            eight_ranked, builtin_scheme("pr100"), rounding=RoundingMode.FLOOR
        )
        # floor(93.75) = 93 puts the top document's midpoint on a class edge
        assert any(
            f.rule is MID and f.member_ids == ("d8",) and f.boundary == F(93, 100)
            for f in report.flags
        )


def test_hundred_thousand_documents_in_one_tie_group_under_pr100():
    n = 100_000
    pr100 = builtin_scheme("pr100")
    ranked = rank(make_tied(n))
    attributions = attribute_all(ranked, pr100, FRAC)
    shared = attributions[0].fractions
    assert all(a.fractions is shared for a in attributions)
    assert shared == (F(1, 100),) * 100
    result = compute_indicators(ranked, pr100, FRAC)
    assert result.i3 == theoretical_total(pr100, n) == 5_050_000
    assert result.r == F(101, 2)
    report = compare_rules(ranked, pr100)
    assert report.flag_counts == {CW: 0, CWE: 0, MID: n}
    # One tie group: one flag and one disagreement cover all its members.
    [flag] = report.flags
    assert flag.quantile == flag.boundary == F(1, 2)
    assert flag.member_ids == ranked.groups[0].member_ids
    [disagreement] = report.disagreements
    assert disagreement.member_ids == ranked.groups[0].member_ids
    assert disagreement.classes == {CW: 1, CWE: 100, MID: 50}


# Closed form (Waltman & Schreiber 2013): whatever the ties, the fractional
# rule gives each class a mass of exactly n times its width, so I3 is the
# theoretical total. Checked here on the per-document oracle, not on the
# shortcut that compute_indicators takes.

@st.composite
def tie_structures(draw):
    """1 to 60 documents over a small citation range, so ties are common."""
    top = draw(st.integers(0, 8))
    citations = draw(st.lists(st.integers(0, top), min_size=1, max_size=60))
    return rank(DocumentSet(tuple(
        CitationRecord(f"t{i:02d}", c) for i, c in enumerate(citations)
    )))


@st.composite
def custom_schemes(draw):
    """Up to 8 interior boundaries over the denominators 3, 7, 10 and 1000,
    mixed in one scheme, with weights that need not be integers."""
    interior = draw(st.sets(
        st.sampled_from((3, 7, 10, 1000)).flatmap(
            lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))
        ),
        max_size=8,
    ))
    boundaries = [F(0), *sorted(interior), F(1)]
    weights = draw(st.lists(
        st.fractions(min_value=0, max_value=10, max_denominator=12),
        min_size=len(boundaries) - 1, max_size=len(boundaries) - 1,
    ))
    return scheme_from_boundaries("custom", boundaries, weights)


SCHEMES = st.one_of(
    st.sampled_from(("top50", "pr6", "pr100", "topx=1/10", "topx=1/3")).map(builtin_scheme),
    custom_schemes(),
)


@settings(max_examples=200, deadline=None)
@given(tie_structures(), SCHEMES)
def test_fractional_closed_form_on_the_oracle(ranked, scheme):
    reference = attribute_each(ranked, scheme, FRAC)
    total = theoretical_total(scheme, ranked.n)
    assert sum((per_doc_score(a, scheme) for a in reference), start=F(0)) == total
    widths = tuple(ranked.n * cls.width for cls in scheme.classes)
    assert class_counts(reference, scheme).counts == widths
    assert compute_indicators(ranked, scheme, FRAC).i3 == total
