from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DocumentSet,
    QuantileInterval,
    TieGroup,
    attribute_all,
    builtin_scheme,
    compare_rules,
    compute_indicators,
    interval_for,
    rank,
    render_attributions,
    theoretical_total,
)
from pctrank.indicators import class_counts
from support import (
    i3,
    intervals_by_id,
    make_distinct,
    make_tied,
    random_document_set,
    tie_groups_oracle,
)

F = Fraction


class TestIntervalFor:
    @pytest.mark.parametrize(
        "position,n,low,high",
        [
            (3, 5, F(2, 5), F(3, 5)),
            (13, 25, F(12, 25), F(13, 25)),
            (2, 3, F(1, 3), F(2, 3)),
            (51, 101, F(50, 101), F(51, 101)),
            (500, 999, F(499, 999), F(500, 999)),
            (149, 150, F(74, 75), F(149, 150)),
        ],
    )
    def test_singleton_intervals(self, position, n, low, high):
        group = TieGroup(0, (f"d{position}",), position, position)
        assert interval_for(group, n) == QuantileInterval(low, high)

    def test_tie_group_spans_its_ranks(self):
        group = TieGroup(4, ("a", "b", "c"), 2, 4)
        assert interval_for(group, 5) == QuantileInterval(F(1, 5), F(4, 5))

    def test_rank_span_must_fit(self):
        with pytest.raises(ValueError):
            interval_for(TieGroup(1, ("a",), 3, 3), 2)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            QuantileInterval(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            QuantileInterval(F(-1, 4), F(1, 2))


class TestRank:
    def test_distinct_counts_make_singleton_groups(self):
        ranked = rank(make_distinct(5))
        assert [g.member_ids for g in ranked.groups] == [
            ("d1",), ("d2",), ("d3",), ("d4",), ("d5",)
        ]
        assert intervals_by_id(ranked)["d3"] == QuantileInterval(F(2, 5), F(3, 5))
        assert intervals_by_id(ranked)["d5"] == QuantileInterval(F(4, 5), F(1))

    def test_single_document_owns_the_axis(self):
        ranked = rank(make_distinct(1))
        assert intervals_by_id(ranked)["d1"] == QuantileInterval(F(0), F(1))

    def test_all_tied_share_one_group(self):
        ranked = rank(make_tied(3))
        assert len(ranked.groups) == 1
        group = ranked.groups[0]
        assert group.member_ids == ("t1", "t2", "t3")
        assert (group.rank_low, group.rank_high, group.size) == (1, 3, 3)
        assert intervals_by_id(ranked)["t2"] == QuantileInterval(F(0), F(1))

    def test_mixed_ties(self):
        records = (
            CitationRecord("w", 0),
            CitationRecord("x", 3),
            CitationRecord("y", 3),
            CitationRecord("z", 9),
        )
        ranked = rank(DocumentSet(records))
        assert [g.member_ids for g in ranked.groups] == [("w",), ("x", "y"), ("z",)]
        intervals = intervals_by_id(ranked)
        assert intervals["x"] == intervals["y"] == QuantileInterval(F(1, 4), F(3, 4))
        assert list(intervals) == ["w", "x", "y", "z"]

    def test_top_of_eight(self):
        ranked = rank(make_distinct(8))
        assert intervals_by_id(ranked)["d8"] == QuantileInterval(F(7, 8), F(1))

    def test_group_widths_partition_the_axis(self):
        ranked = rank(random_document_set(random.Random(5)))
        intervals = [intervals_by_id(ranked)[g.member_ids[0]] for g in ranked.groups]
        assert intervals[0].low == 0
        assert intervals[-1].high == 1
        for left, right in zip(intervals, intervals[1:]):
            assert left.high == right.low
        assert sum(iv.width for iv in intervals) == 1

    def test_tie_width_is_group_size_over_n(self):
        ranked = rank(make_tied(4, citations=2))
        assert intervals_by_id(ranked)["t1"].width == F(4, 4)
        records = (
            CitationRecord("a", 1),
            CitationRecord("b", 5),
            CitationRecord("c", 5),
            CitationRecord("d", 9),
        )
        ranked = rank(DocumentSet(records))
        assert intervals_by_id(ranked)["b"].width == F(2, 4)


class TestLazyIntervals:
    def test_cli_path_consumers_leave_the_intervals_unbuilt(self):
        # 20 documents under pr6: points land on 1/2, 3/4, 9/10 and 19/20.
        ranked = rank(make_distinct(20))
        scheme = builtin_scheme("pr6")
        report = compare_rules(ranked, scheme)
        assert report.flags
        assert (report.flags[0].interval_low, report.flags[0].interval_high) == (
            F(10, 20), F(11, 20)
        )
        # The report sorted the records, and built neither the rank ends
        # nor the tie groups.
        assert [name for name, value in vars(ranked).items() if value is not None] == [
            "source", "_sorted"
        ]
        for rule in CountingRule:
            result = compute_indicators(ranked, scheme, rule, policy=BoundaryPolicy.LOWER)
            dict(result.per_doc_scores)
            attributions = attribute_all(ranked, scheme, rule, policy=BoundaryPolicy.LOWER)
            for fmt in ("csv", "json", "table"):
                render_attributions([("g", ranked, attributions)], scheme, rule, fmt=fmt)
        # No consumer keeps a per-document map on the ranked set: it holds
        # the sorted records, the rank ends and the tie groups.
        assert set(vars(ranked)) == {"source", "_sorted", "_rank_ends", "_groups"}
        assert not any(isinstance(value, dict) for value in vars(ranked).values())


MIXED = DocumentSet((
    CitationRecord("w", 0), CitationRecord("x", 3), CitationRecord("y", 3),
    CitationRecord("z", 9), CitationRecord("v", 3),
))
MIXED_GROUPS = [("w",), ("v", "x", "y"), ("z",)]


class TestGroupsOnFirstRead:
    def test_rank_builds_nothing_until_groups_is_read(self, builds):
        ranked = rank(MIXED)
        assert (ranked.source, ranked.n) == (MIXED, 5)
        assert builds == []
        groups = ranked.groups
        assert builds == [MIXED]
        assert ranked.groups is groups
        assert builds == [MIXED]
        assert [g.member_ids for g in groups] == MIXED_GROUPS

    @pytest.mark.parametrize("selector", ["top50", "pr6", "pr100", "topx(1/10)"])
    def test_fractional_indicators_need_only_n(self, builds, selector):
        scheme = builtin_scheme(selector)
        ranked = rank(MIXED)
        result = compute_indicators(ranked, scheme, CountingRule.FRACTIONAL)
        assert len(result.per_doc_scores) == 5
        assert builds == []
        assert result.i3 == theoretical_total(scheme, 5)
        assert result.r == result.i3 / 5
        assert result.pp == (scheme.classes[-1].width if scheme.k == 2 else None)
        # The same values summed from every document's fractions.
        counts = class_counts(attribute_all(ranked, scheme, CountingRule.FRACTIONAL), scheme)
        assert builds == [MIXED]
        assert result.i3 == i3(counts)
        if scheme.k == 2:
            assert result.pp == counts.counts[-1] / 5

    @pytest.mark.parametrize("consumer,built", [
        (lambda ranked, scheme: compute_indicators(
            ranked, scheme, CountingRule.FRACTIONAL).per_doc_scores["x"], MIXED_GROUPS),
        (lambda ranked, scheme: compute_indicators(
            ranked, scheme, CountingRule.MIDPOINT, policy=BoundaryPolicy.LOWER), []),
        (lambda ranked, scheme: attribute_all(ranked, scheme, CountingRule.FRACTIONAL),
         MIXED_GROUPS),
        # Per call, the one tie group near top50's cut.
        (lambda ranked, scheme: compare_rules(ranked, scheme), [("v", "x", "y")] * 2),
    ], ids=["per_doc_scores", "point_indicators", "attribute_all", "compare_rules"])
    def test_what_needs_the_groups_builds_them_once(
        self, builds, tie_groups_built, consumer, built
    ):
        """Each consumer sorts the records once, however often it runs. Only
        a consumer that needs every member id builds `groups`, once."""
        ranked, scheme = rank(MIXED), builtin_scheme("top50")
        consumer(ranked, scheme)
        assert builds == [MIXED]
        consumer(ranked, scheme)
        assert builds == [MIXED]
        assert [group.member_ids for group in tie_groups_built] == built
        assert (ranked._groups is not None) is (built is MIXED_GROUPS)


@st.composite
def ranked_inputs(draw):
    """Records with random unique ids and one of three tie shapes, and the
    same records in another order."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["one-document groups", "one huge tie", "mixed"]))
    n = rng.randint(1, 400 if shape == "one huge tie" else 60)
    ids = rng.sample([f"{prefix}{i}" for prefix in "abc" for i in range(n)], n)
    if shape == "one-document groups":
        citations = rng.sample(range(10 * n), n)
    elif shape == "one huge tie":
        citations = [rng.randint(0, 5)] * n
    else:
        spread = rng.randint(1, n)
        citations = [rng.randint(0, spread) for _ in range(n)]
    records = [CitationRecord(doc_id, c) for doc_id, c in zip(ids, citations)]
    permuted = records[:]
    rng.shuffle(permuted)
    return DocumentSet(tuple(records)), DocumentSet(tuple(permuted))


@settings(max_examples=60, deadline=None)
@seed(20120417)
@given(ranked_inputs())
def test_tie_groups_match_a_plain_sort_and_split(inputs):
    original, permuted = inputs
    expected = tie_groups_oracle(original)
    assert rank(original).groups == expected
    assert rank(permuted).groups == expected


class TestRankProperties:
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rng):
        document_set = random_document_set(rng)
        shuffled = list(document_set.records)
        rng.shuffle(shuffled)
        reranked = rank(DocumentSet(tuple(shuffled)))
        original = rank(document_set)
        assert reranked.groups == original.groups
        assert intervals_by_id(reranked) == intervals_by_id(original)

    @given(st.randoms(use_true_random=False))
    def test_monotone_and_contiguous(self, rng):
        ranked = rank(random_document_set(rng))
        previous_high = F(0)
        previous_citations = -1
        for group in ranked.groups:
            interval = intervals_by_id(ranked)[group.member_ids[0]]
            assert group.citations > previous_citations
            assert interval.low == previous_high
            assert interval.width == F(group.size, ranked.n)
            previous_high = interval.high
            previous_citations = group.citations
        assert previous_high == 1

    def test_coarsening_ties_merges_intervals(self):
        base = make_distinct(6)
        before = rank(base)
        union_low = intervals_by_id(before)["d3"].low
        union_high = intervals_by_id(before)["d4"].high
        records = tuple(
            CitationRecord(r.doc_id, 3 if r.doc_id == "d4" else r.citations)
            for r in base.records
        )
        after = rank(DocumentSet(records))
        merged = intervals_by_id(after)["d3"]
        assert merged == intervals_by_id(after)["d4"]
        assert (merged.low, merged.high) == (union_low, union_high)
        # every other document keeps its old interval
        for doc_id in ("d1", "d2", "d5", "d6"):
            assert intervals_by_id(after)[doc_id] == intervals_by_id(before)[doc_id]
