"""Seeded property tests: the per-tie-group paths against the per-document
reference in support.attribute_each."""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pctrank import (
    BoundaryAmbiguityError,
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DocumentSet,
    MidpointRoute,
    RoundingMode,
    attribute_all,
    builtin_scheme,
    compare_rules,
    compute_indicators,
    interval_for,
    rank,
    render_attributions,
)
from pctrank.indicators import class_counts, per_doc_score
from pctrank.io import render_report
from pctrank.model import scheme_from_boundaries
from pctrank.scoring import POINT_RULES, _fractions, _points
from support import (
    attribute_each,
    first_difference,
    fractional_attribution,
    i3,
    ids_in_rank_order,
    intervals_by_id,
    make_distinct,
    make_tied,
    pp_top,
    r_indicator,
    random_document_set,
    random_scheme,
    render_attributions_per_document,
    render_report_per_document,
)

POINT_OPTIONS = [
    dict(rounding=rounding, policy=policy, midpoint_route=route)
    for rounding in RoundingMode
    for route in MidpointRoute
    for policy in (BoundaryPolicy.LOWER, BoundaryPolicy.UPPER)
]


def tie_heavy_set(rng: random.Random, max_n: int = 200, shuffled: bool = False) -> DocumentSet:
    """Up to max_n documents over a handful of citation counts, listed in id
    order or shuffled."""
    n = rng.randint(max_n // 2, max_n)
    top = rng.randint(0, 6)
    records = [CitationRecord(f"h{i:03d}", rng.randint(0, top)) for i in range(n)]
    if shuffled:
        rng.shuffle(records)
    return DocumentSet(records)


def field_set(rng: random.Random, n: int = 40, shuffled: bool = False) -> DocumentSet:
    """One field's worth of heavy-tailed citation counts, with many ties,
    listed in id order or shuffled."""
    records = [CitationRecord(f"p{i:02d}", int(rng.paretovariate(1.2)) - 1) for i in range(n)]
    if shuffled:
        rng.shuffle(records)
    return DocumentSet(records)


def cases():
    """(ranked set, scheme) pairs: small random sets, tie-heavy sets up to
    n=200, the edge sizes n=1 and one tie group of size n, two schemes off
    the integer pattern of random_scheme (non-integer weights, and large
    coprime boundary denominators whose lcm no n here divides), distinct sets
    whose boundaries fall between or inside groups, sets of 40 under a
    top-10% scheme, and a tie-heavy set and a set of 40 whose records arrive
    shuffled."""
    rng = random.Random(20120516)
    out = [(rank(random_document_set(rng)), random_scheme(rng)) for _ in range(60)]
    for _ in range(8):
        scheme = rng.choice(
            [random_scheme(rng), builtin_scheme("pr6"), builtin_scheme("pr100")]
        )
        out.append((rank(tie_heavy_set(rng)), scheme))
    for name in ("top50", "pr6", "pr100"):
        out.append((rank(make_distinct(1)), builtin_scheme(name)))
    out.append((rank(make_tied(200)), builtin_scheme("pr100")))
    out.append((rank(make_tied(1)), builtin_scheme("pr100")))
    halves = scheme_from_boundaries(
        "non-integer-weights",
        builtin_scheme("pr6").boundaries,
        [Fraction(1, 2), Fraction(7, 3), Fraction(0), Fraction(5, 4), Fraction(1),
         Fraction(11, 6)],
    )
    out.append((rank(tie_heavy_set(rng)), halves))
    coprime = scheme_from_boundaries(
        "coprime",
        [Fraction(0), Fraction(1, 7), Fraction(5, 11), Fraction(12, 13),
         Fraction(9972, 9973), Fraction(1)],
        [Fraction(w) for w in (1, 2, 3, 4, 5)],
    )
    # 154 = 2*7*11 puts some points exactly on 1/7 and 5/11.
    out.append((rank(make_distinct(154)), coprime))
    tied = DocumentSet(tuple(CitationRecord(f"w{i:03d}", i % 9) for i in range(200)))
    out.append((rank(tied), coprime))
    # Every boundary falls exactly between two of 500 or 1000 distinct
    # documents, and strictly inside one of 997.
    out.append((rank(make_distinct(500)), builtin_scheme("pr100")))
    out.append((rank(make_distinct(1000)), builtin_scheme("pr6")))
    out.append((rank(make_distinct(997)), builtin_scheme("pr6")))
    for _ in range(3):
        out.append((rank(field_set(rng)), builtin_scheme("topx=1/10")))
    # Shaped like the benchmark's workloads. 501 distinct documents: runs
    # of one-member groups inside each class and, 501 being prime to 100, a
    # group straddling every cut of pr100, as 997 does every cut of pr6.
    out.append((rank(make_distinct(501)), builtin_scheme("pr100")))
    # Many small sets, and one of many small tie groups, one after another
    # under one top-10% scheme object, whose grid part they all share.
    top10 = builtin_scheme("topx=1/10")
    out += [(rank(field_set(rng)), top10) for _ in range(6)]
    small_ties = DocumentSet(tuple(CitationRecord(f"s{i:03d}", i // 3) for i in range(301)))
    out.append((rank(small_ties), top10))
    # Records that arrive out of id order: each tie group's member ids must
    # still come out sorted.
    out.append((rank(tie_heavy_set(rng, shuffled=True)), builtin_scheme("pr6")))
    out.append((rank(field_set(rng, shuffled=True)), top10))
    return out


CASES = cases()
IDS = [f"n{ranked.n}-k{scheme.k}-{i}" for i, (ranked, scheme) in enumerate(CASES)]
# The slower rendering tests skip the small random sets and the first
# tie-heavy one.
RENDERED, RENDERED_IDS = CASES[61:], IDS[61:]


def rule_options(rule: CountingRule) -> list[dict]:
    return [{}] if rule is CountingRule.FRACTIONAL else POINT_OPTIONS


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def oracle_case(request):
    """A case with attribute_each's output for every rule and options, as
    (ranked, scheme, [(rule, options, reference)]). The two tests that read
    it share one computation; module scope has pytest run the cases one at a
    time, so only one case's references are held at once."""
    ranked, scheme = request.param
    references = [
        (rule, options, attribute_each(ranked, scheme, rule, **options))
        for rule in CountingRule
        for options in rule_options(rule)
    ]
    return ranked, scheme, references


def test_attribute_all_matches_the_per_document_path(oracle_case):
    ranked, scheme, references = oracle_case
    for rule, options, reference in references:
        assert attribute_all(ranked, scheme, rule, **options) == reference


def test_error_policy_refuses_exactly_when_the_per_document_path_does(oracle_case):
    """Under the error policy attribute_all raises exactly when a point of
    the reference path lands on a boundary (a hit under the lower policy),
    at the boundary of the first hit. The grid's walk decides every tie
    group before that hit's group, and no more."""
    ranked, scheme, references = oracle_case
    for rule, options, reference in references:
        if options.get("policy") is not BoundaryPolicy.LOWER:
            continue
        options = {**options, "policy": BoundaryPolicy.ERROR}
        first = next((p for p, a in enumerate(reference) if a.ambiguous), None)
        if first is None:
            assert attribute_all(ranked, scheme, rule, **options) == reference
            continue
        with pytest.raises(BoundaryAmbiguityError) as raised:
            attribute_all(ranked, scheme, rule, **options)
        assert raised.value.boundary == reference[first].boundary_hit
        decided = 0
        with pytest.raises(BoundaryAmbiguityError):
            for _ in _points(scheme, ranked.n, pairwise(ranked._ends), rule, **options):
                decided += 1
        assert decided == sum(group.rank_high <= first for group in ranked.groups)


@lru_cache(maxsize=16)
def one_hot_schemes(scheme):
    """The scheme once per class, weighting that class 1 and every other 0,
    so that I3 reads off one class count. Kept for the last few schemes: the
    cases of one built-in scheme share them."""
    return tuple(
        (index, scheme_from_boundaries(
            "one-hot", scheme.boundaries, [Fraction(int(i == index)) for i in range(scheme.k)]
        ))
        for index in range(scheme.k)
    )


def positional_scheme(scheme, n):
    """The scheme with class i weighted (n + 1)**i. Point-rule class counts
    are integers in 0..n, so I3 holds them as its digits in base n + 1 and
    equal I3s mean equal counts in every class."""
    weights = [Fraction((n + 1) ** i) for i in range(scheme.k)]
    return scheme_from_boundaries("positional", scheme.boundaries, weights)


def test_compute_indicators_matches_the_summed_oracle(oracle_case):
    ranked, scheme, references = oracle_case
    positional = positional_scheme(scheme, ranked.n)
    for rule, options, reference in references:
        counts = class_counts(reference, scheme)
        result = compute_indicators(ranked, scheme, rule, **options)
        assert result.i3 == i3(counts)
        assert result.r == r_indicator(i3(counts), ranked.n)
        assert result.pp == (pp_top(counts, ranked.n) if scheme.k == 2 else None)
        assert result.boundary_hits == sum(
            getattr(a, "ambiguous", False) for a in reference
        )
        assert len(result.per_doc_scores) == ranked.n
        assert result.per_doc_scores == {
            a.doc_id: per_doc_score(a, scheme) for a in reference
        }
        if rule is CountingRule.FRACTIONAL:
            fractional_counts = counts
        else:
            tallied = compute_indicators(ranked, positional, rule, **options)
            assert tallied.i3 == i3(counts._replace(scheme=positional))
    # Fractional counts are not integers; read them off one class at a time.
    counts = fractional_counts
    for index, one_hot in one_hot_schemes(scheme):
        folded = compute_indicators(ranked, one_hot, CountingRule.FRACTIONAL)
        assert folded.i3 == counts.counts[index]


@pytest.mark.parametrize("ranked,scheme", CASES, ids=IDS)
def test_compute_indicators_refuses_exactly_when_the_per_document_path_does(ranked, scheme):
    for rule in POINT_RULES:
        for rounding in RoundingMode:
            for route in MidpointRoute:
                options = dict(
                    rounding=rounding, policy=BoundaryPolicy.ERROR, midpoint_route=route
                )
                try:
                    reference = attribute_each(ranked, scheme, rule, **options)
                except BoundaryAmbiguityError as exc:
                    with pytest.raises(BoundaryAmbiguityError) as raised:
                        compute_indicators(ranked, scheme, rule, **options)
                    assert raised.value.boundary == exc.boundary
                else:
                    result = compute_indicators(ranked, scheme, rule, **options)
                    assert result.i3 == i3(class_counts(reference, scheme))
                    assert result.boundary_hits == 0


@pytest.mark.parametrize("ranked,scheme", CASES, ids=IDS)
def test_compare_rules_matches_the_per_document_path(ranked, scheme):
    groups = {group.member_ids: group for group in ranked.groups}
    for rounding in RoundingMode:
        for route in MidpointRoute:
            report = compare_rules(ranked, scheme, rounding=rounding, midpoint_route=route)
            per_rule = {
                rule: attribute_each(
                    ranked, scheme, rule,
                    rounding=rounding, policy=BoundaryPolicy.LOWER, midpoint_route=route,
                )
                for rule in POINT_RULES
            }
            flags = [
                (rule, a.doc_id, a.quantile, a.boundary_hit)
                for rule in POINT_RULES
                for a in per_rule[rule]
                if a.ambiguous
            ]
            assert [
                (f.rule, doc_id, f.quantile, f.boundary)
                for f in report.flags
                for doc_id in f.member_ids
            ] == flags
            disagreements = []
            for position, doc_id in enumerate(ids_in_rank_order(ranked)):
                classes = {rule: per_rule[rule][position].class_index for rule in POINT_RULES}
                if len(set(classes.values())) > 1:
                    disagreements.append((doc_id, classes))
            assert [
                (doc_id, d.classes) for d in report.disagreements for doc_id in d.member_ids
            ] == disagreements
            # Each record covers one whole tie group, with that group's interval.
            for record in (*report.flags, *report.disagreements):
                assert record.member_ids in groups
            for f in report.flags:
                interval = interval_for(groups[f.member_ids], ranked.n)
                assert (f.interval_low, f.interval_high) == interval
    fractional = class_counts(attribute_each(ranked, scheme, CountingRule.FRACTIONAL), scheme)
    assert report.fractional_counts == fractional


RENDER_OPTIONS = [
    (CountingRule.FRACTIONAL, {}),
    *(
        (rule, dict(rounding=rounding, policy=policy, midpoint_route=route))
        for rule in POINT_RULES
        for rounding, policy, route in (
            (RoundingMode.NONE, BoundaryPolicy.LOWER, MidpointRoute.EXACT),
            (RoundingMode.HALF_UP, BoundaryPolicy.UPPER, MidpointRoute.ENDPOINTS),
        )
    ),
]


def per_document_row(a, ranked, citations, scheme, rule, options) -> list[str]:
    """One csv row of render_attributions, formatted from one attribution."""
    interval = intervals_by_id(ranked)[a.doc_id]
    row = [a.doc_id, str(citations[a.doc_id]), "g", str(interval.low), str(interval.high)]
    if rule is CountingRule.FRACTIONAL:
        return row + [str(per_doc_score(a, scheme))] + [str(f) for f in a.fractions]
    percentile = a.quantile * 100 if a.percentile is None else a.percentile
    row += [str(a.quantile), str(percentile)]
    if rule is CountingRule.MIDPOINT and options["midpoint_route"] is MidpointRoute.ENDPOINTS:
        pair = a.endpoint_percentiles
        row.append("" if pair is None else f"{pair[0]}/{pair[1]}")
    weight = scheme.classes[a.class_index - 1].weight
    boundary = "" if a.boundary_hit is None else str(a.boundary_hit)
    return row + [str(a.class_index), str(weight), str(a.ambiguous).lower(), boundary]


def json_document_row(d: dict, rule: CountingRule) -> list[str]:
    """A json document of render_attributions, laid out as its csv row."""
    row = [d["id"], str(d["citations"]), "g", d["interval"]["low"], d["interval"]["high"]]
    if rule is CountingRule.FRACTIONAL:
        return row + [d["score"], *d["fractions"]]
    row += [d["quantile"], d["percentile"]]
    if "endpoint_percentiles" in d:
        pair = d["endpoint_percentiles"]
        row.append("" if pair is None else f"{pair[0]}/{pair[1]}")
    boundary = "" if d["boundary"] is None else d["boundary"]
    return row + [str(d["class"]), d["weight"], str(d["ambiguous"]).lower(), boundary]


@pytest.mark.parametrize("ranked,scheme", RENDERED, ids=RENDERED_IDS)
def test_fractional_rendering_matches_per_document_rows(ranked, scheme):
    """csv and json attribute rows, under the fractional and every point rule,
    formatted once per tie group, match rows formatted document by document;
    so does the table, line for line."""
    citations = {record.doc_id: record.citations for record in ranked.source.records}
    for rule, options in RENDER_OPTIONS:
        reference = attribute_each(ranked, scheme, rule, **options)
        expected = [
            per_document_row(a, ranked, citations, scheme, rule, options) for a in reference
        ]
        batches = [("g", ranked, attribute_all(ranked, scheme, rule, **options))]
        for fmt in ("csv", "json"):
            text = render_attributions(batches, scheme, rule, fmt=fmt, **options)
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(text)))[1:]
            else:
                documents = json.loads(text)["groups"][0]["documents"]
                rows = [json_document_row(d, rule) for d in documents]
            assert rows == expected
        table = render_attributions(batches, scheme, rule, fmt="table", **options)
        expected_table = render_attributions_per_document(
            [("g", ranked, reference)], scheme, rule, fmt="table", **options
        )
        assert table == expected_table, first_difference(table, expected_table)


@pytest.mark.parametrize("ranked,scheme", CASES, ids=IDS)
def test_grid_score_matches_the_per_document_score(ranked, scheme):
    """The fractional per_doc_scores, one per tie group from attribute_all,
    match the score of each document's own reference attribution."""
    scores = compute_indicators(ranked, scheme, CountingRule.FRACTIONAL).per_doc_scores
    for doc_id in ids_in_rank_order(ranked):
        reference = fractional_attribution(doc_id, ranked, scheme)
        assert scores[doc_id] == per_doc_score(reference, scheme)


def test_grids_of_one_scheme_share_its_scheme_part():
    """The integer cuts and each class's one-hot tuple belong to the scheme
    object: every walk over it shares them, an equal scheme built separately
    gets its own, and walking it leaves its equality and hash alone."""
    pr100 = builtin_scheme("pr100")
    assert pr100._cuts == list(range(101))  # D = 100
    spans = [*pairwise(rank(make_distinct(1000))._ends)]
    # The ten groups inside class 1 share one tuple, kept on the scheme.
    fractions = [*_fractions(pr100, 1000, spans)]
    assert all(f is fractions[0] for f in fractions[:10])
    assert fractions[0] is pr100._one_hot[0]
    assert next(_fractions(pr100, 1000, spans)) is fractions[0]
    other = builtin_scheme("pr100")
    assert other._cuts is not pr100._cuts and other._one_hot is not pr100._one_hot
    assert next(_fractions(other, 1000, spans)) is not fractions[0]
    assert other._one_hot[0] == fractions[0]
    assert other == pr100 and hash(other) == hash(pr100)


def assert_dumps_layout(text: str) -> dict:
    """text is exactly what json.dumps(indent=2) writes for its own content."""
    payload = json.loads(text)
    expected = json.dumps(payload, indent=2) + "\n"
    same = text == expected
    assert same, first_difference(text, expected)
    return payload


@pytest.mark.parametrize("ranked,scheme", RENDERED, ids=RENDERED_IDS)
def test_attribute_json_is_laid_out_as_json_dumps(ranked, scheme):
    for rule, options in RENDER_OPTIONS:
        batches = [("g", ranked, attribute_all(ranked, scheme, rule, **options))]
        assert_dumps_layout(render_attributions(batches, scheme, rule, fmt="json", **options))


AWKWARD_IDS = ['q"uote', "back\\slash", "tab\there", "new\nline", "café", "grin😀", "plain"]


def test_attribute_json_escapes_ids_and_group_keys():
    """Quotes, backslashes, control characters, non-ASCII and a character
    outside the BMP (written as a surrogate pair) in ids, the group key and
    the scheme name survive the per-group JSON text."""
    records = tuple(
        CitationRecord(doc_id, citations)
        for doc_id, citations in zip(AWKWARD_IDS, (0, 0, 1, 2, 2, 2, 5))
    )
    ranked = rank(DocumentSet(records))
    scheme = scheme_from_boundaries(
        "naïve ✓", [Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)],
        [Fraction(1, 2), Fraction(0), Fraction(7, 3)],
    )
    key = 'grüp "\\\t\n😀'
    for rule, options in RENDER_OPTIONS:
        attributions = attribute_all(ranked, scheme, rule, **options)
        batches = [(key, ranked, attributions), ("plain", ranked, attributions)]
        text = render_attributions(batches, scheme, rule, fmt="json", **options)
        assert text.isascii()
        assert "\\ud83d\\ude00" in text
        payload = assert_dumps_layout(text)
        assert payload["scheme"]["name"] == "naïve ✓"
        assert [group["group"] for group in payload["groups"]] == [key, "plain"]
        for group in payload["groups"]:
            ids = [document["id"] for document in group["documents"]]
            assert ids == ids_in_rank_order(ranked)
            assert sorted(ids) == sorted(AWKWARD_IDS)


# Ids csv must quote (comma, quote, CR, LF), tabs, spaces, non-ASCII and a
# character outside the BMP; short and long ones side by side.
_ID_CHARS = list('ab,"\r\n\t é😀字')
awkward_ids = (
    st.text(_ID_CHARS, min_size=1, max_size=3) | st.text(_ID_CHARS, min_size=20, max_size=60)
).filter(str.strip)


@st.composite
def grouped_sets(draw):
    """One to three groups of up to 25 documents each; citations spread
    from a single tie group to all distinct."""
    keys = draw(st.lists(awkward_ids, min_size=1, max_size=3, unique=True))
    out = []
    for key in sorted(keys):
        ids = draw(st.lists(awkward_ids, min_size=1, max_size=25, unique=True))
        spread = draw(st.integers(0, len(ids)))
        citations = draw(st.lists(st.integers(0, spread), min_size=len(ids), max_size=len(ids)))
        records = tuple(map(CitationRecord, ids, citations))
        out.append((key, rank(DocumentSet(records))))
    return out


RENDER_SCHEMES = [
    builtin_scheme("top50"), builtin_scheme("pr6"), builtin_scheme("pr100"),
    builtin_scheme("topx=1/10"),
    # Non-integer weights, and boundaries of large coprime denominators.
    *{s.name: s for _, s in CASES if s.name in ("non-integer-weights", "coprime")}.values(),
]
REPORT_OPTIONS = [
    dict(rounding=rounding, midpoint_route=route)
    for rounding in (RoundingMode.NONE, RoundingMode.FLOOR)
    for route in MidpointRoute
]


@seed(20120516)
@settings(max_examples=50, deadline=None)
@given(sets=grouped_sets(), scheme=st.sampled_from(RENDER_SCHEMES))
def test_rendering_matches_the_per_document_renderers(sets, scheme):
    """attribute and report output, laid out per tie group, is byte for byte
    the output of renderers that format every document on its own, in csv,
    table and json."""
    for rule, options in RENDER_OPTIONS:
        batches = [(key, r, attribute_all(r, scheme, rule, **options)) for key, r in sets]
        reference = [(key, r, attribute_each(r, scheme, rule, **options)) for key, r in sets]
        for fmt in ("csv", "table", "json"):
            text = render_attributions(batches, scheme, rule, fmt=fmt, **options)
            expected = render_attributions_per_document(
                reference, scheme, rule, fmt=fmt, **options
            )
            assert text == expected, first_difference(text, expected)
    for options in REPORT_OPTIONS:
        batches = [(key, r, compare_rules(r, scheme, **options)) for key, r in sets]
        for fmt in ("csv", "table", "json"):
            text = render_report(batches, scheme, fmt=fmt, **options)
            expected = render_report_per_document(batches, scheme, fmt=fmt, **options)
            assert text == expected, first_difference(text, expected)
