"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL ..." line (visible under
pytest -s). All equalities are exact rational equalities; the only tolerance
anywhere is the number of digits a display string shows.
"""

from __future__ import annotations

import csv
import io
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DocumentSet,
    MidpointRoute,
    RoundingMode,
    attribute_all,
    builtin_scheme,
    compare_rules,
    interval_for,
    rank,
    render_attributions,
    theoretical_total,
)
from pctrank.indicators import class_counts, per_doc_score
from pctrank.model import topx_scheme
from support import (
    i3,
    intervals_by_id,
    make_distinct,
    make_tied,
    overlap_fractions_oracle,
    pp_top,
    random_document_set,
    random_scheme,
)

F = Fraction

CW = CountingRule.COUNT_WORSE
CWE = CountingRule.COUNT_WORSE_OR_EQUAL
MID = CountingRule.MIDPOINT
FRAC = CountingRule.FRACTIONAL


def by_id(attributions) -> dict:
    return {a.doc_id: a for a in attributions}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL  {label}")
        raise
    print(f"criterion {number:02d}: PASS  {label}")


def test_criterion_01_even_split_of_the_middle_document():
    with criterion(1, "five documents: exact interval and even top50 split"):
        ranked = rank(make_distinct(5))
        interval = interval_for(ranked.groups[2], ranked.n)
        assert (interval.low, interval.high) == (F(2, 5), F(3, 5))
        top50 = builtin_scheme("top50")
        attributions = attribute_all(ranked, top50, FRAC)
        assert by_id(attributions)["d3"].fractions == (F(1, 2), F(1, 2))
        counts = class_counts(attributions, top50)
        assert counts.counts == (F(5, 2), F(5, 2))


def test_criterion_02_hundredth_class_spreading():
    with criterion(2, "middle of five spreads 1/20 over twenty hundredth-classes"):
        ranked = rank(make_distinct(5))
        fractions = by_id(attribute_all(ranked, builtin_scheme("pr100"), FRAC))["d3"].fractions
        for index, fraction in enumerate(fractions, start=1):
            assert fraction == (F(1, 20) if 41 <= index <= 60 else 0)


def test_criterion_03_top_of_eight_scores():
    with criterion(3, "top of eight: exact scores and per-document contributions"):
        ranked = rank(make_distinct(8))
        pr6 = builtin_scheme("pr6")
        score6 = per_doc_score(by_id(attribute_all(ranked, pr6, FRAC))["d8"], pr6)
        assert score6 == F(107, 25)
        assert score6 / 8 == F(107, 200)
        pr100 = builtin_scheme("pr100")
        score100 = per_doc_score(by_id(attribute_all(ranked, pr100, FRAC))["d8"], pr100)
        assert score100 == F(2356, 25)
        assert score100 / 8 == F(589, 50)
        decile = topx_scheme(F(1, 10))
        assert by_id(attribute_all(ranked, decile, FRAC))["d8"].fractions == (F(1, 5), F(4, 5))


def distinct_random_set(rng: random.Random, n: int) -> DocumentSet:
    citations = rng.sample(range(n * 10), n)
    records = [CitationRecord(f"r{i:04d}", c) for i, c in enumerate(citations)]
    rng.shuffle(records)
    return DocumentSet(tuple(records))


def test_criterion_04_theoretical_totals():
    with criterion(4, "all-distinct sets reach the theoretical totals exactly"):
        rng = random.Random(4)
        for n in (8, 101, 999, 1000):
            ranked = rank(distinct_random_set(rng, n))
            for name, expected in (
                ("top50", F(n, 2)),
                ("pr6", F(191 * n, 100)),
                ("pr100", F(101 * n, 2)),
            ):
                scheme = builtin_scheme(name)
                total = i3(class_counts(attribute_all(ranked, scheme, FRAC), scheme))
                assert total == expected
                assert total == theoretical_total(scheme, n)


def test_criterion_05_boundary_cases_are_flagged():
    # position counted from the worst document; the first five midpoints land
    # on 1/2, the last one on 99/100.
    cases = [
        (3, 5, F(2, 5), F(3, 5), "top50", F(1, 2)),
        (13, 25, F(12, 25), F(13, 25), "top50", F(1, 2)),
        (2, 3, F(1, 3), F(2, 3), "top50", F(1, 2)),
        (51, 101, F(50, 101), F(51, 101), "top50", F(1, 2)),
        (500, 999, F(499, 999), F(500, 999), "top50", F(1, 2)),
        (149, 150, F(74, 75), F(149, 150), "pr6", F(99, 100)),
    ]
    with criterion(5, "six boundary cases flagged with exact intervals"):
        for position, n, low, high, scheme_name, boundary in cases:
            target = f"d{position:0{len(str(n))}d}"
            report = compare_rules(rank(make_distinct(n)), builtin_scheme(scheme_name))
            at_boundary = [f for f in report.flags if f.boundary == boundary]
            assert {doc_id for f in at_boundary for doc_id in f.member_ids} == {target}
            [flag] = [f for f in at_boundary if f.rule is MID]
            assert (flag.interval_low, flag.interval_high) == (low, high)
            assert flag.quantile == boundary


def test_criterion_06_endpoint_rounding_variants():
    with criterion(6, "three documents: floor gives 33/66 -> 49, ceiling 34/67 -> 51"):
        ranked = rank(make_distinct(3))
        top50 = builtin_scheme("top50")
        floor = attribute_all(
            ranked, top50, MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )[1]
        assert floor.endpoint_percentiles == (33, 66)
        assert floor.percentile == 49
        ceiling = attribute_all(
            ranked, top50, MID,
            rounding=RoundingMode.CEIL, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )[1]
        assert ceiling.endpoint_percentiles == (34, 67)
        assert ceiling.percentile == 51


def test_criterion_07_rounded_and_exact_outputs_are_emitted():
    with criterion(7, "midpoint+floor emits the class weight 4; no rounding emits 93.75"):
        ranked = rank(make_distinct(8))
        pr6 = builtin_scheme("pr6")
        rounded = attribute_all(
            ranked, pr6, MID, rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER
        )
        assert per_doc_score(rounded[-1], pr6) == 4
        rounded_csv = render_attributions(
            [("default", ranked, rounded)], pr6, MID,
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER, fmt="csv",
        )
        top_row = list(csv.DictReader(io.StringIO(rounded_csv)))[-1]
        assert (top_row["id"], top_row["weight"]) == ("d8", "4")

        pr100 = builtin_scheme("pr100")
        exact = attribute_all(ranked, pr100, MID)
        table = render_attributions(
            [("default", ranked, exact)], pr100, MID, fmt="table"
        )
        assert "93.75" in table
        exact_csv = render_attributions(
            [("default", ranked, exact)], pr100, MID, fmt="csv"
        )
        top_row = list(csv.DictReader(io.StringIO(exact_csv)))[-1]
        assert F(top_row["percentile"]) == F(375, 4)


def test_criterion_08_property_sweep():
    with criterion(8, "1000 random instances: conservation, bracketing, oracle, permutation"):
        rng = random.Random(8)
        for _ in range(1000):
            documents = random_document_set(rng, max_n=12)
            scheme = random_scheme(rng, max_classes=10)
            ranked = rank(documents)
            fractional = attribute_all(ranked, scheme, FRAC)
            points = [
                attribute_all(ranked, scheme, rule, policy=BoundaryPolicy.LOWER)
                for rule in (CW, MID, CWE)
            ]
            for group in ranked.groups:
                interval = interval_for(group, ranked.n)
                fractions = fractional[group.rank_low - 1].fractions
                assert sum(fractions) == 1
                assert list(fractions) == overlap_fractions_oracle(
                    interval.low, interval.high, scheme.boundaries
                )
                for cls, fraction in zip(scheme.classes, fractions):
                    overlaps = (
                        min(interval.high, cls.upper) > max(interval.low, cls.lower)
                    )
                    assert (fraction > 0) == overlaps
                low, mid, high = (p[group.rank_low - 1].quantile for p in points)
                assert low <= mid <= high
            shuffled = list(documents.records)
            rng.shuffle(shuffled)
            reranked = rank(DocumentSet(tuple(shuffled)))
            assert intervals_by_id(reranked) == intervals_by_id(ranked)
            assert attribute_all(reranked, scheme, FRAC) == attribute_all(
                ranked, scheme, FRAC
            )


def test_criterion_09_full_tie_behavior():
    with criterion(9, "full ties: fractional PP equals x, point rules collapse"):
        documents = make_tied(10)
        ranked = rank(documents)
        for x in (F(1, 10), F(1, 2)):
            scheme = topx_scheme(x)
            counts = class_counts(attribute_all(ranked, scheme, FRAC), scheme)
            assert pp_top(counts, ranked.n) == x
            for rule in (CW, CWE, MID):
                classes = {
                    a.class_index
                    for a in attribute_all(
                        ranked, scheme, rule, policy=BoundaryPolicy.LOWER
                    )
                }
                assert len(classes) == 1
            report = compare_rules(ranked, scheme)
            flagged = {doc_id for d in report.disagreements for doc_id in d.member_ids}
            assert flagged == {r.doc_id for r in documents.records}


def run_cli(argv: list[str]) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "pctrank", *argv],
        capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_criterion_10_cli_csv_round_trip(tmp_path):
    with criterion(10, "attribute --format csv re-parses to the in-memory rationals"):
        fixtures = [
            (make_distinct(5), "top50"),
            (make_distinct(8), "pr6"),
        ]
        for documents, scheme_name in fixtures:
            path = tmp_path / f"{scheme_name}.csv"
            path.write_text(
                "id,citations\n"
                + "".join(f"{r.doc_id},{r.citations}\n" for r in documents.records)
            )
            out = run_cli(
                ["attribute", "--scheme", scheme_name, "--input", str(path),
                 "--format", "csv"]
            )
            scheme = builtin_scheme(scheme_name)
            ranked = rank(documents)
            intervals = intervals_by_id(ranked)
            attributions = by_id(attribute_all(ranked, scheme, FRAC))
            for row in csv.DictReader(io.StringIO(out)):
                interval = intervals[row["id"]]
                assert F(row["interval_low"]) == interval.low
                assert F(row["interval_high"]) == interval.high
                expected = attributions[row["id"]]
                assert F(row["score"]) == per_doc_score(expected, scheme)
                for index, fraction in enumerate(expected.fractions, start=1):
                    assert F(row[f"f_{index}"]) == fraction
