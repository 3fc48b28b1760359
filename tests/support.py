"""Shared test helpers: reference oracles and random generators."""

from __future__ import annotations

import csv
import io
import json
import math
import random
import unicodedata
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from types import ModuleType
from typing import NamedTuple

import pctrank
from pctrank import (
    BoundaryAmbiguityError,
    BoundaryPolicy,
    CitationRecord,
    ClassCounts,
    CountingRule,
    DocumentSet,
    FractionalAttribution,
    MidpointRoute,
    PointAttribution,
    PRScheme,
    QuantileInterval,
    RankedSet,
    RoundingMode,
    SchemeError,
    TieGroup,
    interval_for,
)
from pctrank.io import decimal_str, interval_percent_str, percent_str
from pctrank.model import scheme_from_boundaries, scheme_to_document
from pctrank.scoring import POINT_RULES


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


# ---------------------------------------------------------------------------
# The per-document reference path: every document's own quantile interval,
# classified or spread over the classes in plain Fraction arithmetic. The
# package decides each tie group once on an integer grid (scoring._points,
# scoring._fractions); these functions share none of that code, so comparing
# the two means something.

def tie_groups_oracle(document_set: DocumentSet) -> tuple[TieGroup, ...]:
    """Reference tie groups: itertools.groupby over the sorted (citations, id)
    pairs, with each group's rank span counted from the sizes before it."""
    pairs = sorted((record.citations, record.doc_id) for record in document_set.records)
    groups, below = [], 0
    for citations, members in groupby(pairs, key=itemgetter(0)):
        ids = tuple(doc_id for _, doc_id in members)
        groups.append(TieGroup(citations, ids, below + 1, below + len(ids)))
        below += len(ids)
    return tuple(groups)


def ids_in_rank_order(ranked: RankedSet) -> list[str]:
    """Ascending by citations, ids sorted inside each tie group."""
    return [*intervals_by_id(ranked)]


@lru_cache(maxsize=16)
def intervals_by_id(ranked: RankedSet) -> dict[str, QuantileInterval]:
    """Each document's quantile interval, in rank order (ids sorted inside
    each tie group), from the oracle's tie groups, not the package's; the
    members of a tie group share one interval object. Kept for the last few
    ranked sets, so looking up one document at a time stays cheap."""
    intervals: dict[str, QuantileInterval] = {}
    for group in tie_groups_oracle(ranked.source):
        intervals.update(dict.fromkeys(group.member_ids, interval_for(group, ranked.n)))
    return intervals


def _interval(ranked: RankedSet, doc_id: str) -> QuantileInterval:
    try:
        return intervals_by_id(ranked)[doc_id]
    except KeyError:
        raise KeyError(f"unknown document id {doc_id!r}") from None


class PointClassification(NamedTuple):
    class_index: int
    ambiguous: bool
    boundary_hit: Fraction | None


def _rule_point(interval: QuantileInterval, rule: CountingRule) -> Fraction:
    if rule is CountingRule.COUNT_WORSE:
        return interval.low
    if rule is CountingRule.COUNT_WORSE_OR_EQUAL:
        return interval.high
    if rule is CountingRule.MIDPOINT:
        return (interval.low + interval.high) / 2
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


def _point(
    doc_id: str,
    interval: QuantileInterval,
    scheme: PRScheme,
    rule: CountingRule,
    rounding: RoundingMode = RoundingMode.NONE,
    policy: BoundaryPolicy = BoundaryPolicy.ERROR,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
) -> PointAttribution:
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
    return PointAttribution(
        doc_id, quantile, percentile, decision.class_index, decision.ambiguous,
        decision.boundary_hit, endpoint_percentiles,
    )


def _fractional(
    doc_id: str, interval: QuantileInterval, scheme: PRScheme
) -> FractionalAttribution:
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
    return FractionalAttribution(doc_id, tuple(fractions))


def point_attribution(
    doc_id: str, ranked: RankedSet, scheme: PRScheme, rule: CountingRule, **options
) -> PointAttribution:
    """Classify one document under a point rule.

    With an integer rounding mode, the rounded percentile is what gets
    classified (so the ambiguity flag tracks the rounded value). The endpoints
    route, which applies to the midpoint rule only, first rounds both interval
    ends to percentiles and then rounds their middle the same way.
    """
    return _point(doc_id, _interval(ranked, doc_id), scheme, rule, **options)


def fractional_attribution(
    doc_id: str, ranked: RankedSet, scheme: PRScheme
) -> FractionalAttribution:
    """Spread a document over the classes its quantile interval overlaps.

    Each class receives overlap length divided by interval width. Rounding
    modes and boundary policies play no part: a shared endpoint has zero
    length, so nothing is ever ambiguous and the fractions sum to exactly 1.
    """
    return _fractional(doc_id, _interval(ranked, doc_id), scheme)


class _References:
    """attribute_each's results for one case, a ranked set and a scheme, by
    rule and options. It holds the case itself, so that no other case can
    take its place by identity, and forgets every result when the case
    changes: the tests of one case run one after another."""

    case: tuple[RankedSet, PRScheme] | None = None
    results: dict[tuple, list] = {}


def attribute_each(ranked: RankedSet, scheme: PRScheme, rule: CountingRule, **options):
    """Reference for attribute_all: every document attributed on its own,
    in rank order, from its own interval. Each result is computed once per
    case and rule and options; a call gets its own copy of the list."""
    case = _References.case
    if case is None or case[0] is not ranked or case[1] is not scheme:
        _References.case, _References.results = (ranked, scheme), {}
    key = (rule, *sorted(options.items()))
    if key not in _References.results:
        intervals = intervals_by_id(ranked).items()
        if rule is CountingRule.FRACTIONAL:
            result = [_fractional(doc_id, interval, scheme) for doc_id, interval in intervals]
        else:
            result = [_point(doc_id, interval, scheme, rule, **options)
                      for doc_id, interval in intervals]
        _References.results[key] = result
    return [*_References.results[key]]


# ---------------------------------------------------------------------------
# The indicators from class counts, the slow way. compute_indicators takes
# them from a closed form (fractional) or from integer tallies (point rules).

def i3(counts: ClassCounts) -> Fraction:
    """Weighted sum of the class counts."""
    return sum(
        (cls.weight * count for cls, count in zip(counts.scheme.classes, counts.counts)),
        start=Fraction(0),
    )


def per_doc_score(attribution, scheme: PRScheme) -> Fraction:
    """One document's contribution to I3: its class weight, or the
    fraction-weighted sum of weights under the fractional rule. The package
    takes a tie group's fractional score from the integer grid
    (scoring._fractional_score)."""
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


def r_indicator(i3_value: Fraction, n: int) -> Fraction:
    """Size-independent indicator: I3 divided by the number of documents."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Fraction(i3_value) / n


def pp_top(counts: ClassCounts, n: int) -> Fraction:
    """Share of total document mass sitting in the top class of a 2-class scheme."""
    if counts.scheme.k != 2:
        raise SchemeError("pp_top needs a 2-class scheme such as top50 or topx")
    if n < 1:
        raise ValueError("n must be at least 1")
    return counts.counts[-1] / n


def package_names() -> set[str]:
    """The public names `import pctrank` binds, submodules aside."""
    return {
        name for name, value in vars(pctrank).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


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


# ---------------------------------------------------------------------------
# Reference renderers: one row or object per document, each formatted from
# that document's own attribution or record. The package renders per tie
# group; these are what its output must equal byte for byte.

def shown(text: str) -> str:
    """text as a table shows it: each character that is not printable as its
    repr escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def columns(text: str) -> int:
    """The terminal columns text takes, character by character: 2 for East
    Asian Width W or F, 0 for a nonspacing or enclosing mark or a format
    character, 1 for any other: so an ASCII text takes its length."""
    if text.isascii():
        return len(text)
    total = 0
    for c in text:
        if unicodedata.east_asian_width(c) in ("W", "F"):
            total += 2
        elif unicodedata.category(c) not in ("Mn", "Me", "Cf"):
            total += 1
    return total


def table_rows(header: list[str], rows: list[list[str]]) -> list[str]:
    """A table with one padded line per row, widths measured in terminal
    columns over every row of shown cells."""
    rows = [[*map(shown, row)] for row in rows]
    widths = [
        max(columns(header[i]), *(columns(row[i]) for row in rows)) if rows
        else columns(header[i])
        for i in range(len(header))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(
            cell + " " * (width - columns(cell)) for cell, width in zip(cells, widths)
        ).rstrip()

    return [line(header), "  ".join("-" * width for width in widths),
            *(line(row) for row in rows)]


def csv_rows(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _sections(sections) -> str:
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def _envelope(command: str, scheme: PRScheme, **fields) -> dict:
    return {"schema_version": "1", "command": command,
            "scheme": scheme_to_document(scheme), **fields}


def render_attributions_per_document(
    batches, scheme: PRScheme, rule: CountingRule, *,
    rounding=RoundingMode.NONE, policy=None, midpoint_route=MidpointRoute.EXACT,
    fmt="table", precision=4,
) -> str:
    """render_attributions, one row or JSON object per attribution."""
    fractional = rule is CountingRule.FRACTIONAL
    endpoints = rule is CountingRule.MIDPOINT and midpoint_route is MidpointRoute.ENDPOINTS

    def values(a, ranked, citations):
        """(citations, low, high, and the rule's own values) of one document."""
        interval = intervals_by_id(ranked)[a.doc_id]
        out = {"citations": citations[a.doc_id], "low": interval.low, "high": interval.high}
        if fractional:
            out.update(score=per_doc_score(a, scheme), fractions=a.fractions)
        else:
            percentile = a.quantile * 100 if a.percentile is None else Fraction(a.percentile)
            out.update(quantile=a.quantile, percentile=percentile, rounded=a.percentile,
                       cls=a.class_index, weight=scheme.classes[a.class_index - 1].weight,
                       ambiguous=a.ambiguous, boundary=a.boundary_hit,
                       endpoints=a.endpoint_percentiles)
        return out

    def documents(ranked, attributions):
        citations = {record.doc_id: record.citations for record in ranked.source.records}
        return [(a.doc_id, values(a, ranked, citations)) for a in attributions]

    def csv_row(group_key, doc_id, v):
        row = [doc_id, str(v["citations"]), group_key, str(v["low"]), str(v["high"])]
        if fractional:
            return row + [str(v["score"]), *(str(f) for f in v["fractions"])]
        row += [str(v["quantile"]), str(v["percentile"])]
        if endpoints:
            pair = v["endpoints"]
            row.append("" if pair is None else f"{pair[0]}/{pair[1]}")
        boundary = "" if v["boundary"] is None else str(v["boundary"])
        return row + [str(v["cls"]), str(v["weight"]), str(v["ambiguous"]).lower(), boundary]

    def table_row(doc_id, v):
        row = [doc_id, str(v["citations"]), f"[{v['low']}, {v['high']}]",
               interval_percent_str(v["low"], v["high"])]
        if fractional:
            score = v["score"]
            return row + [f"{score} ({decimal_str(score, precision)})",
                          *(str(f) for f in v["fractions"])]
        row += [f"{v['quantile']} ({percent_str(v['quantile'])})",
                decimal_str(v["percentile"], precision) if v["rounded"] is None
                else str(v["rounded"])]
        if endpoints:
            pair = v["endpoints"]
            row.append("" if pair is None else f"{pair[0]}/{pair[1]}")
        boundary = "" if v["boundary"] is None else str(v["boundary"])
        return row + [str(v["cls"]), str(v["weight"]), str(v["ambiguous"]).lower(), boundary]

    def json_document(doc_id, v):
        document = {"id": doc_id, "citations": v["citations"],
                    "interval": {"low": str(v["low"]), "high": str(v["high"])}}
        if fractional:
            document.update(score=str(v["score"]), fractions=[str(f) for f in v["fractions"]])
            return document
        document.update({
            "quantile": str(v["quantile"]), "percentile": str(v["percentile"]),
            "class": v["cls"], "weight": str(v["weight"]), "ambiguous": v["ambiguous"],
            "boundary": None if v["boundary"] is None else str(v["boundary"]),
        })
        if endpoints:
            pair = v["endpoints"]
            document["endpoint_percentiles"] = None if pair is None else list(pair)
        return document

    settings = {"rule": rule.value}
    if not fractional:
        settings.update(rounding=rounding.value, midpoint_route=midpoint_route.value)
    shown_policy = {} if fractional or policy is None else {"boundary_policy": policy.value}
    if fmt == "json":
        groups = [
            {"group": group_key, "n": ranked.n,
             "documents": [json_document(*d) for d in documents(ranked, attributions)]}
            for group_key, ranked, attributions in batches
        ]
        payload = _envelope("attribute", scheme, **settings, groups=groups, **shown_policy)
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        header = ["id", "citations", "group", "interval_low", "interval_high"]
    else:
        header = ["id", "citations", "interval", "percent"]
    if fractional:
        header += ["score"] + [f"f_{i}" for i in range(1, scheme.k + 1)]
    else:
        header += ["quantile", "percentile", *(["endpoint_pcts"] if endpoints else []),
                   "class", "weight", "ambiguous", "boundary"]
    if fmt == "csv":
        return csv_rows(header, [
            csv_row(group_key, *d)
            for group_key, ranked, attributions in batches
            for d in documents(ranked, attributions)
        ])
    meta = f"rule={rule.value}"
    if not fractional:
        meta += f" rounding={rounding.value} route={midpoint_route.value}"
    if shown_policy:
        meta += f" boundary={policy.value}"
    return _sections(
        [f"# group={shown(group_key)} n={ranked.n} scheme={shown(scheme.name)} {meta}",
         *table_rows(header, [table_row(*d) for d in documents(ranked, attributions)])]
        for group_key, ranked, attributions in batches
    )


REPORT_COLUMNS = [
    "group", "record", "rule", "id", "interval_low", "interval_high", "quantile", "boundary",
    "class_count_worse", "class_count_worse_or_equal", "class_midpoint", "class_index", "count",
]


def render_report_per_document(
    batches, scheme: PRScheme, *,
    rounding=RoundingMode.NONE, midpoint_route=MidpointRoute.EXACT, fmt="table",
) -> str:
    """render_report, one row or JSON object per member of each record."""
    def flags(report):
        return [(flag, doc_id) for flag in report.flags for doc_id in flag.member_ids]

    def disagreements(report):
        return [(d, doc_id) for d in report.disagreements for doc_id in d.member_ids]

    if fmt == "csv":
        rows = []
        for group_key, _, report in batches:
            rows += [
                [group_key, "flag", f.rule.value, doc_id, str(f.interval_low),
                 str(f.interval_high), str(f.quantile), str(f.boundary), "", "", "", "", ""]
                for f, doc_id in flags(report)
            ]
            rows += [
                [group_key, "disagreement", "", doc_id, "", "", "", "",
                 *(d.classes[rule] for rule in POINT_RULES), "", ""]
                for d, doc_id in disagreements(report)
            ]
            rows += [
                [group_key, "fractional_count", *[""] * 9, i, count]
                for i, count in enumerate(report.fractional_counts.counts, start=1)
            ]
        return csv_rows(REPORT_COLUMNS, rows)
    if fmt == "json":
        groups = []
        for group_key, ranked, report in batches:
            flag_objects = [
                {"rule": f.rule.value, "id": doc_id, "quantile": str(f.quantile),
                 "boundary": str(f.boundary),
                 "interval": {"low": str(f.interval_low), "high": str(f.interval_high)}}
                for f, doc_id in flags(report)
            ]
            disagreement_objects = [
                {"id": doc_id, "classes": {rule.value: d.classes[rule] for rule in POINT_RULES}}
                for d, doc_id in disagreements(report)
            ]
            groups.append({
                "group": group_key, "n": ranked.n,
                "flags": flag_objects, "disagreements": disagreement_objects,
                "fractional_class_counts": [str(c) for c in report.fractional_counts.counts],
                "summary": {
                    "flag_counts": {rule.value: c for rule, c in report.flag_counts.items()},
                    "disagreements": len(disagreement_objects),
                },
            })
        payload = _envelope("report", scheme, rounding=rounding.value,
                            midpoint_route=midpoint_route.value, groups=groups)
        return json.dumps(payload, indent=2) + "\n"
    sections = []
    for group_key, ranked, report in batches:
        flag_rows = [
            [f.rule.value, doc_id, f"[{f.interval_low}, {f.interval_high}]",
             interval_percent_str(f.interval_low, f.interval_high),
             str(f.quantile), str(f.boundary)]
            for f, doc_id in flags(report)
        ]
        disagreement_rows = [
            [doc_id, *(str(d.classes[rule]) for rule in POINT_RULES)]
            for d, doc_id in disagreements(report)
        ]
        flag_summary = ", ".join(f"{rule.value}={c}" for rule, c in report.flag_counts.items())
        sections.append([
            f"# group={shown(group_key)} n={ranked.n} scheme={shown(scheme.name)}"
            f" rounding={rounding.value} route={midpoint_route.value}",
            "boundary hits:",
            *(table_rows(["rule", "id", "interval", "percent", "quantile", "boundary"],
                         flag_rows) if flag_rows else ["  none"]),
            "class disagreements:",
            *(table_rows(["id", *(rule.value for rule in POINT_RULES)], disagreement_rows)
              if disagreement_rows else ["  none"]),
            "fractional class counts: "
            + ", ".join(str(c) for c in report.fractional_counts.counts),
            f"summary: flags [{flag_summary}], disagreements {len(disagreement_rows)}",
        ])
    return _sections(sections)
