"""Shared test helpers: reference oracles and random generators."""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from pctrank import (
    POINT_RULES,
    CitationRecord,
    CountingRule,
    DocumentSet,
    MidpointRoute,
    PRScheme,
    RankedSet,
    RoundingMode,
    fractional_attribution,
    per_doc_score,
    point_attribution,
    scheme_from_boundaries,
    scheme_to_document,
)
from pctrank.io import decimal_str, interval_percent_str, percent_str


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


def attribute_each(ranked: RankedSet, scheme: PRScheme, rule: CountingRule, **options):
    """Reference for attribute_all: every document attributed on its own,
    in rank order, through the per-document functions."""
    if rule is CountingRule.FRACTIONAL:
        return [
            fractional_attribution(doc_id, ranked, scheme)
            for doc_id in ranked.doc_ids_in_rank_order()
        ]
    return [
        point_attribution(doc_id, ranked, scheme, rule, **options)
        for doc_id in ranked.doc_ids_in_rank_order()
    ]


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

def table_rows(header: list[str], rows: list[list[str]]) -> list[str]:
    """A table with one padded line per row, widths measured over every row."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip()]
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return lines


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
        interval = ranked.interval_of[a.doc_id]
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
        [f"# group={group_key} n={ranked.n} scheme={scheme.name} {meta}",
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
            f"# group={group_key} n={ranked.n} scheme={scheme.name}"
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
