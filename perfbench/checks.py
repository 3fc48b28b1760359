"""Output checks for every benchmark invocation.

The checks hold at any seed: they are derived from the generated records and
the benchmark's own scheme tables, never from the program's code. An output
that fails any of them counts as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

from workloads import Record, Scheme, Workload, by_group

POINT_RULES = ("count-worse", "count-worse-or-equal", "midpoint")
WARNING_RE = re.compile(r"pct: warning: (\d+) attributions? landed exactly on a class boundary")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def exact(text: str) -> Fraction:
    """Parse a machine-format rational, which must be canonical `p/q` or `p`."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise CheckFailed(f"not an exact rational: {text!r}") from None
    require(str(value) == text, f"rational not in canonical p/q form: {text!r}")
    return value


def table_cells(line: str) -> list[str]:
    return re.split(r" {2,}", line.strip())


class Expected:
    """What the outputs of one workload input must agree with."""

    def __init__(self, workload: Workload, records: list[Record]):
        self.workload = workload
        self.scheme: Scheme = workload.scheme
        self.groups = by_group(records)
        self.citations = {r.doc_id: r.citations for r in records}
        # (group, citations) -> exact quantile interval of that tie group
        self.interval: dict[tuple[str, int], tuple[Fraction, Fraction]] = {}
        for key, members in self.groups.items():
            n = len(members)
            ordered = sorted(r.citations for r in members)
            low = 0
            for i, value in enumerate(ordered):
                if i + 1 == n or ordered[i + 1] != value:
                    self.interval[key, value] = (Fraction(low, n), Fraction(i + 1, n))
                    low = i + 1

    def n(self, key: str) -> int:
        return len(self.groups[key])

    def check_interval(self, key: str, doc_id: str, low: Fraction, high: Fraction) -> None:
        require(doc_id in self.citations, f"unknown document id {doc_id!r}")
        want = self.interval[key, self.citations[doc_id]]
        require((low, high) == want, f"{doc_id}: interval [{low}, {high}], expected {list(map(str, want))}")

    def check_group_keys(self, keys: list[str]) -> None:
        require(keys == list(self.groups), f"groups {keys[:5]}... do not match the input's groups")

    def point(self, key: str, doc_id: str, rule: str, command: str) -> tuple[Fraction, Fraction, int, bool]:
        """A point rule's exact quantile, the value it classifies (after the
        command's rounding), its class under the 'lower' policy, and whether
        that value sits on an interior boundary."""
        args = self.workload.extra_args.get(command, ())
        rounding, route = option(args, "--rounding", "none"), option(args, "--midpoint-route", "exact")
        low, high = self.interval[key, self.citations[doc_id]]
        quantile = {"count-worse": low, "count-worse-or-equal": high, "midpoint": (low + high) / 2}[rule]
        classified = quantile
        if rounding != "none":
            if rule == "midpoint" and route == "endpoints":
                middle = Fraction(to_percentile(low, rounding) + to_percentile(high, rounding), 200)
                classified = Fraction(to_percentile(middle, rounding), 100)
            else:
                classified = Fraction(to_percentile(quantile, rounding), 100)
        cls, ambiguous = self.scheme.point_class(classified)
        return quantile, classified, cls, ambiguous

    def rank_order(self, key: str) -> list[str]:
        return [r.doc_id for r in sorted(self.groups[key], key=lambda r: (r.citations, r.doc_id))]

    def rule_comparison(self, key: str) -> tuple[list[tuple], list[tuple]]:
        """The flags (rule, id, quantile, boundary) and disagreements
        (id, classes per rule) that `report` must list for one group."""
        points = {rule: {doc_id: self.point(key, doc_id, rule, "report") for doc_id in self.rank_order(key)}
                  for rule in POINT_RULES}
        flags = [
            (rule, doc_id, p[0], p[1])
            for rule in POINT_RULES
            for doc_id, p in points[rule].items()
            if p[3]
        ]
        disagreements = []
        for doc_id in self.rank_order(key):
            classes = tuple(points[rule][doc_id][2] for rule in POINT_RULES)
            if len(set(classes)) > 1:
                disagreements.append((doc_id, classes))
        return flags, disagreements

    def check_rule_comparison(self, key: str, flags: list[tuple], disagreements: list[tuple]) -> None:
        want_flags, want_disagreements = self.rule_comparison(key)
        require(flags == want_flags, f"group {key}: {len(flags)} boundary flags, expected {len(want_flags)}"
                                     " or different ones")
        require(disagreements == want_disagreements,
                f"group {key}: {len(disagreements)} disagreements, expected {len(want_disagreements)}"
                " or different ones")


def option(args: tuple[str, ...], flag: str, default: str) -> str:
    return args[args.index(flag) + 1] if flag in args else default


def to_percentile(q: Fraction, rounding: str) -> int:
    scaled = 100 * q
    if rounding == "floor":
        return math.floor(scaled)
    if rounding == "ceil":
        return math.ceil(scaled)
    require(rounding == "half-up", f"unknown rounding {rounding!r}")
    return math.floor(scaled + Fraction(1, 2))


def check_fractions(expected: Expected, doc_id: str, fractions: list[Fraction], score: Fraction) -> None:
    scheme = expected.scheme
    require(len(fractions) == scheme.k, f"{doc_id}: {len(fractions)} fractions for {scheme.k} classes")
    require(sum(fractions) == 1, f"{doc_id}: fractions sum to {sum(fractions)}, not 1")
    require(
        score == sum(f * w for f, w in zip(fractions, scheme.weights)),
        f"{doc_id}: score {score} is not the fraction-weighted class weight",
    )


def check_fractional_counts(expected: Expected, key: str, counts: list[Fraction]) -> None:
    n = expected.n(key)
    require(sum(counts) == n, f"group {key}: fractional class counts sum to {sum(counts)}, not {n}")
    # Tie-group intervals tile [0, 1], so class k always receives n * width_k.
    require(
        counts == [n * width for width in expected.scheme.widths],
        f"group {key}: fractional class counts differ from n * class width",
    )


def check_indicator_row(expected: Expected, key: str, n: int, i3: Fraction, r: Fraction,
                        pp: Fraction | None, theoretical: Fraction, difference: Fraction,
                        rule: str) -> None:
    scheme = expected.scheme
    require(n == expected.n(key), f"group {key}: n={n}, expected {expected.n(key)}")
    require(theoretical == scheme.theoretical_total(n), f"group {key}: theoretical total {theoretical}")
    require(difference == i3 - theoretical, f"group {key}: difference {difference} != i3 - theoretical")
    require(r == i3 / n, f"group {key}: r {r} != i3 / n")
    if rule == "fractional":
        require(i3 == theoretical, f"group {key}: fractional I3 {i3} != theoretical {theoretical}")
    else:
        points = [expected.point(key, doc_id, rule, "indicators") for doc_id in expected.rank_order(key)]
        want = sum((scheme.weights[p[2] - 1] for p in points), Fraction(0))
        require(i3 == want, f"group {key}: {rule} I3 {i3}, expected {want}")
    if scheme.weights == (0, 1):
        # With weights 0 and 1, I3 counts the top class, so PP is I3 / n.
        require(pp == i3 / n, f"group {key}: pp {pp} != i3 / n")
    elif scheme.k != 2:
        require(pp is None, f"group {key}: pp given for a {scheme.k}-class scheme")


# --- csv ------------------------------------------------------------------

def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows), "empty csv output")
    return rows[0], rows[1:]


def check_attribute_csv(expected: Expected, text: str, stderr: str) -> None:
    header, rows = _csv_rows(text)
    k = expected.scheme.k
    want = ["id", "citations", "group", "interval_low", "interval_high", "score"]
    require(header == want + [f"f_{i}" for i in range(1, k + 1)], "unexpected attribute csv header")
    seen: dict[str, int] = {}
    scores: dict[str, Fraction] = {}
    for row in rows:
        require(len(row) == len(header), f"csv row with {len(row)} cells")
        doc_id, citations, key = row[0], int(row[1]), row[2]
        require(expected.citations.get(doc_id) == citations, f"{doc_id}: citations {citations}")
        expected.check_interval(key, doc_id, exact(row[3]), exact(row[4]))
        score = exact(row[5])
        check_fractions(expected, doc_id, [exact(c) for c in row[6:]], score)
        seen[key] = seen.get(key, 0) + 1
        scores[key] = scores.get(key, Fraction(0)) + score
    expected.check_group_keys(list(seen))
    for key, count in seen.items():
        require(count == expected.n(key), f"group {key}: {count} rows, expected {expected.n(key)}")
        total = expected.scheme.theoretical_total(count)
        require(scores[key] == total, f"group {key}: scores sum to {scores[key]}, not {total}")


def check_indicators_csv(expected: Expected, text: str, stderr: str) -> None:
    header, rows = _csv_rows(text)
    require(
        header == ["group", "n", "scheme", "rule", "i3", "r", "pp", "theoretical", "difference"],
        "unexpected indicators csv header",
    )
    expected.check_group_keys([row[0] for row in rows])
    for row in rows:
        require(row[2] == expected.scheme.name, f"scheme {row[2]!r}")
        check_indicator_row(
            expected, row[0], int(row[1]), exact(row[4]), exact(row[5]),
            exact(row[6]) if row[6] else None, exact(row[7]), exact(row[8]), row[3],
        )


def check_report_csv(expected: Expected, text: str, stderr: str) -> None:
    header, rows = _csv_rows(text)
    require(header[:4] == ["group", "record", "rule", "id"] and len(header) == 13,
            "unexpected report csv header")
    counts: dict[str, list[Fraction]] = {}
    flags: dict[str, list[tuple]] = {key: [] for key in expected.groups}
    disagreements: dict[str, list[tuple]] = {key: [] for key in expected.groups}
    for row in rows:
        require(len(row) == 13, f"csv row with {len(row)} cells")
        key, record = row[0], row[1]
        require(key in expected.groups, f"unknown group {key!r}")
        if record == "flag":
            expected.check_interval(key, row[3], exact(row[4]), exact(row[5]))
            flags[key].append((row[2], row[3], exact(row[6]), exact(row[7])))
        elif record == "disagreement":
            disagreements[key].append((row[3], tuple(int(c) for c in row[8:11])))
        else:
            require(record == "fractional_count", f"unknown record type {record!r}")
            require(int(row[11]) == len(counts.get(key, [])) + 1, f"group {key}: class index {row[11]}")
            counts.setdefault(key, []).append(exact(row[12]))
    expected.check_group_keys(list(counts))
    for key, values in counts.items():
        expected.check_rule_comparison(key, flags[key], disagreements[key])
        check_fractional_counts(expected, key, values)


# --- json -----------------------------------------------------------------

def check_json_scheme(expected: Expected, doc: dict) -> None:
    scheme = doc.get("scheme") or {}
    require(scheme.get("name") == expected.scheme.name, f"json scheme name {scheme.get('name')!r}")
    require([exact(b) for b in scheme.get("boundaries", [])] == list(expected.scheme.boundaries),
            "json scheme boundaries differ")
    require([exact(w) for w in scheme.get("weights", [])] == list(expected.scheme.weights),
            "json scheme weights differ")


def check_attribute_json(expected: Expected, text: str, stderr: str) -> None:
    doc = json.loads(text)
    require(doc.get("command") == "attribute", "json command is not attribute")
    check_json_scheme(expected, doc)
    groups = doc["groups"]
    expected.check_group_keys([g["group"] for g in groups])
    for group in groups:
        key = group["group"]
        require(group["n"] == expected.n(key) == len(group["documents"]), f"group {key}: n {group['n']}")
        total = Fraction(0)
        for entry in group["documents"]:
            doc_id = entry["id"]
            require(expected.citations.get(doc_id) == entry["citations"], f"{doc_id}: citations")
            expected.check_interval(key, doc_id, exact(entry["interval"]["low"]), exact(entry["interval"]["high"]))
            score = exact(entry["score"])
            check_fractions(expected, doc_id, [exact(f) for f in entry["fractions"]], score)
            total += score
        theoretical = expected.scheme.theoretical_total(group["n"])
        require(total == theoretical, f"group {key}: scores sum to {total}, not {theoretical}")


def check_indicators_json(expected: Expected, text: str, stderr: str) -> None:
    doc = json.loads(text)
    require(doc.get("command") == "indicators", "json command is not indicators")
    check_json_scheme(expected, doc)
    expected.check_group_keys([g["group"] for g in doc["groups"]])
    for g in doc["groups"]:
        check_indicator_row(
            expected, g["group"], g["n"], exact(g["i3"]), exact(g["r"]),
            None if g["pp"] is None else exact(g["pp"]),
            exact(g["theoretical"]), exact(g["difference"]), doc["rule"],
        )


def check_report_json(expected: Expected, text: str, stderr: str) -> None:
    doc = json.loads(text)
    require(doc.get("command") == "report", "json command is not report")
    check_json_scheme(expected, doc)
    expected.check_group_keys([g["group"] for g in doc["groups"]])
    for g in doc["groups"]:
        key = g["group"]
        require(g["n"] == expected.n(key), f"group {key}: n {g['n']}")
        for flag in g["flags"]:
            expected.check_interval(key, flag["id"], exact(flag["interval"]["low"]), exact(flag["interval"]["high"]))
        expected.check_rule_comparison(
            key,
            [(f["rule"], f["id"], exact(f["quantile"]), exact(f["boundary"])) for f in g["flags"]],
            [(d["id"], tuple(d["classes"][rule] for rule in POINT_RULES)) for d in g["disagreements"]],
        )
        check_fractional_counts(expected, key, [exact(c) for c in g["fractional_class_counts"]])
        summary = g["summary"]
        for rule in POINT_RULES:
            rows = sum(1 for flag in g["flags"] if flag["rule"] == rule)
            require(summary["flag_counts"][rule] == rows,
                    f"group {key}: summary says {summary['flag_counts'][rule]} {rule} flags, rows say {rows}")
        require(summary["disagreements"] == len(g["disagreements"]), f"group {key}: disagreement count")


# --- table ----------------------------------------------------------------

def _sections(text: str) -> list[list[str]]:
    require(text.endswith("\n"), "table output does not end with a newline")
    return [section.split("\n") for section in text[:-1].split("\n\n")]


def _meta(line: str) -> dict[str, str]:
    require(line.startswith("# "), f"missing section header, got {line[:40]!r}")
    return dict(part.split("=", 1) for part in line[2:].split())


def _warned(stderr: str) -> int:
    match = WARNING_RE.search(stderr)
    return int(match.group(1)) if match else 0


def check_attribute_table(expected: Expected, text: str, stderr: str) -> None:
    hits = 0
    keys = []
    for lines in _sections(text):
        meta = _meta(lines[0])
        key = meta["group"]
        keys.append(key)
        require(meta["scheme"] == expected.scheme.name, f"section scheme {meta['scheme']!r}")
        require(int(meta["n"]) == expected.n(key) == len(lines) - 3, f"group {key}: row count")
        require(table_cells(lines[1])[0] == "id" and set(lines[2]) <= {"-", " "}, "table header")
        rows = [table_cells(line) for line in lines[3:]]
        require([cells[0] for cells in rows] == expected.rank_order(key), f"group {key}: rows not in rank order")
        for cells in rows:
            require(len(cells) in (10, 11), f"table row with {len(cells)} cells: {cells!r}")
            low, high = cells[2].strip("[]").split(", ")
            expected.check_interval(key, cells[0], exact(low), exact(high))
            quantile, classified, cls, ambiguous = expected.point(key, cells[0], meta["rule"], "attribute")
            require(exact(cells[4].split(" ")[0]) == quantile, f"{cells[0]}: quantile {cells[4]}")
            require(int(cells[7]) == cls, f"{cells[0]}: class {cells[7]}, expected {cls}")
            require(Fraction(cells[8]) == expected.scheme.weights[cls - 1], f"{cells[0]}: weight")
            require((cells[9] == "true") == ambiguous, f"{cells[0]}: ambiguous flag {cells[9]}")
            require(cells[10:] == ([str(classified)] if ambiguous else []), f"{cells[0]}: boundary column")
            hits += ambiguous
    expected.check_group_keys(keys)
    require(_warned(stderr) == hits, f"stderr warns of {_warned(stderr)} boundary hits, table shows {hits}")


def check_indicators_table(expected: Expected, text: str, stderr: str) -> None:
    lines = text.rstrip("\n").split("\n")
    meta = _meta(lines[0])
    require(meta["scheme"] == expected.scheme.name, f"scheme {meta['scheme']!r}")
    rows = [table_cells(line) for line in lines[3:]]
    expected.check_group_keys([row[0] for row in rows])
    hits = 0
    for row in rows:
        key = row[0]
        values = [exact(cell.split(" ")[0]) for cell in (row[2], row[3], row[4], row[5])]
        check_indicator_row(expected, key, int(row[1]), values[0], values[1], values[2],
                            values[3], exact(row[6]), meta["rule"])
        if meta["rule"] != "fractional":
            hits += sum(expected.point(key, doc_id, meta["rule"], "indicators")[3]
                        for doc_id in expected.rank_order(key))
    require(_warned(stderr) == hits, f"stderr warns of {_warned(stderr)} boundary hits, expected {hits}")


SUMMARY_RE = re.compile(
    r"summary: flags \[count-worse=(\d+), count-worse-or-equal=(\d+), midpoint=(\d+)\], disagreements (\d+)$"
)


def check_report_table(expected: Expected, text: str, stderr: str) -> None:
    keys = []
    for lines in _sections(text):
        key = _meta(lines[0])["group"]
        keys.append(key)
        require(lines[1] == "boundary hits:", f"group {key}: no boundary hit table")
        at = lines.index("class disagreements:")
        flags = [table_cells(line) for line in lines[4:at]] if lines[2] != "  none" else []
        disagreements = (
            [table_cells(line) for line in lines[at + 3:-2]] if lines[at + 1] != "  none" else []
        )
        for cells in flags:
            low, high = cells[2].strip("[]").split(", ")
            expected.check_interval(key, cells[1], exact(low), exact(high))
        expected.check_rule_comparison(
            key,
            [(cells[0], cells[1], exact(cells[4]), exact(cells[5])) for cells in flags],
            [(cells[0], tuple(int(c) for c in cells[1:4])) for cells in disagreements],
        )
        require(lines[-2].startswith("fractional class counts: "), f"group {key}: no class counts")
        counts = [exact(c) for c in lines[-2][len("fractional class counts: "):].split(", ")]
        check_fractional_counts(expected, key, counts)
        match = SUMMARY_RE.match(lines[-1])
        require(match is not None, f"group {key}: unreadable summary line")
        for rule, value in zip(POINT_RULES, match.groups()):
            rows = sum(1 for cells in flags if cells[0] == rule)
            require(int(value) == rows, f"group {key}: summary says {value} {rule} flags, rows say {rows}")
        require(int(match.group(4)) == len(disagreements), f"group {key}: disagreement count")
    expected.check_group_keys(keys)


CHECKERS = {
    ("attribute", "csv"): check_attribute_csv,
    ("indicators", "csv"): check_indicators_csv,
    ("report", "csv"): check_report_csv,
    ("attribute", "json"): check_attribute_json,
    ("indicators", "json"): check_indicators_json,
    ("report", "json"): check_report_json,
    ("attribute", "table"): check_attribute_table,
    ("indicators", "table"): check_indicators_table,
    ("report", "table"): check_report_table,
}


def check_output(expected: Expected, command: str, returncode: int, stdout: bytes, stderr: str) -> str | None:
    """None when the invocation's output passes every check, else the first failure."""
    try:
        require(returncode == 0, f"exit code {returncode}: {stderr.strip()[-300:]}")
        text = stdout.decode("utf-8")
        if command == "schemes":
            require(text == expected.scheme.csv_text(), "schemes csv differs from the scheme table")
        else:
            CHECKERS[command, expected.workload.fmt](expected, text, stderr)
    except CheckFailed as exc:
        return f"{command}: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, UnicodeDecodeError) as exc:
        return f"{command}: malformed output ({type(exc).__name__}: {exc})"
    return None
