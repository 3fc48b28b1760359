"""Properties of `pct` as a whole, run in process through `main`.

A fuzz of the input and scheme readers: whatever the text, a command exits
with its code (0, or 2 for input and 3 for a scheme) and never with a
traceback. Three metamorphic properties of the paper's intervals
[(r_low - 1)/N, r_high/N] that need no oracle: coarsening pr100 into pr6,
replicating every document, and adding or removing a group, which leaves
every other group's output as it was. And the exact values that
`indicators` and `report` write as csv, read back, are the library's.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DocumentSet,
    MidpointRoute,
    RoundingMode,
    builtin_scheme,
    compare_rules,
    compute_indicators,
    main,
    rank,
    theoretical_total,
)
from pctrank.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK
from pctrank.scoring import POINT_RULES

FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
PROPERTY = settings(max_examples=25, deadline=None)

# Every decimal rendering is asked for explicitly, so PCT_PRECISION in the
# environment changes nothing here.
COMMANDS = [
    ["attribute", "--scheme", "pr6", "--precision", "4"],
    ["attribute", "--scheme", "topx=1/10", "--rule", "midpoint", "--rounding", "half-up",
     "--midpoint-route", "endpoints", "--precision", "4", "--format", "csv"],
    ["indicators", "--scheme", "top50", "--rule", "count-worse", "--precision", "4",
     "--format", "json"],
    ["report", "--scheme", "pr6", "--format", "json"],
]
SCHEME_COMMANDS = [
    ["schemes"],
    ["schemes", "--format", "json"],
    ["attribute", "--precision", "4", "--format", "csv"],
    ["indicators", "--precision", "4"],
    ["report", "--format", "csv"],
]

# pr6's classes as ranges of pr100 classes (1-based, inclusive).
PR6_IN_PR100 = [(1, 50), (51, 75), (76, 90), (91, 95), (96, 99), (100, 100)]


def pct(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `pct` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


def rewrite(path, data: str | bytes) -> None:
    """Write data to path as a new file. Each example writes the same few
    names again, and on ext4 truncating a file that holds data and writing
    it again waits about 50 ms for the old blocks to be flushed (the
    file system's replace-by-truncate heuristic); unlinking the old file
    first makes the write as cheap as a new file's."""
    path.unlink(missing_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")


# ---------------------------------------------------------------------------
# fuzz

CELL = st.text(st.sampled_from('0123456789 -+.,;\t"\'\n\r\x00ab﻿é{}[]:'), max_size=6)
HEADERS = st.sampled_from([
    "id,citations", "id,citations,group", "citations\tid", " ID , Citations ,group",
    "id,id,citations", "id", "", "﻿id,citations", "id,citations,extra",
])
DELIMITED = st.builds(
    lambda header, rows, delimiter, end: header + end + end.join(
        delimiter.join(row) for row in rows
    ) + end,
    HEADERS,
    st.lists(st.lists(CELL, min_size=1, max_size=4), max_size=8),
    st.sampled_from([",", "\t", ";"]),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["", " ", "\x00", "default", "-1", "01"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["id", "citations", "group", "documents", "x"]), children, max_size=4
    ),
    max_leaves=12,
)
INPUT_TEXT = st.one_of(st.text(max_size=60), DELIMITED, JSON_VALUES.map(json.dumps))


@FUZZ
@given(text=INPUT_TEXT, command=st.sampled_from(COMMANDS))
def test_any_input_text_exits_0_or_2(workdir, text, command):
    path = workdir / "input.txt"
    rewrite(path, text)
    code, out, err = pct([*command, "--input", str(path)])
    assert code in (EXIT_OK, EXIT_DATA), err
    assert (code == EXIT_OK) == bool(out)


@FUZZ
@given(data=st.binary(max_size=60), command=st.sampled_from(COMMANDS))
def test_any_input_bytes_exit_0_or_2(workdir, data, command):
    path = workdir / "input.bin"
    rewrite(path, data)
    code, out, err = pct([*command, "--input", str(path)])
    assert code in (EXIT_OK, EXIT_DATA), err


FRACTION_TEXT = st.from_regex(
    r"-?[0-9]{0,4}(/-?[0-9]{0,4}|\.[0-9]{0,3}|[eE]-?[0-9]{1,4})?", fullmatch=True
)
SCHEME_VALUE = st.one_of(
    FRACTION_TEXT, st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
    st.text(max_size=4), st.lists(st.integers(0, 1), max_size=2),
)
UNIT_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
SCHEME_DOCUMENTS = st.one_of(
    # Anything in the right shape.
    st.fixed_dictionaries(
        {"boundaries": st.lists(SCHEME_VALUE, max_size=6),
         "weights": st.lists(SCHEME_VALUE, max_size=5)},
        optional={"name": st.one_of(st.text(max_size=5), st.integers()), "x": st.none()},
    ),
    # Valid boundaries, arbitrary weights.
    st.builds(
        lambda cuts, weights: {
            "boundaries": ["0", *map(str, sorted(set(cuts) - {0, 1})), "1"],
            "weights": weights,
        },
        st.lists(UNIT_FRACTIONS, max_size=5),
        st.lists(st.one_of(FRACTION_TEXT, st.integers(-5, 5)), min_size=1, max_size=6),
    ),
)
SCHEME_TEXT = st.one_of(
    st.text(max_size=60), JSON_VALUES.map(json.dumps), SCHEME_DOCUMENTS.map(json.dumps)
)


@FUZZ
@given(text=SCHEME_TEXT, command=st.sampled_from(SCHEME_COMMANDS))
def test_any_scheme_file_exits_0_or_3(workdir, text, command):
    data = workdir / "tied.csv"
    rewrite(data, "id,citations,group\na,0,x\nb,0,x\nc,3,x\nd,1,y\ne,9,y\n")
    scheme = workdir / "scheme.json"
    rewrite(scheme, text)
    argv = [*command, "--scheme", f"custom={scheme}"]
    if command[0] != "schemes":
        argv += ["--input", str(data)]
    code, out, err = pct(argv)
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert (code == EXIT_OK) == bool(out)


# ---------------------------------------------------------------------------
# metamorphic properties

CITATIONS = st.lists(st.integers(0, 40), min_size=1, max_size=60)


def csv_input(workdir, rows: list[tuple[str, int]]) -> str:
    path = workdir / "rows.csv"
    rewrite(path, "id,citations\n" + "".join(f"{i},{c}\n" for i, c in rows))
    return str(path)


def csv_output(argv: list[str]) -> list[dict[str, str]]:
    code, out, err = pct([*argv, "--format", "csv"])
    assert code == EXIT_OK, err
    return list(csv.DictReader(io.StringIO(out)))


@PROPERTY
@given(citations=CITATIONS)
def test_pr100_fractions_coarsen_to_pr6(workdir, citations):
    """Summing a document's pr100 fractions over each pr6 class gives its
    pr6 fractions: pr6's boundaries are pr100 boundaries."""
    path = csv_input(workdir, [(f"d{i}", c) for i, c in enumerate(citations)])
    fine = {row["id"]: row for row in csv_output(["attribute", "--scheme", "pr100",
                                                  "--input", path])}
    coarse = csv_output(["attribute", "--scheme", "pr6", "--input", path])
    assert len(coarse) == len(fine) == len(citations)
    for row in coarse:
        summed = [
            sum(Fraction(fine[row["id"]][f"f_{i}"]) for i in range(first, last + 1))
            for first, last in PR6_IN_PR100
        ]
        assert summed == [Fraction(row[f"f_{j}"]) for j in range(1, 7)]


def class_mass(rows: list[dict[str, str]], k: int) -> list[Fraction]:
    """Per-class document mass of `attribute` csv rows."""
    if "class" in rows[0]:
        return [Fraction(sum(row["class"] == str(j) for row in rows)) for j in range(1, k + 1)]
    return [sum(Fraction(row[f"f_{j}"]) for row in rows) for j in range(1, k + 1)]


@PROPERTY
@given(
    citations=CITATIONS,
    m=st.integers(2, 4),
    scheme=st.sampled_from([("pr6", 6), ("topx=1/10", 2), ("pr100", 100)]),
    rule=st.sampled_from(["fractional", "count-worse", "count-worse-or-equal", "midpoint"]),
)
def test_replicating_every_document_scales_counts_only(workdir, citations, m, scheme, rule):
    """Repeating every document m times under fresh ids keeps every
    interval, fraction, point class and boundary hit, and R and PP; class
    counts, I3 and the theoretical value are multiplied by m."""
    selector, k = scheme
    options = ["--scheme", selector, "--rule", rule]
    rows = [(f"d{i}", c) for i, c in enumerate(citations)]
    once = csv_input(workdir, rows)
    once_attribute = csv_output(["attribute", *options, "--input", once])
    once_indicators = csv_output(["indicators", *options, "--input", once])
    copies = csv_input(workdir, [(f"{i}#{j}", c) for j in range(m) for i, c in rows])
    copies_attribute = csv_output(["attribute", *options, "--input", copies])
    copies_indicators = csv_output(["indicators", *options, "--input", copies])

    # Every cell but the id: interval, fractions and score, or the point
    # quantile, percentile, class, weight and boundary hit.
    def cells(row):
        return {key: value for key, value in row.items() if key != "id"}

    original = {row["id"]: cells(row) for row in once_attribute}
    assert len(copies_attribute) == m * len(original)
    for row in copies_attribute:
        assert cells(row) == original[row["id"].split("#")[0]]
    assert class_mass(copies_attribute, k) == [m * c for c in class_mass(once_attribute, k)]

    [before], [after] = once_indicators, copies_indicators
    assert (after["r"], after["pp"]) == (before["r"], before["pp"])
    assert int(after["n"]) == m * int(before["n"])
    for key in ("i3", "theoretical", "difference"):
        assert Fraction(after[key]) == m * Fraction(before[key])


GROUP_COMMANDS = [
    ["attribute", "--scheme", "pr6", "--precision", "4"],
    ["attribute", "--scheme", "topx=1/10", "--rule", "midpoint", "--rounding", "floor",
     "--midpoint-route", "endpoints", "--precision", "4"],
    ["attribute", "--scheme", "pr100", "--rule", "count-worse-or-equal", "--boundary", "upper",
     "--precision", "4"],
    ["indicators", "--scheme", "topx=1/10", "--rule", "count-worse", "--rounding", "half-up",
     "--precision", "4"],
    ["indicators", "--scheme", "pr6", "--precision", "4"],
    ["report", "--scheme", "pr6", "--rounding", "floor", "--midpoint-route", "endpoints"],
    ["report", "--scheme", "topx=1/10"],
]


def rows_by_group(argv: list[str]) -> dict[str, list[list[str]]]:
    """The csv rows of one run after the header, by their group column."""
    code, out, err = pct([*argv, "--format", "csv"])
    assert code == EXIT_OK, err
    reader = csv.reader(io.StringIO(out))
    column = next(reader).index("group")
    groups: dict[str, list[list[str]]] = {}
    for row in reader:
        groups.setdefault(row[column], []).append(row)
    return groups


@PROPERTY
@given(
    groups=st.lists(CITATIONS, min_size=2, max_size=4),
    dropped=st.integers(0, 3),
    argv=st.sampled_from(GROUP_COMMANDS),
)
def test_adding_or_removing_a_group_leaves_the_others_alone(workdir, groups, dropped, argv):
    """Each group is ranked and attributed on its own, so the rows of every
    other group read the same with or without one group. Groups are output
    in the order of their index, so the dropped one may come first, between
    the others or last."""
    dropped %= len(groups)
    rows = [(f"d{g}-{i}", c, f"g{g}") for g, citations in enumerate(groups)
            for i, c in enumerate(citations)]
    path = workdir / "groups.csv"
    rewrite(path, "id,citations,group\n" + "".join(f"{i},{c},{g}\n" for i, c, g in rows))
    every = rows_by_group([*argv, "--input", str(path)])
    rewrite(path, "id,citations,group\n" + "".join(
        f"{i},{c},{g}\n" for i, c, g in rows if g != f"g{dropped}"
    ))
    fewer = rows_by_group([*argv, "--input", str(path)])
    assert set(every) == {f"g{g}" for g in range(len(groups))}
    del every[f"g{dropped}"]
    assert fewer == every


# ---------------------------------------------------------------------------
# csv output read back

TIED_GROUPS = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=30), min_size=2, max_size=4
)
REPARSE_SCHEMES = ["pr6", "pr100", "topx=1/10"]


def ranked_groups(workdir, groups: list[list[int]]) -> tuple[str, dict]:
    """A grouped csv input of the citation lists, and each group's ranked
    set, built by the library from the same records."""
    records = [CitationRecord(f"d{g}-{i}", c, f"g{g}") for g, citations in enumerate(groups)
               for i, c in enumerate(citations)]
    path = workdir / "tied-groups.csv"
    rewrite(path, "id,citations,group\n" + "".join(f"{r.doc_id},{r.citations},{r.group}\n"
                                                    for r in records))
    return str(path), {
        f"g{g}": rank(DocumentSet([r for r in records if r.group == f"g{g}"]))
        for g in range(len(groups))
    }


@seed(20120415)
@PROPERTY
@given(
    groups=TIED_GROUPS,
    selector=st.sampled_from(REPARSE_SCHEMES),
    rounding=st.sampled_from(list(RoundingMode)),
    route=st.sampled_from(list(MidpointRoute)),
    policy=st.sampled_from([BoundaryPolicy.LOWER, BoundaryPolicy.UPPER]),
)
def test_indicators_csv_reads_back_as_compute_indicators(
    workdir, groups, selector, rounding, route, policy
):
    path, ranked_sets = ranked_groups(workdir, groups)
    scheme = builtin_scheme(selector)
    for rule in CountingRule:
        code, out, err = pct([
            "indicators", "--scheme", selector, "--rule", rule.value,
            "--rounding", rounding.value, "--midpoint-route", route.value,
            "--boundary", policy.value, "--precision", "4", "--input", path, "--format", "csv",
        ])
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["group"] for row in rows] == list(ranked_sets)
        for row in rows:
            ranked = ranked_sets[row["group"]]
            result = compute_indicators(
                ranked, scheme, rule, rounding=rounding, policy=policy, midpoint_route=route
            )
            theoretical = theoretical_total(scheme, ranked.n)
            assert (row["n"], row["scheme"], row["rule"]) == (
                str(ranked.n), scheme.name, rule.value
            )
            pp = Fraction(row["pp"]) if row["pp"] else None  # blank for k != 2
            assert (Fraction(row["i3"]), Fraction(row["r"]), pp) == (
                result.i3, result.r, result.pp
            )
            assert (Fraction(row["theoretical"]), Fraction(row["difference"])) == (
                theoretical, result.i3 - theoretical
            )


@seed(20120417)
@PROPERTY
@given(
    groups=TIED_GROUPS,
    selector=st.sampled_from(REPARSE_SCHEMES),
    rule=st.sampled_from(POINT_RULES),
    rounding=st.sampled_from(list(RoundingMode)),
    route=st.sampled_from(list(MidpointRoute)),
)
@example(groups=[[1, 2, 2, 3], [5, 5, 5]], selector="pr6", rule=CountingRule.MIDPOINT,
         rounding=RoundingMode.NONE, route=MidpointRoute.EXACT)
def test_attribute_and_indicators_warn_alike(workdir, groups, selector, rule, rounding, route):
    """With the defaulted policy, both commands count the same boundary
    hits: attribute over its attributions, indicators over its results."""
    path, ranked_sets = ranked_groups(workdir, groups)
    options = ["--scheme", selector, "--rule", rule.value, "--rounding", rounding.value,
               "--midpoint-route", route.value, "--input", path, "--format", "csv"]
    (code, _, warned), (same_code, _, same) = (
        pct([command, *options]) for command in ("attribute", "indicators")
    )
    assert (code, same_code, same) == (EXIT_OK, EXIT_OK, warned)
    hits = sum(
        compute_indicators(ranked, builtin_scheme(selector), rule, rounding=rounding,
                           policy=BoundaryPolicy.LOWER, midpoint_route=route).boundary_hits
        for ranked in ranked_sets.values()
    )
    assert warned == (f"pct: warning: {hits} attribution{'s' * (hits != 1)} landed exactly "
                      "on a class boundary and went to the class below; pass --boundary "
                      "to choose\n" if hits else "")


@seed(20120416)
@PROPERTY
@given(
    groups=TIED_GROUPS,
    selector=st.sampled_from(REPARSE_SCHEMES),
    rounding=st.sampled_from(list(RoundingMode)),
    route=st.sampled_from(list(MidpointRoute)),
)
def test_report_csv_reads_back_as_compare_rules(workdir, groups, selector, rounding, route):
    path, ranked_sets = ranked_groups(workdir, groups)
    code, out, err = pct([
        "report", "--scheme", selector, "--rounding", rounding.value,
        "--midpoint-route", route.value, "--input", path, "--format", "csv",
    ])
    assert code == EXIT_OK, err
    read: dict[str, list[tuple]] = {key: [] for key in ranked_sets}
    for row in csv.DictReader(io.StringIO(out)):
        if row["record"] == "flag":
            read[row["group"]].append((row["record"], CountingRule(row["rule"]), row["id"], *(
                Fraction(row[key])
                for key in ("interval_low", "interval_high", "quantile", "boundary")
            )))
        elif row["record"] == "disagreement":
            read[row["group"]].append((row["record"], row["id"], *(
                int(row[f"class_{rule.value.replace('-', '_')}"]) for rule in POINT_RULES
            )))
        else:
            assert row["record"] == "fractional_count"
            read[row["group"]].append(
                (row["record"], int(row["class_index"]), Fraction(row["count"]))
            )
    scheme = builtin_scheme(selector)
    for key, ranked in ranked_sets.items():
        report = compare_rules(ranked, scheme, rounding=rounding, midpoint_route=route)
        expected = [
            ("flag", flag.rule, doc_id, flag.interval_low, flag.interval_high, flag.quantile,
             flag.boundary)
            for flag in report.flags for doc_id in flag.member_ids
        ] + [
            ("disagreement", doc_id, *(d.classes[rule] for rule in POINT_RULES))
            for d in report.disagreements for doc_id in d.member_ids
        ] + [
            ("fractional_count", index, count)
            for index, count in enumerate(report.fractional_counts.counts, start=1)
        ]
        assert read[key] == expected
