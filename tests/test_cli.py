from __future__ import annotations

import csv
import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pctrank import SchemeError, main
from pctrank.cli import (
    EXIT_BOUNDARY,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_OUTPUT,
    build_parser,
)
from pctrank.model import scheme_from_boundaries

F = Fraction

FIVE_CSV = "id,citations\n" + "".join(f"d{i},{i}\n" for i in range(1, 6))
EIGHT_CSV = "id,citations\n" + "".join(f"d{i},{i}\n" for i in range(1, 9))
GROUPED_CSV = (
    "id,citations,group\n"
    "a1,1,alpha\na2,2,alpha\na3,3,alpha\n"
    "b1,5,beta\nb2,5,beta\n"
)
# A name that would split an error line and reach the terminal as an escape.
CONTROL_NAME = "x\ny\x1b[31m"
LONG = "z" * 100_000


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PCT_PRECISION", raising=False)


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def _run(argv, stdin_text=None, env=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def five_file(tmp_path):
    path = tmp_path / "five.csv"
    path.write_text(FIVE_CSV)
    return str(path)


@pytest.fixture
def eight_file(tmp_path):
    path = tmp_path / "eight.csv"
    path.write_text(EIGHT_CSV)
    return str(path)


class TestAttribute:
    def test_fractional_table(self, run, five_file):
        code, out, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file]
        )
        assert code == EXIT_OK
        assert err == ""
        assert "rule=fractional" in out
        assert "[2/5, 3/5]" in out
        assert "40%–60%" in out

    def test_fractional_csv_values(self, run, five_file):
        code, out, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file,
             "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = {row["id"]: row for row in csv.DictReader(io.StringIO(out))}
        assert F(rows["d3"]["f_1"]) == F(1, 2)
        assert F(rows["d5"]["score"]) == 1

    def test_stdin_is_the_default_input(self, run):
        code, out, _ = run(
            ["attribute", "--scheme", "top50", "--format", "csv"],
            stdin_text=FIVE_CSV,
        )
        assert code == EXIT_OK
        assert out.count("\n") == 6  # header + five documents

    def test_tsv_input(self, run, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("id\tcitations\np,q\t3\nother\t8\n")
        code, out, _ = run(
            ["attribute", "--scheme", "top50", "--input", str(path),
             "--format", "csv"]
        )
        assert code == EXIT_OK
        # a comma inside an id survives the csv round-trip
        assert next(
            row for row in csv.DictReader(io.StringIO(out)) if row["id"] == "p,q"
        )

    def test_runs_are_deterministic(self, run, eight_file):
        argv = ["attribute", "--scheme", "pr6", "--input", eight_file,
                "--format", "csv"]
        assert run(argv) == run(argv)

    def test_groups_are_split_and_sorted(self, run, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text(GROUPED_CSV)
        code, out, _ = run(
            ["attribute", "--scheme", "top50", "--input", str(path),
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [g["group"] for g in payload["groups"]] == ["alpha", "beta"]
        assert [g["n"] for g in payload["groups"]] == [3, 2]


class TestInputEdgeCases:
    def test_quoted_newline_in_an_id_survives(self, run, tmp_path):
        path = tmp_path / "newline.csv"
        path.write_bytes(b'id,citations\r\n"a\nb",1\r\n"c\r\nd",2\r\n')
        code, out, _ = run(
            ["attribute", "--scheme", "top50", "--input", str(path), "--format", "json"]
        )
        assert code == EXIT_OK
        documents = json.loads(out)["groups"][0]["documents"]
        assert [d["id"] for d in documents] == ["a\nb", "c\r\nd"]

    def test_a_table_row_stays_on_one_line(self, run, tmp_path):
        """A table shows a newline, tab or ESC in an id, group or scheme name
        as its escape: the table is the one the escaped text itself gives, one
        line per document. csv keeps the text as read."""
        def files(stem, newline, tab, esc):
            data, scheme = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.json"
            data.write_text(f'id,citations,group\n"a{newline}b",3,"g{tab}1"\n'
                            f'c{esc}[31m,1,"g{tab}1"\nd,2,h\n', encoding="utf-8")
            scheme.write_text(json.dumps(
                {"name": f"s{esc}1", "boundaries": ["0", "1/2", "1"], "weights": ["0", "1"]}
            ), encoding="utf-8")
            return ["--input", str(data), "--scheme", f"custom={scheme}"]

        raw, shown = files("raw", "\n", "\t", "\x1b"), files("shown", r"\n", r"\t", r"\x1b")
        for command in ("attribute", "indicators", "report"):
            code, out, err = run([command, *raw])
            assert (code, out, err) == run([command, *shown])
            assert code == EXIT_OK and "\t" not in out and "\x1b" not in out
            if command == "attribute":
                # Per group: its title, the header, the rule and one line per document.
                assert len(out.splitlines()) == 3 + 2 + 1 + 3 + 1
        assert run(["schemes", raw[2], raw[3]]) == run(["schemes", shown[2], shown[3]])
        code, out, _ = run(["attribute", *raw, "--format", "csv"])
        assert '\n"a\nb",3,g\t1,' in out and "\nc\x1b[31m,1," in out

    def test_byte_order_mark_before_the_header(self, run, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff".encode() + FIVE_CSV.encode())
        code, out, _ = run(
            ["indicators", "--scheme", "pr6", "--input", str(path), "--format", "csv"]
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("default,5,pr6,fractional,191/20,")

    def test_input_file_that_is_not_utf8_is_refused(self, run, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,citations\ncaf\xe9,1\n")
        code, out, err = run(["attribute", "--scheme", "top50", "--input", str(path)])
        assert code == EXIT_DATA
        assert out == ""
        assert "not valid UTF-8" in err and "byte offset 16" in err

    def test_stdin_bytes_are_decoded_as_utf8(self, run, monkeypatch):
        argv = ["attribute", "--scheme", "top50", "--format", "json"]
        # The streams' own encodings would read both inputs without an error.
        good = io.TextIOWrapper(io.BytesIO("id,citations\ncafé,1\n".encode()), "latin-1")
        monkeypatch.setattr(sys, "stdin", good)
        code, out, _ = run(argv)
        assert code == EXIT_OK
        assert json.loads(out)["groups"][0]["documents"][0]["id"] == "café"
        bad = io.TextIOWrapper(io.BytesIO(b"id,citations\ncaf\xe9,1\n"), "utf-8", "surrogateescape")
        monkeypatch.setattr(sys, "stdin", bad)
        code, out, err = run(argv)
        assert code == EXIT_DATA
        assert out == ""
        assert "not valid UTF-8" in err and "byte offset 16" in err

    def test_csv_field_over_the_size_limit_is_refused_with_its_line(self, run, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("id,citations\na,1\n" + "b" * 131_073 + ",2\n")
        code, out, err = run(["attribute", "--scheme", "top50", "--input", str(path)])
        assert code == EXIT_DATA
        assert out == ""
        assert "line 3: field larger than field limit" in err

    @pytest.mark.parametrize("command", ["attribute", "report"])
    def test_nul_in_an_id_or_group_is_refused(self, run, tmp_path, command):
        # Python 3.10's csv.writer cannot write NUL, and its csv.reader stops at
        # one; every version refuses it, naming the document or line.
        inputs = {
            "id.json": ('[{"id": "a\\u0000b", "citations": 1}]', "document 1: "),
            "group.json": ('[{"id": "a", "citations": 1, "group": "g\\u0000"}]',
                           "document 1: "),
            "id.csv": ("id,citations\nc,2\na\0b,1\n", "line 3: "),
            "group.csv": ("id,citations,group\nc,2,g\na,1,\0\n", "line 3: "),
        }
        for name, (text, where) in inputs.items():
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run([command, "--scheme", "pr6", "--input", str(path),
                                  "--format", "csv"])
            assert (code, out) == (EXIT_DATA, "")
            assert err.startswith(f"pct: input error: {where}"), err
            assert "NUL" in err

    @pytest.mark.parametrize("wrap", ["{}", '{{"documents": {}}}'])
    def test_json_input_nested_too_deeply_is_refused(self, run, tmp_path, wrap):
        path = tmp_path / "deep.json"
        path.write_text(wrap.format("[" * 200_000 + "]" * 200_000))
        code, out, err = run(["indicators", "--scheme", "top50", "--input", str(path)])
        assert code == EXIT_DATA
        assert out == ""
        assert "nested too deeply" in err

    def test_scheme_file_nested_too_deeply_is_refused(self, run, tmp_path, five_file):
        path = tmp_path / "deep.json"
        path.write_text('{"boundaries": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code, out, err = run(["attribute", "--scheme", f"custom={path}", "--input", five_file])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error" in err and "nested too deeply" in err


class TestBoundaryHandling:
    MID = ["--rule", "midpoint"]

    def test_defaulted_policy_warns_when_it_matters(self, run, five_file):
        code, out, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file, *self.MID]
        )
        assert code == EXIT_OK
        assert "warning: 1 attribution landed exactly on a class boundary" in err

    def test_warning_counts_every_member_of_an_ambiguous_tie_group(self, run):
        # alpha: a2 and a3 tie on [1/4, 3/4]; beta: one tie group on [0, 1].
        # Both midpoints sit on top50's boundary 1/2: 2 + 3 attributions.
        text = (
            "id,citations,group\n"
            "a1,1,alpha\na2,2,alpha\na3,2,alpha\na4,3,alpha\n"
            "b1,5,beta\nb2,5,beta\nb3,5,beta\n"
        )
        code, _, err = run(["attribute", "--scheme", "top50", *self.MID], stdin_text=text)
        assert code == EXIT_OK
        assert err == (
            "pct: warning: 5 attributions landed exactly on a class boundary and "
            "went to the class below; pass --boundary to choose\n"
        )

    def test_explicit_policy_is_silent(self, run, five_file):
        code, _, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file,
             *self.MID, "--boundary", "lower"]
        )
        assert code == EXIT_OK
        assert err == ""

    def test_no_warning_without_a_hit(self, run, eight_file):
        code, _, err = run(
            ["attribute", "--scheme", "top50", "--input", eight_file, *self.MID]
        )
        assert code == EXIT_OK
        assert err == ""

    def test_fractional_rule_never_warns(self, run, five_file):
        code, _, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file]
        )
        assert code == EXIT_OK
        assert err == ""

    def test_error_policy_refuses(self, run, five_file):
        code, out, err = run(
            ["attribute", "--scheme", "top50", "--input", five_file,
             *self.MID, "--boundary", "error"]
        )
        assert code == EXIT_BOUNDARY
        assert out == ""
        assert "falls exactly on an interior class boundary" in err

    def test_policies_move_the_class(self, run, five_file):
        rows = {}
        for policy in ("lower", "upper"):
            _, out, _ = run(
                ["attribute", "--scheme", "top50", "--input", five_file,
                 *self.MID, "--boundary", policy, "--format", "csv"]
            )
            table = {row["id"]: row for row in csv.DictReader(io.StringIO(out))}
            rows[policy] = table["d3"]
        assert rows["lower"]["class"] == "1"
        assert rows["upper"]["class"] == "2"
        assert rows["lower"]["ambiguous"] == rows["upper"]["ambiguous"] == "true"


class TestIndicatorsBoundaryHandling:
    MID = ["--rule", "midpoint"]

    def test_defaulted_policy_warns_when_it_matters(self, run, five_file):
        code, _, err = run(
            ["indicators", "--scheme", "top50", "--input", five_file, *self.MID]
        )
        assert code == EXIT_OK
        assert "warning: 1 attribution landed exactly on a class boundary" in err

    def test_warning_counts_every_member_of_an_ambiguous_tie_group(self, run):
        # The tie groups of TestBoundaryHandling: 2 + 3 documents on 1/2.
        text = (
            "id,citations,group\n"
            "a1,1,alpha\na2,2,alpha\na3,2,alpha\na4,3,alpha\n"
            "b1,5,beta\nb2,5,beta\nb3,5,beta\n"
        )
        code, _, err = run(["indicators", "--scheme", "top50", *self.MID], stdin_text=text)
        assert code == EXIT_OK
        assert err == (
            "pct: warning: 5 attributions landed exactly on a class boundary and "
            "went to the class below; pass --boundary to choose\n"
        )

    def test_explicit_policy_is_silent(self, run, five_file):
        code, _, err = run(
            ["indicators", "--scheme", "top50", "--input", five_file,
             *self.MID, "--boundary", "lower"]
        )
        assert code == EXIT_OK
        assert err == ""

    def test_no_warning_without_a_hit(self, run, eight_file):
        code, _, err = run(
            ["indicators", "--scheme", "top50", "--input", eight_file, *self.MID]
        )
        assert code == EXIT_OK
        assert err == ""

    def test_fractional_rule_never_warns(self, run, five_file):
        code, _, err = run(["indicators", "--scheme", "top50", "--input", five_file])
        assert code == EXIT_OK
        assert err == ""

    def test_error_policy_refuses(self, run, five_file):
        code, out, err = run(
            ["indicators", "--scheme", "top50", "--input", five_file,
             *self.MID, "--boundary", "error"]
        )
        assert code == EXIT_BOUNDARY
        assert out == ""
        assert err == (
            "pct: quantile 1/2 falls exactly on an interior class boundary; "
            "use boundary policy 'lower' or 'upper' to resolve it\n"
        )

    def test_policies_move_the_count(self, run, five_file):
        pp = {}
        for policy in ("lower", "upper"):
            _, out, _ = run(
                ["indicators", "--scheme", "top50", "--input", five_file,
                 *self.MID, "--boundary", policy, "--format", "csv"]
            )
            [row] = csv.DictReader(io.StringIO(out))
            pp[policy] = row["pp"]
        assert pp == {"lower": "2/5", "upper": "3/5"}


class TestIndicatorsWork:
    """indicators decides tie groups, not documents."""

    @pytest.fixture
    def no_attribution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("indicators attributed documents one by one")

        monkeypatch.setattr("pctrank.cli.attribute_all", refuse)
        monkeypatch.setattr("pctrank.indicators.attribute_all", refuse)

    @pytest.mark.parametrize("rule", ["count-worse", "count-worse-or-equal", "midpoint",
                                      "fractional"])
    def test_no_per_document_attribution(self, run, no_attribution, rule):
        code, out, err = run(
            ["indicators", "--scheme", "top50", "--rule", rule, "--format", "csv"],
            stdin_text=GROUPED_CSV,
        )
        assert code == EXIT_OK, err
        assert [row["group"] for row in csv.DictReader(io.StringIO(out))] == ["alpha", "beta"]

    def test_fractional_rule_builds_no_grid(self, run, monkeypatch, no_attribution):
        def refuse(*args):
            raise AssertionError("the fractional rule walked the grid")

        for walk in ("pctrank.indicators._points", "pctrank.scoring._points",
                     "pctrank.scoring._fractions"):
            monkeypatch.setattr(walk, refuse)
        code, out, err = run(
            ["indicators", "--scheme", "pr100", "--format", "json"], stdin_text=GROUPED_CSV
        )
        assert code == EXIT_OK, err
        assert [group["i3"] for group in json.loads(out)["groups"]] == ["303/2", "101"]

    @pytest.mark.parametrize("rule,sets", [("fractional", 0), ("count-worse", 2)])
    def test_only_point_rules_build_tie_groups(self, run, builds, rule, sets):
        code, out, err = run(
            ["indicators", "--scheme", "pr6", "--rule", rule, "--format", "csv"],
            stdin_text=GROUPED_CSV,
        )
        assert code == EXIT_OK, err
        assert [row["n"] for row in csv.DictReader(io.StringIO(out))] == ["3", "2"]
        assert len(builds) == sets

    @pytest.mark.parametrize("rule", ["count-worse", "count-worse-or-equal", "midpoint"])
    def test_point_rule_indicators_build_no_tie_group(self, run, tie_groups_built, rule):
        code, out, err = run(
            ["indicators", "--scheme", "top50", "--rule", rule, "--format", "csv"],
            stdin_text=GROUPED_CSV,
        )
        assert code == EXIT_OK, err
        assert [row["n"] for row in csv.DictReader(io.StringIO(out))] == ["3", "2"]
        assert tie_groups_built == []

    def test_report_builds_only_the_tie_groups_near_a_cut(self, run, tie_groups_built):
        """1000 distinct documents under pr6: each of the five interior cuts
        falls between two one-document groups, and only those ten are built."""
        rows = "".join(f"d{i:04d},{i}\n" for i in range(1, 1001))
        code, out, err = run(
            ["report", "--scheme", "pr6", "--format", "csv"], stdin_text="id,citations\n" + rows
        )
        assert code == EXIT_OK, err
        near = [rank for cut in (500, 750, 900, 950, 990) for rank in (cut, cut + 1)]
        assert [group.member_ids for group in tie_groups_built] == [
            (f"d{rank:04d}",) for rank in near
        ]
        flagged = [row["id"] for row in csv.DictReader(io.StringIO(out)) if row["record"] == "flag"]
        assert sorted(flagged) == [f"d{rank:04d}" for rank in near]


class TestIndicators:
    def test_json_for_eight_documents(self, run, eight_file):
        code, out, _ = run(
            ["indicators", "--scheme", "pr6", "--input", eight_file,
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        [group] = payload["groups"]
        assert group["i3"] == "382/25"
        assert group["r"] == "191/100"
        assert group["difference"] == "0"

    def test_grouped_csv(self, run, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text(GROUPED_CSV)
        code, out, _ = run(
            ["indicators", "--scheme", "top50", "--input", str(path),
             "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["group"] for row in rows] == ["alpha", "beta"]
        assert rows[0]["pp"] == "1/2"
        assert rows[1]["pp"] == "1/2"  # both tied documents straddle the cut


class TestReport:
    def test_table_flags_the_middle_document(self, run, five_file):
        code, out, err = run(
            ["report", "--scheme", "top50", "--input", five_file]
        )
        assert code == EXIT_OK
        assert err == ""
        assert "boundary hits:" in out
        assert "midpoint" in out
        assert "d3" in out
        assert "summary: flags [count-worse=0, count-worse-or-equal=0, midpoint=1]" in out

    def test_json_flag_detail(self, run, five_file):
        code, out, _ = run(
            ["report", "--scheme", "top50", "--input", five_file,
             "--format", "json"]
        )
        assert code == EXIT_OK
        [group] = json.loads(out)["groups"]
        [flag] = group["flags"]
        assert flag["id"] == "d3"
        assert flag["boundary"] == "1/2"
        assert flag["interval"] == {"low": "2/5", "high": "3/5"}


def tied_rows(seed: int = 7) -> list[tuple[str, int, str]]:
    """Three groups with large tie groups, one-document tie groups and ids
    that csv has to quote."""
    rng = random.Random(seed)
    rows = []
    for group, n, top in (("alpha", 30, 3), ("beta, two", 12, 40), ("gamma", 25, 0)):
        rows += [(f"{group[0]}{i:02d}", rng.randint(0, top), group) for i in range(n)]
    rows += [('q"uote', 1, "alpha"), ("comma,id", 2, "beta, two"), ("new\nline", 0, "gamma")]
    return rows


def as_input(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([{"id": i, "citations": c, "group": g} for i, c, g in rows])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "citations", "group"])
    writer.writerows(rows)
    return buffer.getvalue()


class TestPermutation:
    """Reordering the input rows leaves every output byte the same: ranks,
    tie groups and group order depend on the records, not on their order."""

    COMMANDS = [
        ["attribute", "--scheme", "pr6"],
        ["attribute", "--scheme", "topx=1/10", "--rule", "midpoint", "--rounding", "floor",
         "--midpoint-route", "endpoints"],
        ["attribute", "--scheme", "pr100", "--rule", "count-worse", "--boundary", "upper"],
        ["indicators", "--scheme", "pr6"],
        ["indicators", "--scheme", "topx=1/10", "--rule", "count-worse-or-equal"],
        ["report", "--scheme", "pr6"],
        ["report", "--scheme", "topx=1/10", "--rounding", "half-up"],
    ]

    @pytest.mark.parametrize("input_format", ["csv", "json"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: "-".join(argv[::2]))
    def test_shuffled_rows_give_the_same_output(self, run, command, input_format):
        rows = tied_rows()
        shuffled = rows[:]
        random.Random(11).shuffle(shuffled)
        reversed_rows = rows[::-1]
        for fmt in ("csv", "table", "json"):
            argv = [*command, "--format", fmt]
            expected = run(argv, stdin_text=as_input(rows, input_format))
            assert expected[0] == EXIT_OK and expected[1]
            for other in (shuffled, reversed_rows):
                assert run(argv, stdin_text=as_input(other, input_format)) == expected


class TestSchemes:
    def test_list_builtins(self, run):
        code, out, _ = run(["schemes"])
        assert code == EXIT_OK
        for name in ("top50", "pr6", "pr100", "topx(1/10)"):
            assert name in out

    def test_detail_topx(self, run):
        code, out, _ = run(["schemes", "--scheme", "topx=1/4", "--format", "csv"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["lower"] for row in rows] == ["0", "3/4"]
        assert [row["weight"] for row in rows] == ["0", "1"]

    def test_custom_scheme_file(self, run, tmp_path, five_file):
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps({
            "name": "coarse",
            "boundaries": ["0", "3/10", "1"],
            "weights": ["0", "1"],
        }))
        code, out, _ = run(
            ["schemes", "--scheme", f"custom={path}", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["name"] == "coarse"
        assert payload["boundaries"] == ["0", "3/10", "1"]
        code, out, _ = run(
            ["attribute", "--scheme", f"custom={path}", "--input", five_file,
             "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = {row["id"]: row for row in csv.DictReader(io.StringIO(out))}
        assert F(rows["d2"]["f_1"]) == F(1, 2)  # [1/5, 2/5] straddles 3/10

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_byte_order_mark_before_a_scheme_file(self, run, tmp_path, fmt):
        """Ignored, as before input csv or JSON; the file's stem names the
        scheme, so both files are called s.json."""
        body = json.dumps({"boundaries": ["0", "1/3", "1"], "weights": ["0", "1"]}).encode()
        outputs = []
        for folder, prefix in (("plain", b""), ("bom", "\ufeff".encode())):
            path = tmp_path / folder / "s.json"
            path.parent.mkdir()
            path.write_bytes(prefix + body)
            outputs.append(run(["schemes", "--scheme", f"custom={path}", "--format", fmt]))
        assert outputs[1] == outputs[0] and outputs[0][0] == EXIT_OK

    def test_scheme_file_that_is_not_utf8_is_refused(self, run, tmp_path, five_file):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9", "boundaries": ["0", "1"], "weights": ["1"]}')
        for argv in (["schemes"], ["attribute", "--input", five_file]):
            code, out, err = run([*argv, "--scheme", f"custom={path}"])
            assert code == EXIT_CONFIG
            assert out == ""
            assert "not valid UTF-8" in err and "byte offset 13" in err

    @pytest.mark.parametrize("boundaries,weights", [
        (["-1/4", "1/2", "1"], ["1", "2"]),
        (["0", "1/2", "2"], ["1", "2"]),
        (["0", "1/2", "1/2", "1"], ["1", "2", "3"]),
        (["0", "3/4", "1/2", "1"], ["1", "2", "3"]),
        (["1/4", "1/2", "1"], ["1", "2"]),
        (["0", "1/2", "3/4"], ["1", "2"]),
        (["0"], []),
        ([], []),
        (["0", "1/2", "1"], ["1"]),
    ], ids=["below-0", "above-1", "repeated", "decreasing", "not-from-0", "not-to-1",
            "one-boundary", "no-boundary", "weight-count"])
    def test_a_bad_boundary_list_is_refused(self, run, tmp_path, boundaries, weights):
        with pytest.raises(SchemeError):
            scheme_from_boundaries("bad", [F(b) for b in boundaries], [F(w) for w in weights])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"boundaries": boundaries, "weights": weights}))
        code, out, err = run(["schemes", "--scheme", f"custom={path}"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("pct: config error: ") and err.count("\n") == 1, err


class TestPrecision:
    ARGS = ["indicators", "--scheme", "pr6", "--rule", "midpoint",
            "--boundary", "lower"]

    def three_docs(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("id,citations\nd1,1\nd2,2\nd3,3\n")
        return str(path)

    def test_default_four_significant_digits(self, run, tmp_path):
        _, out, _ = run([*self.ARGS, "--input", self.three_docs(tmp_path)])
        assert "5/3 (1.667)" in out

    def test_env_knob(self, run, tmp_path):
        _, out, _ = run(
            [*self.ARGS, "--input", self.three_docs(tmp_path)],
            env={"PCT_PRECISION": "6"},
        )
        assert "5/3 (1.66667)" in out

    def test_flag_beats_env(self, run, tmp_path):
        _, out, _ = run(
            [*self.ARGS, "--input", self.three_docs(tmp_path), "--precision", "4"],
            env={"PCT_PRECISION": "6"},
        )
        assert "5/3 (1.667)" in out

    @pytest.mark.parametrize("env_value", ["abc", "0", "-3"])
    def test_bad_env_value(self, run, tmp_path, env_value):
        code, _, err = run(
            [*self.ARGS, "--input", self.three_docs(tmp_path)],
            env={"PCT_PRECISION": env_value},
        )
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_cap_is_accepted(self, run, tmp_path):
        argv = [*self.ARGS, "--input", self.three_docs(tmp_path), "--precision", "100"]
        code, out, _ = run(argv)
        assert code == EXIT_OK
        assert f"5/3 (1.{'6' * 98}7)" in out

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["101", "20000"])
    def test_precision_above_the_cap_is_refused(self, run, tmp_path, source, value):
        argv = [*self.ARGS, "--input", self.three_docs(tmp_path)]
        if source == "flag":
            code, out, err = run([*argv, "--precision", value])
        else:
            code, out, err = run(argv, env={"PCT_PRECISION": value})
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error: precision must be at most 100" in err

    NO_DECIMALS = [["report", "--scheme", "pr6"], ["schemes"], ["schemes", "--scheme", "pr6"]]

    @pytest.mark.parametrize("argv", NO_DECIMALS, ids=" ".join)
    def test_commands_without_decimals_ignore_the_env_knob(self, run, tmp_path, argv):
        if argv[0] == "report":
            argv = [*argv, "--input", self.three_docs(tmp_path)]
        code, out, err = run(argv)
        assert code == EXIT_OK
        for value in ("abc", "0", "9"):
            assert run(argv, env={"PCT_PRECISION": value}) == (code, out, err)

    @pytest.mark.parametrize("argv", NO_DECIMALS, ids=" ".join)
    def test_commands_without_decimals_refuse_the_flag(self, run, tmp_path, argv):
        if argv[0] == "report":
            argv = [*argv, "--input", self.three_docs(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            run([*argv, "--precision", "4"])
        assert excinfo.value.code == EXIT_CONFIG


class TestExitCodes:
    def test_data_errors(self, run, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,citations\nx,many\n")
        code, out, err = run(["attribute", "--scheme", "top50", "--input", str(bad)])
        assert code == EXIT_DATA
        assert out == ""
        assert "input error" in err and "line 2" in err

    def test_explicit_default_group_clashes_with_ungrouped_rows(self, run, tmp_path):
        path = tmp_path / "clash.csv"
        path.write_text("id,citations,group\na,1,default\nb,2,\n")
        code, out, err = run(["indicators", "--scheme", "top50", "--input", str(path)])
        assert code == EXIT_DATA
        assert out == ""
        assert "'default'" in err

    @pytest.mark.parametrize("command", ["attribute", "indicators", "report"])
    def test_citations_too_long_for_an_integer(self, run, tmp_path, command):
        digits = "9" * 5000
        as_csv = tmp_path / "long.csv"
        as_csv.write_text(f"id,citations\na,1\nb,{digits}\n")
        as_json = tmp_path / "long.json"
        as_json.write_text(f'[{{"id": "a", "citations": 1}}, {{"id": "b", "citations": {digits}}}]')
        limit = sys.get_int_max_str_digits()
        for path, where in ((as_csv, "line 3"), (as_json, "document 2")):
            code, out, err = run([command, "--scheme", "pr6", "--input", str(path)])
            assert (code, out) == (EXIT_DATA, "")
            assert err == (
                f"pct: input error: {where}: citations have 5000 digits, "
                f"more than the {limit} this Python reads as an integer\n"
            )

    def test_a_long_json_integer_outside_the_citations(self, run, tmp_path):
        digits = "9" * 5000
        path = tmp_path / "long.json"
        path.write_text(f'[{{"id": {digits}, "citations": 1}}]')
        code, _, err = run(["attribute", "--scheme", "pr6", "--input", str(path)])
        assert code == EXIT_DATA
        assert err == "pct: input error: document 1: document id must be a non-empty string\n"
        # Outside the documents it is not read as citations: the key is refused.
        path.write_text(f'{{"documents": [{{"id": "a", "citations": 1}}], "note": {digits}}}')
        code, out, err = run(["indicators", "--scheme", "pr6", "--input", str(path)])
        assert (code, out) == (EXIT_DATA, "")
        assert err == "pct: input error: unknown field(s) beside \"documents\": 'note'\n"
        # Malformed or deeply nested text after it is still a data error.
        for tail, message in ((", oops]", "invalid JSON input"), (", " + "[" * 100_000, "deeply")):
            path.write_text(f'[{{"id": "a", "citations": {digits}}}{tail}')
            code, _, err = run(["attribute", "--scheme", "pr6", "--input", str(path)])
            assert code == EXIT_DATA and message in err

    def test_a_long_scheme_value_is_not_echoed_in_full(self, run, five_file, tmp_path):
        digits = "9" * 5000
        scheme = tmp_path / "long.json"
        selectors = [f"topx=1/{digits}", "x" * 5000, f"custom={scheme}"]
        for boundary in (f'"1/{digits}"', f"{digits}"):
            scheme.write_text(
                f'{{"name": "long", "boundaries": [0, {boundary}, 1], "weights": [1, 2]}}'
            )
            for selector in selectors:
                code, out, err = run(["attribute", "--scheme", selector, "--input", five_file])
                assert (code, out) == (EXIT_CONFIG, "")
                assert err.startswith("pct: config error: ") and len(err) < 300, err

    @pytest.mark.parametrize("case", ["boundary", "top-share", "precision-env"])
    def test_a_long_scheme_or_precision_value_is_cut(self, run, five_file, tmp_path, case):
        """A value that parses but is out of range is named by its first 40
        characters, on one line."""
        scheme = tmp_path / "long.json"
        scheme.write_text(json.dumps({"boundaries": ["0", "9" * 4000, "1"], "weights": ["1", "2"]}))
        argv, env = {
            "boundary": (["schemes", "--scheme", f"custom={scheme}"], None),
            "top-share": (["schemes", "--scheme", "topx=" + "9" * 3000], None),
            "precision-env": (["indicators", "--scheme", "pr6", "--input", five_file],
                              {"PCT_PRECISION": "9" * 5000}),
        }[case]
        code, out, err = run(argv, env=env)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("pct: config error: ") and err.count("\n") == 1, err
        assert len(err) < 300 and "characters)" in err, err

    @pytest.mark.parametrize("name,text", [
        ("column.csv", f'id,citations,"{CONTROL_NAME}"\na,1,2\n'),
        ("field.json", json.dumps([{"id": "a", "citations": 1, CONTROL_NAME: 2}])),
        ("citations.csv", f"id,citations\na,{LONG}\n"),
        ("ids.csv", f"id,citations\n{LONG},1\n{LONG},2\n"),
        ("ids.json", json.dumps([{"id": LONG, "citations": 1}, {"id": LONG, "citations": 2}])),
        ("key.json", '[{"id": "a", "citations": 1, %s: 1, %s: 2}]' % ((json.dumps(LONG),) * 2)),
    ], ids=["column", "field", "citations", "csv-id", "json-id", "json-key"])
    def test_an_input_value_is_named_escaped_and_cut(self, run, tmp_path, name, text):
        """One printable line: a value an error names is escaped, and cut to
        its first 40 characters."""
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(["indicators", "--scheme", "pr6", "--input", str(path)])
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("pct: input error: ") and err[:-1].isprintable(), err
        assert len(err) < 300, err

    @pytest.mark.parametrize("document", [
        {CONTROL_NAME: "x", "boundaries": ["0", "1"], "weights": ["1"]},
        {"boundaries": ["0", "1"], "weights": [list(range(20_000))]},
        {"name": "\udc80" + LONG, "boundaries": ["0", "1"], "weights": ["1"]},
    ], ids=["field", "weight", "name"])
    def test_a_scheme_file_value_is_named_escaped_and_cut(self, run, tmp_path, document):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(document))
        code, out, err = run(["schemes", "--scheme", f"custom={path}"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("pct: config error: ") and err[:-1].isprintable(), err
        assert len(err) < 300, err

    @pytest.mark.parametrize("command", ["schemes", "attribute", "indicators", "report"])
    def test_a_scheme_value_too_long_to_write_out_is_refused(self, run, five_file, tmp_path,
                                                             command):
        scheme = tmp_path / "tiny.json"
        scheme.write_text('{"boundaries": ["0", "1e-10000", "1"], "weights": ["1", "2"]}')
        argv = [command] if command == "schemes" else [command, "--input", five_file]
        for selector, message in (
            ("topx=1e-10000", "invalid top share in 'topx=1e-10000': "),
            (f"custom={scheme}", "boundaries[1]: "),
        ):
            code, out, err = run([*argv, "--scheme", selector])
            assert (code, out) == (EXIT_CONFIG, "")
            assert err == f"pct: config error: {message}invalid fraction '1e-10000'\n"

    @pytest.mark.parametrize("argv", [
        ["schemes"], ["attribute"], ["attribute", "--rule", "midpoint"], ["indicators"],
        ["report", "--format", "csv"],
    ])
    def test_a_scheme_whose_derived_values_are_too_long_is_refused(self, run, tmp_path, argv):
        """Each value fits the integer-string limit, but the lcm of the
        boundary denominators does not."""
        limit = sys.get_int_max_str_digits()
        power = 10 ** (limit - 300)
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({
            "name": "n" * 5000,
            "boundaries": ["0", f"1/{power + 1}", f"1/{power}", "1"],
            "weights": ["1", "2", "3"],
        }))
        data = tmp_path / "three.csv"
        data.write_text("id,citations\na,1\nb,2\nc,3\n")
        if argv != ["schemes"]:
            argv = [*argv, "--input", str(data)]
        code, out, err = run([*argv, "--scheme", f"custom={scheme}"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            f"pct: config error: scheme {'n' * 40!r}... (5000 characters) needs "
            f"denominators of more than {limit} digits; its values could not be written out\n"
        )

    @pytest.mark.parametrize("argv", [
        ["attribute"], ["attribute", "--rule", "midpoint", "--format", "json"], ["indicators"],
        ["indicators", "--rule", "count-worse", "--format", "csv"], ["report", "--format", "csv"],
    ])
    def test_a_scheme_too_long_for_the_input_is_refused(self, run, tmp_path, argv):
        """The scheme fits the integer-string limit on its own, but values
        derived for the input's n might not: a weight of `limit` nines on 50
        rows, or a boundary of 1/10**(limit - 1) on 11 rows. The latter
        still runs on 2 rows."""
        limit = sys.get_int_max_str_digits()
        scheme, data = tmp_path / "scheme.json", tmp_path / "rows.csv"
        for boundaries, weights, rows, code in (
            (["0", "1/2", "1"], ["1", "9" * limit], 50, EXIT_CONFIG),
            (["0", f"1/{10 ** (limit - 1)}", "1"], ["1", "2"], 11, EXIT_CONFIG),
            (["0", f"1/{10 ** (limit - 1)}", "1"], ["1", "2"], 2, EXIT_OK),
        ):
            scheme.write_text(json.dumps(
                {"name": "n" * 5000, "boundaries": boundaries, "weights": weights}
            ))
            data.write_text("id,citations\n" + "".join(f"d{i},{i}\n" for i in range(rows)))
            result = run([*argv, "--input", str(data), "--scheme", f"custom={scheme}"])
            if code == EXIT_OK:
                assert result[0] == EXIT_OK and result[1], result[2]
                continue
            assert result == (EXIT_CONFIG, "", (
                f"pct: config error: scheme {'n' * 40!r}... (5000 characters) needs values "
                f"of more than {limit} digits for a set of {rows} documents; they could "
                "not be written out\n"
            ))

    @pytest.mark.parametrize("value", ["1/1_0", "0.1_5", "1/٣", "1/１0"])
    def test_a_fraction_with_underscores_or_other_digits_is_refused(self, run, five_file,
                                                                    tmp_path, value):
        """On every Python version alike: 3.10 refuses "_" where 3.11 reads it."""
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"boundaries": ["0", value, "1"], "weights": ["0", "1"]}))
        for selector, message in (
            (f"topx={value}", f"invalid top share in 'topx={value}': "),
            (f"custom={scheme}", "boundaries[1]: "),
        ):
            code, out, err = run(["attribute", "--scheme", selector, "--input", five_file])
            assert (code, out) == (EXIT_CONFIG, "")
            assert err == f"pct: config error: {message}invalid fraction {value!r}\n"

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("error", [
        OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
        BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
    ])
    @pytest.mark.parametrize("argv", [
        ["schemes"], ["attribute", "--scheme", "pr6"], ["indicators", "--scheme", "pr6"],
        ["report", "--scheme", "pr6", "--format", "json"],
    ])
    def test_output_that_cannot_be_written(self, run, monkeypatch, method, error, argv):
        class FailingStdout(io.StringIO):
            pass

        def fail(*args):
            raise error

        setattr(FailingStdout, method, fail)
        monkeypatch.setattr(sys, "stdout", FailingStdout())
        code, _, err = run(argv, stdin_text=FIVE_CSV)
        assert code == EXIT_OUTPUT == 1
        assert err == f"pct: cannot write output: {error.strerror}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_gives_one_line_and_no_exit_flush_error(self):
        # Buffered, as stdout is by default, so that the interpreter's exit
        # flush has something to write unless main leaves nothing behind.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "pctrank", "schemes"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert (result.returncode, result.stderr) == (
            EXIT_OUTPUT, "pct: cannot write output: No space left on device\n"
        )

    @staticmethod
    def run_with_closed(fd: int, argv: list[str]) -> subprocess.CompletedProcess:
        """`python -m pctrank` in a child whose file descriptor fd is closed,
        as `<&-`, `>&-` or `2>&-` leaves it."""
        return subprocess.run(
            [sys.executable, "-m", "pctrank", *argv],
            capture_output=True, text=True, preexec_fn=lambda: os.close(fd),
        )

    @staticmethod
    def run_children(argvs: list[list[str]]) -> list[tuple[int, bytes, bytes]]:
        """(exit code, stdout, stderr) of `python -m pctrank` with each argv,
        the children side by side, on the streams the locale gives them
        (surrogateescape in the C locale)."""
        children = [
            subprocess.Popen([sys.executable, "-m", "pctrank", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for argv in argvs
        ]
        results = []
        for child in children:
            out, err = child.communicate()
            results.append((child.returncode, out, err))
        return results

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("command", ["attribute", "indicators", "report"])
    def test_a_lone_surrogate_in_an_id_or_group_is_refused(self, tmp_path, command, fmt):
        """JSON can escape a lone surrogate, which UTF-8 cannot encode and
        the C locale's surrogateescape writes as a raw byte: refused as NUL
        is, in every format, with one line and no traceback."""
        argvs = []
        for i, (field, char) in enumerate([("id", "\ud800"), ("id", "\udc80"),
                                           ("group", "\ud800"), ("group", "\udc80")]):
            path = tmp_path / f"{i}.json"
            # json.dumps writes each surrogate as a \u escape.
            path.write_text(json.dumps([{"id": "b", "citations": 2},
                                        {"id": "a", "citations": 1, field: f"x{char}"}]))
            argvs.append([command, "--scheme", "top50", "--format", fmt, "--input", str(path)])
        message = b"pct: input error: document 2: the id or group of %s holds a lone surrogate\n"
        shown = [rb"'x\ud800'", rb"'x\udc80'", b"'a'", b"'a'"]
        assert self.run_children(argvs) == [(EXIT_DATA, b"", message % id_) for id_ in shown]

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_a_lone_surrogate_in_a_scheme_name_is_refused(self, tmp_path, fmt):
        """Named in the file, or named by a file name's stem that holds a
        byte which is not UTF-8 (0x80, which the child reads as \\udc80)."""
        named, unnamed = tmp_path / "s.json", tmp_path / "\udc80.json"
        scheme = {"boundaries": ["0", "1/2", "1"], "weights": ["0", "1"]}
        named.write_text(json.dumps({"name": "s\udc80", **scheme}))
        unnamed.write_text(json.dumps(scheme))
        results = self.run_children([
            ["schemes", "--scheme", f"custom={path}", "--format", fmt] for path in (named, unnamed)
        ])
        assert results == [
            (EXIT_CONFIG, b"", f"pct: config error: scheme name {name!r} holds a lone surrogate\n"
             .encode()) for name in ("s\udc80", "\udc80")
        ]

    def test_a_closed_stdout_gives_one_line(self):
        result = self.run_with_closed(1, ["schemes"])
        assert (result.returncode, result.stderr) == (
            EXIT_OUTPUT, "pct: cannot write output: Bad file descriptor\n"
        )

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["report", "--help"]])
    def test_help_and_version_with_a_closed_stdout_give_one_line(self, argv):
        result = self.run_with_closed(1, argv)
        assert (result.returncode, result.stderr) == (
            EXIT_OUTPUT, "pct: cannot write output: Bad file descriptor\n"
        )

    @pytest.mark.parametrize("argv,start", [
        (["--version"], "pct 0.1.0\n"), (["--help"], "usage: pct "),
        (["report", "--help"], "usage: pct report "),
    ])
    def test_help_and_version_still_print_and_exit_0(self, run, capsys, argv, start):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(start)

    def test_a_closed_stdin_is_an_input_error(self):
        result = self.run_with_closed(0, ["indicators", "--scheme", "pr6", "--input", "-"])
        assert (result.returncode, result.stdout, result.stderr) == (
            EXIT_DATA, "", "pct: input error: cannot read input -: standard input is closed\n"
        )

    @pytest.mark.parametrize("code,argv", [
        (EXIT_DATA, ["indicators", "--scheme", "pr6", "--input", "absent.csv"]),
        (EXIT_CONFIG, ["indicators", "--scheme", "top7", "--input", "one.csv"]),
        (EXIT_BOUNDARY, ["attribute", "--scheme", "top50", "--rule", "midpoint",
                         "--boundary", "error", "--input", "one.csv"]),
        (EXIT_OK, ["attribute", "--scheme", "top50", "--rule", "midpoint",
                   "--input", "one.csv"]),
    ], ids=["data", "config", "boundary", "warning"])
    def test_a_closed_stderr_keeps_the_exit_code_and_stdout(self, run, tmp_path, code, argv):
        (tmp_path / "one.csv").write_text("id,citations\na,1\n")
        argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv]
        open_code, out, err = run(argv)
        assert (open_code, err[:5]) == (code, "pct: ")
        result = self.run_with_closed(2, argv)
        assert (result.returncode, result.stdout) == (code, out)

    def test_missing_input_file(self, run, tmp_path):
        code, _, err = run(
            ["attribute", "--scheme", "top50",
             "--input", str(tmp_path / "absent.csv")]
        )
        assert code == EXIT_DATA

    def test_unknown_scheme(self, run, five_file):
        code, _, err = run(
            ["attribute", "--scheme", "top7", "--input", five_file]
        )
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_usage_errors_exit_with_the_config_code(self, run, five_file):
        # report compares every counting rule, so it takes neither rule option.
        for argv in (
            ["attribute", "--scheme", "top50", "--input", five_file, "--rule", "bogus"],
            [],
            ["report", "--scheme", "pr6", "--input", five_file, "--rule", "midpoint"],
            ["report", "--scheme", "pr6", "--input", five_file, "--boundary", "upper"],
            # report and schemes print no decimals; schemes takes no rule either.
            ["report", "--scheme", "pr6", "--input", five_file, "--precision", "3"],
            ["schemes", "--rule", "midpoint"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == EXIT_CONFIG

    def test_version_flag(self, run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_the_cyclic_collector_is_left_as_it_was(self, capsys, five_file, tmp_path, enabled):
        """main pauses the collector for a run; on every way out, a code
        returned, a usage error or --help, the collector is as main found it."""
        bad = tmp_path / "bad.csv"
        bad.write_text("id,citations\nx,many\n")
        attribute = ["attribute", "--scheme", "top50", "--input", five_file]
        cases = [
            (EXIT_OK, attribute),
            (EXIT_DATA, ["attribute", "--scheme", "top50", "--input", str(bad)]),
            (EXIT_CONFIG, ["attribute", "--scheme", "top7", "--input", five_file]),
            (EXIT_BOUNDARY, [*attribute, "--rule", "midpoint", "--boundary", "error"]),
            (EXIT_CONFIG, ["attribute", "--rule", "bogus"]),
            (EXIT_OK, ["--help"]),
        ]
        was = gc.isenabled()
        try:
            for code, argv in cases:
                (gc.enable if enabled else gc.disable)()
                try:
                    assert main(argv) == code
                except SystemExit as exc:
                    assert exc.code == code
                assert gc.isenabled() is enabled, argv
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["attribute"], ["attribute", "--format", "json"], ["attribute", "--format", "csv"],
        ["attribute", "--rule", "midpoint", "--rounding", "floor", "--midpoint-route", "endpoints"],
        ["report", "--format", "json"],
    ], ids=["attribute", "attribute-json", "attribute-csv", "attribute-midpoint-endpoints",
            "report-json"])
    @pytest.mark.parametrize("tie", [1, 50], ids=["distinct", "tied"])
    def test_a_run_leaves_no_cyclic_garbage_that_grows_with_n(self, capsys, tmp_path, argv, tie):
        """With the collector paused, a run's reference cycles wait for the
        next collection. Their count must not depend on n: a cycle made per
        document would fail here rather than grow a run's memory."""

        def garbage(n):
            path = tmp_path / f"{n}.csv"
            path.write_text("id,citations\n" + "".join(f"d{i},{i // tie}\n" for i in range(n)))
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                assert main([*argv, "--scheme", "pr6", "--input", str(path)]) == EXIT_OK
                return gc.collect()
            finally:
                (gc.enable if was else gc.disable)()

        garbage(10)  # fills the caches a process fills once
        small, large = garbage(10), garbage(2_000)
        assert small == large and small < 1_000, (small, large)
        capsys.readouterr()


# Each run command's options in order: flags, dest, default, choices,
# required and help. argparse's own help action comes first in each.
INPUT = (["--input"], "input", "-", None, False, "input file (csv, tsv or json), or - for stdin")
FORMAT = (["--format"], "format", "table", ["table", "csv", "json"], False,
          "output format (default table; csv/json carry exact p/q values)")
PRECISION = (["--precision"], "precision", None, None, False,
             "significant digits for decimal renderings, 1 to 100 (default 4; env PCT_PRECISION)")
SCHEME = (["--scheme"], "scheme", None, None, True,
          "top50 | pr6 | pr100 | topx=<fraction> | custom=<path>")
RULE = (["--rule"], "rule", "fractional",
        ["count-worse", "count-worse-or-equal", "midpoint", "fractional"], False,
        "counting rule (default fractional)")
BOUNDARY = (["--boundary"], "boundary", None, ["lower", "upper", "error"], False,
            "class for a point landing on an interior boundary (default lower, with a warning)")
ROUNDING = (["--rounding"], "rounding", "none", ["floor", "ceil", "half-up", "none"], False,
            "rounding of 100*q before classification (default none)")
MIDPOINT_ROUTE = (["--midpoint-route"], "midpoint_route", "exact", ["exact", "endpoints"], False,
                  "midpoint taken exactly, or as the rounded middle of rounded endpoint "
                  "percentiles (default exact)")
RUN_OPTIONS = [INPUT, FORMAT, PRECISION, SCHEME, RULE, BOUNDARY, ROUNDING, MIDPOINT_ROUTE]


class TestParser:
    @pytest.fixture
    def commands(self):
        parser = build_parser()
        return next(action for action in parser._actions if action.dest == "command")

    def test_each_command_and_its_help(self, commands):
        assert [(action.dest, action.help) for action in commands._choices_actions] == [
            ("attribute", "per-document class attribution"),
            ("indicators", "I3, R and PP per group"),
            ("report", "boundary hits and cross-rule class disagreements"),
            ("schemes", "list built-in schemes or inspect/validate one"),
        ]

    @pytest.mark.parametrize("command,options", [
        ("attribute", RUN_OPTIONS),
        ("indicators", RUN_OPTIONS),
        ("report", [INPUT, FORMAT, SCHEME, ROUNDING, MIDPOINT_ROUTE]),
        ("schemes", [
            (["--scheme"], "scheme", None, None, False,
             "scheme to show in full (builtin selector or custom=<path>); "
             "omit to list the built-ins"),
            (["--format"], "format", "table", ["table", "csv", "json"], False, None),
        ]),
    ])
    def test_each_command_takes_its_options_in_order(self, commands, command, options):
        actions = commands.choices[command]._actions
        assert actions[0].option_strings == ["-h", "--help"]
        assert [
            (action.option_strings, action.dest, action.default,
             None if action.choices is None else list(action.choices),
             action.required, action.help)
            for action in actions[1:]
        ] == options
