from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pctrank.io
from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DataError,
    DocumentSet,
    MidpointRoute,
    RoundingMode,
    attribute_all,
    builtin_scheme,
    compare_rules,
    compute_indicators,
    rank,
    read_records,
    render_attributions,
)
from pctrank.io import (
    decimal_str,
    interval_percent_str,
    partition_by_group,
    percent_str,
    render_indicators,
    render_report,
    render_scheme_detail,
    render_scheme_list,
)
from pctrank.model import scheme_from_boundaries
from support import columns, make_distinct, make_tied

F = Fraction

CSV_TEXT = """id,citations,group
a,12,alpha
b,7,alpha
c,3,beta
"""


class TestReadRecords:
    def test_comma_delimited(self):
        records = read_records(io.StringIO(CSV_TEXT))
        assert [(r.doc_id, r.citations, r.group) for r in records] == [
            ("a", 12, "alpha"), ("b", 7, "alpha"), ("c", 3, "beta"),
        ]

    def test_tab_delimited(self):
        text = "id\tcitations\nx\t4\ny\t9\n"
        records = read_records(io.StringIO(text))
        assert [(r.doc_id, r.citations, r.group) for r in records] == [
            ("x", 4, None), ("y", 9, None),
        ]

    def test_header_case_and_padding_are_forgiven(self):
        records = read_records(io.StringIO("ID , Citations\n a , 5\n"))
        assert records[0].doc_id == "a"
        assert records[0].citations == 5

    def test_blank_lines_are_skipped(self):
        records = read_records(io.StringIO("id,citations\na,1\n\n\nb,2\n"))
        assert [r.doc_id for r in records] == ["a", "b"]

    @pytest.mark.parametrize("lead", ["\n", "\n\n", " \n\t\n", "\r\n\r\n"])
    @pytest.mark.parametrize("text", [CSV_TEXT, CSV_TEXT.replace(",", "\t")])
    def test_blank_lines_before_the_header_are_skipped(self, lead, text):
        assert read_records(io.StringIO(lead + text)) == read_records(io.StringIO(text))

    def test_tab_header_after_blank_lines_is_sniffed_as_tab(self):
        # Comma-delimited, this would be one id "a,b" and no citations column.
        records = read_records(io.StringIO("\n\nid\tcitations\na,b\t3\n"))
        assert [(r.doc_id, r.citations) for r in records] == [("a,b", 3)]

    @pytest.mark.parametrize(
        "text,line",
        [
            ("\n\nid,citations\na,1\n\nb,x\n", 6),
            ("\n \nid\tcitations\na\t1\nb\t2\t3\n", 5),
            ("\n\nid,count\na,1\n", 3),
        ],
    )
    def test_errors_after_leading_blank_lines_give_the_true_line(self, text, line):
        with pytest.raises(DataError) as err:
            read_records(io.StringIO(text))
        assert str(err.value).startswith(f"line {line}:")

    def test_file_path(self, tmp_path):
        path = tmp_path / "docs.csv"
        path.write_text(CSV_TEXT)
        assert len(read_records(path)) == 3
        assert len(read_records(str(path))) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_records(tmp_path / "absent.csv")

    def test_json_list(self):
        text = json.dumps([
            {"id": "a", "citations": 12, "group": "alpha"},
            {"id": "b", "citations": 7},
        ])
        records = read_records(io.StringIO(text))
        assert [(r.doc_id, r.citations, r.group) for r in records] == [
            ("a", 12, "alpha"), ("b", 7, None),
        ]

    def test_json_documents_wrapper(self):
        text = json.dumps({"documents": [{"id": "a", "citations": 0}]})
        records = read_records(io.StringIO(text))
        assert records[0].citations == 0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("id,citations\n", "no data rows"),
            ("id,citations,color\na,1,red\n", "unknown column"),
            ("id,id,citations\na,a,1\n", "repeated column"),
            ("id,count\na,1\n", "unknown column"),
            ("citations,group\n1,x\n", "id and citations"),
            ("id,citations\na,1,extra\n", "expected 2 columns"),
            ("id,citations\n,1\n", "line 2: document id must be a non-empty string"),
            ("id,citations\na,1.5\n", "non-negative integer"),
            ("id,citations\na,-2\n", "non-negative integer"),
            ("id,citations\na,1e3\n", "non-negative integer"),
            ("id,citations\na,\n", "non-negative integer"),
        ],
    )
    def test_rejected_delimited_input(self, text, fragment):
        with pytest.raises(DataError) as err:
            read_records(io.StringIO(text))
        assert fragment in str(err.value)

    @pytest.mark.parametrize("digits", ["٣", "１", "²", "1٣"])
    def test_citations_other_than_ascii_digits_are_refused(self, digits):
        message = f"^line 3: citations must be a base-10 non-negative integer, got '{digits}'$"
        with pytest.raises(DataError, match=message):
            read_records(io.StringIO(f"id,citations\na,1\nb,{digits}\n"))

    @pytest.mark.parametrize("row", ["b\ud800,2,g", "b,2,\udc80g"])
    def test_a_lone_surrogate_in_a_text_stream_is_refused(self, row):
        # Files and stdin are decoded as UTF-8, which refuses surrogates; a
        # text stream passed in may still hold one.
        message = f"the id or group of {row.split(',')[0]!r} holds a lone surrogate"
        with pytest.raises(DataError, match=f"^line 3: {re.escape(message)}$"):
            read_records(io.StringIO(f"id,citations,group\na,1,g\n{row}\n"))

    def test_duplicate_ids_name_both_lines(self):
        text = "id,citations\na,1\nb,2\na,3\n"
        with pytest.raises(DataError) as err:
            read_records(io.StringIO(text))
        message = str(err.value)
        assert message.startswith("line 4:")
        assert "first seen on line 2" in message

    def test_quoted_newline_stays_in_the_id(self):
        text = 'id,citations\n"a\nb",1\n"c\r\nd",2\n'
        records = read_records(io.StringIO(text, newline=""))
        assert [r.doc_id for r in records] == ["a\nb", "c\r\nd"]

    def test_line_numbers_count_the_lines_a_quoted_newline_spans(self):
        text = 'id,citations\n"a\nb",1\nc,x\n'
        with pytest.raises(DataError) as err:
            read_records(io.StringIO(text))
        assert str(err.value).startswith("line 4:")

    @pytest.mark.parametrize(
        "text",
        ["\ufeffid,citations\na,1\n", '\ufeff[{"id": "a", "citations": 1}]'],
    )
    def test_leading_byte_order_mark_is_ignored(self, text):
        records = read_records(io.StringIO(text))
        assert [(r.doc_id, r.citations) for r in records] == [("a", 1)]

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ("[]", "no documents"),
            ('{"rows": []}', "documents"),
            ('{"documents": [{"id": "a", "citations": 1}], "documents2": 5}',
             "unknown field(s) beside \"documents\": 'documents2'"),
            ('[{"id": "a", "citations": 1, "extra": 2}]', "unknown field"),
            ('[{"citations": 1}]', "document 1: document id must be a non-empty string"),
            ('[{"id": "a"}]', "document 1: citations for 'a' must be an integer"),
            ('[{"id": "a", "citations": true}]', "document 1: citations for 'a' must be an integer"),
            ('[{"id": "a", "citations": -1}]', "document 1: citations for 'a' must be non-negative"),
            ('[{"id": "a", "citations": "7"}]', "document 1: citations for 'a' must be an integer"),
            ('[{"id": "a", "citations": 1, "group": 3}]', "document 1: group for 'a' must be a string"),
            ('[{"id": "a", "citations": 1}, {"id": "a", "citations": 2}]',
             "document 2: duplicate document id 'a' (first seen as document 1)"),
            ("[3]", "expected an object"),
            ("[", "invalid JSON"),
            ('[{"id": "a", "citations": 1, "citations": 7}, {"id": "b", "citations": 2}]',
             "repeated key 'citations' in a JSON object"),
            ('{"documents": [{"id": "a", "citations": 1}], '
             '"documents": [{"id": "b", "citations": 2}]}',
             "repeated key 'documents' in a JSON object"),
            ('[{"id": "a:b", "citations": 1, "citations": 7}]', "repeated key 'citations'"),
            ('[{"id": "a", "citations": 1, "group": {"x": 1, "x": 2}}]', "repeated key 'x'"),
        ],
    )
    def test_rejected_json_input(self, payload, fragment):
        with pytest.raises(DataError) as err:
            read_records(io.StringIO(payload))
        assert fragment in str(err.value)

    def test_repeats_nested_near_the_recursion_limit_are_data_errors(self):
        """At every depth around the limit, objects that each repeat a key
        give a DataError, either for the repeat or for the depth."""
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit + 20):
            text = '[{"id": "a", "citations": 1, "group": ' + '{"k": 0, "k": ' * depth
            with pytest.raises(DataError):
                read_records(io.StringIO(text + "0" + "}" * depth + "}]"))


# Characters the csv and json writers must quote or escape, non-ASCII ones
# (one outside the BMP) and whitespace, mixed with any other character.
AWKWARD_CHARS = [",", '"', "'", "\t", "\r", "\n", " ", "\\", "é", "漢", "😀", "\u2028"]
NAME_CHARS = st.one_of(
    st.sampled_from(AWKWARD_CHARS),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
)


def names(delimited: bool):
    """Ids and group names. No reader takes a blank name as a name. The csv
    and tsv readers trim every cell, so names written to them start and end
    with no whitespace; JSON keeps other names as written."""
    text = st.text(NAME_CHARS, min_size=1, max_size=8).filter(str.strip)
    return text.filter(lambda name: name == name.strip()) if delimited else text


def record_lists(delimited: bool):
    record = st.builds(
        CitationRecord,
        names(delimited),
        st.integers(min_value=0, max_value=10**20),
        st.none() | names(delimited),
    )
    return st.lists(record, min_size=1, max_size=8, unique_by=lambda r: r.doc_id)


class TestRoundTrip:
    """Records written by the csv and json modules read back unchanged."""

    @settings(max_examples=75, deadline=None)
    @given(records=record_lists(delimited=True), delimiter=st.sampled_from([",", "\t"]))
    def test_delimited(self, records, delimiter):
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, delimiter=delimiter)
        writer.writerow(["id", "citations", "group"])
        writer.writerows([r.doc_id, r.citations, r.group or ""] for r in records)
        assert read_records(io.StringIO(buffer.getvalue(), newline="")) == records

    @settings(max_examples=75, deadline=None)
    @given(records=record_lists(delimited=False), wrapped=st.booleans())
    def test_json(self, records, wrapped):
        rows = [
            {"id": r.doc_id, "citations": r.citations,
             **({} if r.group is None else {"group": r.group})}
            for r in records
        ]
        text = json.dumps({"documents": rows} if wrapped else rows)
        assert read_records(io.StringIO(text)) == records

    def test_csv_trims_an_id_that_json_keeps_as_written(self):
        [from_csv] = read_records(io.StringIO('id,citations\n" pad ",1\n'))
        [from_json] = read_records(io.StringIO('[{"id": " pad ", "citations": 1}]'))
        assert (from_csv.doc_id, from_json.doc_id) == ("pad", " pad ")

    @pytest.mark.parametrize("blank", [" ", "\t", " \r\n "])
    def test_a_blank_id_is_refused_in_every_format(self, blank):
        message = "document id must be a non-empty string"
        with pytest.raises(DataError, match=f"^{message}$"):
            CitationRecord(blank, 2)
        with pytest.raises(DataError, match=f"^line 2: {message}$"):
            read_records(io.StringIO(f'id,citations\n"{blank}",1\n'))
        payload = json.dumps([{"id": "a", "citations": 1}, {"id": blank, "citations": 2}])
        with pytest.raises(DataError, match=f"^document 2: {message}$"):
            read_records(io.StringIO(payload))

    @pytest.mark.parametrize("blank", [" ", "\t"])
    def test_a_blank_group_is_no_group_in_every_format(self, blank):
        from_csv = read_records(io.StringIO(f'id,citations,group\na,1,"{blank}"\nb,2,\n'))
        from_json = read_records(io.StringIO(json.dumps([
            {"id": "a", "citations": 1, "group": blank}, {"id": "b", "citations": 2},
        ])))
        assert from_csv == from_json == [CitationRecord("a", 1), CitationRecord("b", 2)]
        assert list(partition_by_group(from_json)) == ["default"]


def read_outcome(text: str):
    """The records read_records gives text, or its DataError message."""
    try:
        return read_records(io.StringIO(text, newline=""))
    except DataError as exc:
        return f"DataError: {exc}"


def record_message(*fields) -> str | None:
    """The DataError message CitationRecord gives fields, or None."""
    try:
        CitationRecord(*fields)
    except DataError as exc:
        return str(exc)
    return None


def row_loop_outcome(text: str):
    """read_outcome with every column check failing, so that each reader
    runs its row loop alone."""
    with mock.patch.object(pctrank.io, "_checked_columns", lambda *columns: None):
        return read_outcome(text)


INT_DIGITS = sys.get_int_max_str_digits() or 4300
FIELD_LIMIT = csv.field_size_limit()
BLANK_LINES = ["", " ", "\t", " \t "]
# Cells that some row check refuses, or that only a row loop reads right.
SPECIAL_CELLS = {
    "id": ["", " ", " pad ", "d0", "x y", "é", 'q"x', '"d1"', "a\rb", "a\0b", "a\ud800b",
           "x" * FIELD_LIMIT, "x" * (FIELD_LIMIT + 1)],
    "citations": ["", " 3 ", "007", "٣", "１", "²", "+1", "-1", "1.5", "1e3", "x",
                  "9" * INT_DIGITS, "9" * (INT_DIGITS + 1)],
    "group": ["", " ", " g2 ", "default", "a\0b", "\udc80", "x" * (FIELD_LIMIT + 1)],
}
# JSON texts of values that some row check refuses, by field.
SPECIAL_JSON = {
    "id": ['""', '" "', '" pad "', '"d0"', "3", "null", "true", '"a\\u0000b"',
           '"a\\ud800b"', '"\\ud83d\\ude00"'],
    "citations": ["true", "false", "1.5", "2.0", "1e2", "-1", '"7"', "null",
                  "9" * (INT_DIGITS + 1)],
    "group": ['""', '" "', '"g1"', "3", "null", "false", '"a\\u0000b"', '"\\udc80"'],
    "extra": ["1"],
}


@st.composite
def delimited_inputs(draw):
    """csv or tsv, mostly clean, with blank lines, CRLF, quoted fields,
    trailing delimiters, short and long rows and special cells injected."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    header = draw(st.permutations(["id", "citations", "group"]))
    if draw(st.booleans()):
        header.remove("group")
    lines = draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
    lines.append(delimiter.join(header))
    for i in range(draw(st.integers(1, 6))):
        cells = {"id": f"d{i}", "citations": str(draw(st.integers(0, 99))),
                 "group": draw(st.sampled_from(["", "g1", "g2"]))}
        if draw(st.integers(0, 5)) == 0:
            name = draw(st.sampled_from(header))
            cells[name] = draw(st.sampled_from(SPECIAL_CELLS[name]))
        row = [cells[name] for name in header]
        shape = draw(st.sampled_from(["plain"] * 16 + ["quoted", "trailing", "short", "long"]))
        if shape == "quoted":
            at = draw(st.integers(0, len(row) - 1))
            row[at] = '"' + row[at].replace('"', '""') + '"'
        elif shape == "trailing":
            row.append("")
        elif shape == "short":
            row.pop()
        elif shape == "long":
            row.append("1")
        lines.append(delimiter.join(row))
        lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=1))
    end = draw(st.sampled_from([newline, "", newline + " " + newline]))
    return newline.join(lines) + end


@st.composite
def json_inputs(draw):
    """JSON lists or {"documents": [...]}, mostly clean, with booleans,
    floats, integers read as Decimals, blank groups, other types, unknown
    fields, missing fields and non-object rows injected."""
    rows = []
    for i in range(draw(st.integers(0, 6))):
        fields = {"id": f'"d{i}"', "citations": str(draw(st.integers(0, 99)))}
        if draw(st.booleans()):
            fields["group"] = draw(st.sampled_from(['"g1"', '"g2"', '""']))
        injected = draw(st.integers(0, 7))
        if injected == 0:
            name = draw(st.sampled_from(sorted(SPECIAL_JSON)))
            fields[name] = draw(st.sampled_from(SPECIAL_JSON[name]))
        elif injected == 1:
            del fields[draw(st.sampled_from(["id", "citations"]))]
        rows.append(
            "{" + ", ".join(f'"{name}": {value}' for name, value in fields.items()) + "}"
            if draw(st.integers(0, 19)) else draw(st.sampled_from(["3", "[]", "null"]))
        )
    text = "[" + ", ".join(rows) + "]"
    return f'{{"documents": {text}}}' if draw(st.booleans()) else text


class TestColumnChecks:
    """The column checks take the records straight from whole columns; when
    any check fails, the reader's row loop runs as it always did."""

    @settings(max_examples=80, deadline=None)
    @given(text=st.one_of(delimited_inputs(), json_inputs()))
    def test_columns_and_row_loop_agree(self, text):
        assert read_outcome(text) == row_loop_outcome(text)

    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["csv", "tsv"])
    @pytest.mark.parametrize("name,cell", [
        pytest.param(name, cell, id=f"{name}-{i}")
        for name, cells in SPECIAL_CELLS.items() for i, cell in enumerate(cells)
    ])
    def test_each_special_cell(self, name, cell, delimiter):
        rows = [{"id": f"d{i}", "citations": str(i), "group": "g"} for i in range(3)]
        rows[1][name] = cell
        text = "\n".join(
            delimiter.join(row) for row in [["id", "citations", "group"]]
            + [[row["id"], row["citations"], row["group"]] for row in rows]
        ) + "\n"
        outcome = read_outcome(text)
        assert outcome == row_loop_outcome(text)
        # Where csv reads the cell as written and the count is plain digits,
        # no format check applies: the error is CitationRecord's own.
        doc_id, count, group = (rows[1][key].strip() for key in ("id", "citations", "group"))
        read_as_written = not re.search('["\r]', cell) and len(cell) <= FIELD_LIMIT
        if read_as_written and count.isascii() and count.isdigit() and len(count) <= INT_DIGITS:
            message = record_message(doc_id, int(count), group)
            if message:
                assert outcome == f"DataError: line 3: {message}"

    @pytest.mark.parametrize("name,value", [
        pytest.param(name, value, id=f"{name}-{i}")
        for name, values in SPECIAL_JSON.items() for i, value in enumerate(values)
    ] + [pytest.param(None, "3", id="number-row"), pytest.param(None, "[]", id="list-row")])
    def test_each_special_json_value(self, name, value):
        fields = [{"id": f'"d{i}"', "citations": str(i), "group": '"g"'} for i in range(3)]
        # The value replaces a field of the middle row, or is added beside them.
        fields[1][name] = value
        rows = ["{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}" for row in fields]
        rows[1] = value if name is None else rows[1]
        text = "[" + ", ".join(rows) + "]"
        outcome = read_outcome(text)
        assert outcome == row_loop_outcome(text)
        # Format checks refuse a row that is not an object, an unknown field
        # and an integer too long to read; for any other row the error is
        # CitationRecord's own.
        if name in ("id", "citations", "group") and value != "9" * (INT_DIGITS + 1):
            row = json.loads(rows[1])
            message = record_message(row.get("id"), row.get("citations"), row.get("group"))
            if message:
                assert outcome == f"DataError: document 2: {message}"

    @pytest.mark.parametrize("text", [
        "id,citations\na,1\nb,2,\n",
        "id,citations\na,1\nb\n",
        "id,citations\na,1\r\nb,2\r\n",
        "id,citations\r\na,1\nb,2\r\n",
        "id,citations\r\na,1\r\n\r\nb,2\r\r\n",
        "id,citations\na,1\n\nb,2\n \n",
        "id,citations\na,1\n , \nb,2\n",
        "id,citations\na,1\rb,2\n",
        'id,citations\n"a",1\n"b,c",2\n',
        "id\tcitations\na\t1\t\n",
        "id,citations\n",
        "id,citations,group\na,1,default\nb,2,\n",
    ])
    def test_each_row_shape(self, text):
        assert read_outcome(text) == row_loop_outcome(text)

    @pytest.mark.parametrize("text", [
        CSV_TEXT,
        CSV_TEXT.replace(",", "\t"),
        CSV_TEXT.replace("\n", "\r\n"),
        "\r\n" + CSV_TEXT.replace(",", " \t").replace("\n", " \r\n"),
        "\n \n" + CSV_TEXT,
        CSV_TEXT.rstrip("\n"),
        "id,citations\n a , 5\nb,007\n",
        "group,citations,id\n,1,a\n \t,2,b\ng,3,c\n",
        json.dumps([{"id": "a", "citations": 12, "group": "alpha"}, {"id": " b", "citations": 0}]),
        json.dumps({"documents": [{"id": "a", "citations": 1, "group": " "}]}),
    ])
    def test_clean_input_never_enters_a_row_loop(self, text):
        checked, original = [], pctrank.io._checked_columns

        def spy(*columns):
            checked.append(original(*columns))
            return checked[-1]

        with mock.patch.object(pctrank.io, "_checked_columns", spy):
            records = read_records(io.StringIO(text))
        # The records are the ones the column checks built.
        assert len(checked) == 1 and records is checked[0]
        assert records == row_loop_outcome(text)


class TestPartitionByGroup:
    def test_groups_sorted_and_default_applied(self):
        records = read_records(io.StringIO("id,citations\nx,1\ny,2\n"))
        records += read_records(io.StringIO(CSV_TEXT))
        sets = partition_by_group(records)
        assert list(sets) == ["alpha", "beta", "default"]
        assert sets["alpha"].n == 2
        assert sets["default"].n == 2

    def test_explicit_default_group_alone_is_kept(self):
        records = read_records(io.StringIO("id,citations,group\na,1,default\nb,2,default\n"))
        assert partition_by_group(records)["default"].n == 2

    def test_explicit_default_group_beside_ungrouped_rows_is_rejected(self):
        records = read_records(io.StringIO("id,citations,group\na,1,default\nb,2,\n"))
        with pytest.raises(DataError) as err:
            partition_by_group(records)
        assert "'default'" in str(err.value)


class TestDisplayStrings:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (F(107, 25), "4.28"),
            (F(107, 200), "0.535"),
            (F(2356, 25), "94.24"),
            (F(589, 50), "11.78"),
            (F(191, 100), "1.91"),
            (F(375, 4), "93.75"),
            (F(101, 2), "50.5"),
            (F(1, 3), "0.3333"),
            (F(1, 2), "0.5"),
            (F(0), "0"),
            (F(1910), "1910"),
        ],
    )
    def test_decimal_default_precision(self, value, expected):
        assert decimal_str(value) == expected

    def test_decimal_precision_knob(self):
        assert decimal_str(F(5, 3), 4) == "1.667"
        assert decimal_str(F(5, 3), 6) == "1.66667"
        assert decimal_str(F(5, 3), 1) == "2"

    @pytest.mark.parametrize(
        "value,expected",
        [
            (F(2, 5), "40%"),
            (F(1, 2), "50%"),
            (F(1, 3), "33.33%"),
            (F(99, 200), "49.5%"),
            (F(74, 75), "98.67%"),
            (F(149, 150), "99.33%"),
            (F(1001, 2000), "50.05%"),
            (F(0), "0%"),
            (F(1), "100%"),
            (F(1, 20000), "0.01%"),  # an exact half of the last digit rounds up
        ],
    )
    def test_percent(self, value, expected):
        assert percent_str(value) == expected

    def test_interval_percent(self):
        assert interval_percent_str(F(2, 5), F(3, 5)) == "40%–60%"


def one_batch(ranked, scheme, rule, **kwargs):
    return [("default", ranked, attribute_all(ranked, scheme, rule, **kwargs))]


class TestRenderAttributions:
    def test_fractional_csv_cells_are_exact(self, five_ranked):
        scheme = builtin_scheme("top50")
        text = render_attributions(
            one_batch(five_ranked, scheme, CountingRule.FRACTIONAL),
            scheme, CountingRule.FRACTIONAL, fmt="csv",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        d3 = next(row for row in rows if row["id"] == "d3")
        assert F(d3["interval_low"]) == F(2, 5)
        assert F(d3["interval_high"]) == F(3, 5)
        assert F(d3["score"]) == F(1, 2)
        assert (F(d3["f_1"]), F(d3["f_2"])) == (F(1, 2), F(1, 2))

    def test_point_csv_keeps_unrounded_percentile_exact(self, eight_ranked):
        scheme = builtin_scheme("pr100")
        text = render_attributions(
            one_batch(eight_ranked, scheme, CountingRule.MIDPOINT),
            scheme, CountingRule.MIDPOINT, fmt="csv",
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        d8 = next(row for row in rows if row["id"] == "d8")
        assert d8["quantile"] == "15/16"
        assert F(d8["percentile"]) == F(375, 4)
        assert d8["class"] == "94"
        assert d8["ambiguous"] == "false"
        assert d8["boundary"] == ""

    def test_table_shows_decimal_percentile(self, eight_ranked):
        scheme = builtin_scheme("pr100")
        text = render_attributions(
            one_batch(eight_ranked, scheme, CountingRule.MIDPOINT),
            scheme, CountingRule.MIDPOINT, fmt="table",
        )
        assert "93.75" in text
        header, separator = text.splitlines()[1:3]
        assert header.startswith("id")
        assert set(separator) <= {"-", " "}

    def test_endpoint_column_only_on_the_endpoints_route(self, five_ranked):
        scheme = builtin_scheme("top50")
        kwargs = dict(
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
            midpoint_route=MidpointRoute.ENDPOINTS,
        )
        with_route = render_attributions(
            one_batch(five_ranked, scheme, CountingRule.MIDPOINT, **kwargs),
            scheme, CountingRule.MIDPOINT, fmt="csv", **kwargs,
        )
        without = render_attributions(
            one_batch(five_ranked, scheme, CountingRule.MIDPOINT,
                      rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER),
            scheme, CountingRule.MIDPOINT, fmt="csv",
            rounding=RoundingMode.FLOOR, policy=BoundaryPolicy.LOWER,
        )
        assert "endpoint_pcts" in with_route.splitlines()[0]
        assert "endpoint_pcts" not in without.splitlines()[0]

    def test_json_envelope(self, five_ranked):
        scheme = builtin_scheme("top50")
        text = render_attributions(
            one_batch(five_ranked, scheme, CountingRule.FRACTIONAL),
            scheme, CountingRule.FRACTIONAL, fmt="json",
        )
        payload = json.loads(text)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "attribute"
        assert payload["scheme"]["name"] == "top50"
        [group] = payload["groups"]
        assert group["group"] == "default"
        assert group["n"] == 5
        assert group["documents"][2]["fractions"] == ["1/2", "1/2"]

    def test_rendering_is_deterministic(self, five_ranked):
        scheme = builtin_scheme("top50")
        calls = [
            render_attributions(
                one_batch(five_ranked, scheme, CountingRule.FRACTIONAL),
                scheme, CountingRule.FRACTIONAL, fmt=fmt,
            )
            for fmt in ("table", "csv", "json")
            for _ in range(2)
        ]
        assert calls[0] == calls[1]
        assert calls[2] == calls[3]
        assert calls[4] == calls[5]

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_attributions_must_cover_the_ranked_set(self, five_ranked, fmt):
        scheme = builtin_scheme("top50")
        attributions = attribute_all(five_ranked, scheme, CountingRule.FRACTIONAL)
        with pytest.raises(ValueError, match="4 attributions for a ranked set of 5"):
            render_attributions(
                [("g", five_ranked, attributions[:4])], scheme, CountingRule.FRACTIONAL,
                fmt=fmt,
            )

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("made_under,shown_under", [("pr6", "pr100"), ("pr100", "top50")])
    def test_fractional_attributions_of_another_scheme_are_refused(
        self, five_ranked, fmt, made_under, shown_under
    ):
        """A tie group's score and overlapped classes come from the scheme
        shown, so its head's fractions tuple must have one cell per class."""
        attributions = attribute_all(
            five_ranked, builtin_scheme(made_under), CountingRule.FRACTIONAL
        )
        with pytest.raises(ValueError, match=r"^attribution for 'd1' does not match the scheme$"):
            render_attributions(
                [("g", five_ranked, attributions)], builtin_scheme(shown_under),
                CountingRule.FRACTIONAL, fmt=fmt,
            )

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("made_under,shown_under", [("pr6", "tenths"), ("tenths", "pr6")])
    def test_fractional_attributions_of_a_scheme_with_as_many_classes_are_refused(
        self, fmt, made_under, shown_under
    ):
        """Three distinct documents under pr6 and under six classes cut at
        tenths: the same k, but other overlapped classes. Unchecked, d2's pr6
        fractions under the tenths scheme render as a row whose cells sum to
        0 (score 53/10, every fraction 0)."""
        ranked = rank(make_distinct(3))
        schemes = {"pr6": builtin_scheme("pr6"), "tenths": scheme_from_boundaries(
            "tenths", [F(0), *(F(i, 10) for i in range(1, 6)), F(1)], [F(w) for w in range(1, 7)]
        )}
        made, shown = schemes[made_under], schemes[shown_under]
        attributions = attribute_all(ranked, made, CountingRule.FRACTIONAL)
        with pytest.raises(ValueError, match=r"^attribution for 'd1' does not match the scheme$"):
            render_attributions([("g", ranked, attributions)], shown, CountingRule.FRACTIONAL,
                                fmt=fmt)
        # One document's attribution from the other scheme among the right ones.
        right = attribute_all(ranked, shown, CountingRule.FRACTIONAL)
        for index, doc_id in enumerate(["d1", "d2", "d3"]):
            mixed = [*right[:index], attributions[index], *right[index + 1:]]
            with pytest.raises(ValueError, match=rf"^attribution for '{doc_id}' does not match"):
                render_attributions([("g", ranked, mixed)], shown, CountingRule.FRACTIONAL,
                                    fmt=fmt)

    @pytest.mark.parametrize("rule", [CountingRule.FRACTIONAL, CountingRule.MIDPOINT])
    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_each_tie_group_is_formatted_once(self, monkeypatch, fmt, rule):
        """A tie group's cells or JSON text are made from its head, once: one
        _ratio_str per tie group, as each interval end is one group's high
        end and the next one's low end, and under the fractional rule one
        _fractional_score per distinct fractions tuple. Formatting per member
        would call both once per document."""
        scheme = builtin_scheme("pr100")
        rng = random.Random(5)
        pareto = DocumentSet(tuple(
            CitationRecord(f"p{i:03d}", int(rng.paretovariate(1.2)) - 1) for i in range(400)
        ))
        batches = [
            (key, ranked, attribute_all(ranked, scheme, rule, policy=BoundaryPolicy.LOWER))
            for key, ranked in (("tied", rank(make_tied(300))), ("pareto", rank(pareto)))
        ]
        calls = Counter()

        def counted(name):
            function = getattr(pctrank.io, name)

            def spy(*args):
                calls[name] += 1
                return function(*args)
            monkeypatch.setattr(pctrank.io, name, spy)

        counted("_fractional_score")
        counted("_ratio_str")
        render_attributions(batches, scheme, rule, policy=BoundaryPolicy.LOWER, fmt=fmt)
        documents = sum(ranked.n for _, ranked, _ in batches)
        tie_groups = sum(len(ranked.groups) for _, ranked, _ in batches)
        assert calls["_ratio_str"] == tie_groups < documents
        fractions = {
            id(a.fractions) for _, _, attributions in batches for a in attributions
        } if rule is CountingRule.FRACTIONAL else set()
        assert calls["_fractional_score"] == len(fractions)


class TestRenderIndicators:
    def test_csv_row(self, eight_ranked):
        scheme = builtin_scheme("pr6")
        result = compute_indicators(eight_ranked, scheme, CountingRule.FRACTIONAL)
        text = render_indicators([("default", result)], scheme, fmt="csv")
        [row] = list(csv.DictReader(io.StringIO(text)))
        assert row["i3"] == "382/25"
        assert row["r"] == "191/100"
        assert row["pp"] == ""
        assert row["theoretical"] == "382/25"
        assert row["difference"] == "0"

    def test_table_shows_exact_and_decimal(self, eight_ranked):
        scheme = builtin_scheme("pr6")
        result = compute_indicators(eight_ranked, scheme, CountingRule.FRACTIONAL)
        text = render_indicators([("default", result)], scheme, fmt="table")
        assert "382/25 (15.28)" in text
        assert "191/100 (1.91)" in text


class TestRenderReport:
    def test_json_sections(self, five_ranked):
        scheme = builtin_scheme("top50")
        report = compare_rules(five_ranked, scheme)
        text = render_report([("default", five_ranked, report)], scheme, fmt="json")
        [group] = json.loads(text)["groups"]
        [flag] = group["flags"]
        assert flag == {
            "rule": "midpoint",
            "id": "d3",
            "quantile": "1/2",
            "boundary": "1/2",
            "interval": {"low": "2/5", "high": "3/5"},
        }
        [disagreement] = group["disagreements"]
        assert disagreement["classes"] == {
            "count-worse": 1, "count-worse-or-equal": 2, "midpoint": 1,
        }
        assert group["fractional_class_counts"] == ["5/2", "5/2"]
        assert group["summary"]["disagreements"] == 1

    def test_csv_flat_rows(self, five_ranked):
        scheme = builtin_scheme("top50")
        report = compare_rules(five_ranked, scheme)
        text = render_report([("default", five_ranked, report)], scheme, fmt="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        kinds = [row["record"] for row in rows]
        assert kinds == ["flag", "disagreement", "fractional_count", "fractional_count"]
        assert rows[0]["boundary"] == "1/2"
        assert rows[1]["class_count_worse"] == "1"
        assert rows[2]["count"] == "5/2"

    def test_table_mentions_empty_sections(self):
        # a single-class scheme has no interior boundary to hit or disagree on
        scheme = scheme_from_boundaries("all", [F(0), F(1)], [F(1)])
        ranked = rank(
            partition_by_group(
                read_records(io.StringIO("id,citations\nl,1\nh,9\n"))
            )["default"]
        )
        report = compare_rules(ranked, scheme)
        text = render_report([("default", ranked, report)], scheme, fmt="table")
        assert "boundary hits:\n  none" in text
        assert "class disagreements:\n  none" in text


# ASCII, wide (W), fullwidth (F), nonspacing (Mn) and enclosing (Me) marks.
_WIDTH_CHARS = ["a", "b", "7", "字", "😀", "\uff21", "\u0301", "\u20dd"]


def table_column_starts(line: str) -> set[int]:
    """The terminal column at which each cell of a table line starts: the
    first character and each one after two spaces."""
    return {
        columns(line[:p]) for p, c in enumerate(line)
        if c != " " and (p == 0 or line[p - 2:p] == "  ")
    }


def tables(text: str) -> list[list[str]]:
    """Each table in a table output: its header, its rule line and its rows,
    up to the next section, label or blank line."""
    lines, found = text.splitlines(), []
    for i, line in enumerate(lines):
        if line and set(line) <= {"-", " "}:
            rows = []
            for row in lines[i + 1:]:
                if not row or row.endswith(":") or row.startswith(("# ", "fractional class")):
                    break
                rows.append(row)
            found.append([lines[i - 1], line, *rows])
    return found


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.text(_WIDTH_CHARS, min_size=1, max_size=4), min_size=2, max_size=8,
                 unique=True),
    keys=st.lists(st.text(_WIDTH_CHARS, min_size=1, max_size=4), min_size=1, max_size=3,
                  unique=True),
)
def test_every_table_column_starts_at_one_terminal_column(ids, keys):
    """Ids and group keys of wide, combining and ASCII characters: in every
    attribute, indicators and report table, each cell of every line starts
    at a terminal column where a header cell starts."""
    ranked = rank(DocumentSet(tuple(map(CitationRecord, ids, range(len(ids))))))
    scheme = builtin_scheme("top50")
    texts = [
        render_attributions(one_batch(ranked, scheme, rule, policy=BoundaryPolicy.LOWER),
                            scheme, rule, policy=BoundaryPolicy.LOWER)
        for rule in (CountingRule.FRACTIONAL, CountingRule.COUNT_WORSE)
    ]
    result = compute_indicators(ranked, scheme, CountingRule.FRACTIONAL)
    texts.append(render_indicators([(key, result) for key in sorted(keys)], scheme))
    texts.append(render_report([(keys[0], ranked, compare_rules(ranked, scheme))], scheme))
    checked = 0
    for text in texts:
        for header, *lines in tables(text):
            starts = table_column_starts(header)
            for line in lines:
                assert table_column_starts(line) <= starts, (header, line)
                checked += 1
    assert checked >= 2 * len(ids) + len(keys)


class TestRenderSchemes:
    def test_detail_table_marks_the_closed_top_class(self):
        text = render_scheme_detail(builtin_scheme("pr6"))
        assert "[99/100, 1]" in text
        assert "[19/20, 99/100)" in text

    def test_detail_json_round_trips_the_definition(self):
        payload = json.loads(render_scheme_detail(builtin_scheme("top50"), fmt="json"))
        assert payload["boundaries"] == ["0", "1/2", "1"]
        assert payload["weights"] == ["0", "1"]
        assert payload["classes"][1] == {
            "index": 2, "lower": "1/2", "upper": "1", "weight": "1",
        }

    def test_list_formats(self):
        schemes = [builtin_scheme("top50"), builtin_scheme("pr100")]
        table = render_scheme_list(schemes)
        assert "1 .. 100" in table  # long weight runs are elided
        csv_text = render_scheme_list(schemes, fmt="csv")
        assert csv_text.splitlines()[1] == "top50,2"


@pytest.mark.parametrize("fmt", ["CSV", "xml"])
@pytest.mark.parametrize("render", [
    lambda ranked, scheme, fmt: render_attributions(
        one_batch(ranked, scheme, CountingRule.FRACTIONAL), scheme, CountingRule.FRACTIONAL,
        fmt=fmt,
    ),
    lambda ranked, scheme, fmt: render_indicators(
        [("default", compute_indicators(ranked, scheme, CountingRule.FRACTIONAL))], scheme,
        fmt=fmt,
    ),
    lambda ranked, scheme, fmt: render_report(
        [("default", ranked, compare_rules(ranked, scheme))], scheme, fmt=fmt,
    ),
    lambda ranked, scheme, fmt: render_scheme_detail(scheme, fmt=fmt),
    lambda ranked, scheme, fmt: render_scheme_list([scheme], fmt=fmt),
], ids=["attributions", "indicators", "report", "scheme-detail", "scheme-list"])
def test_an_unknown_format_is_refused(five_ranked, render, fmt):
    with pytest.raises(ValueError) as caught:
        render(five_ranked, builtin_scheme("top50"), fmt)
    assert str(caught.value) == f"unknown format {fmt!r}; expected one of table, csv, json"
