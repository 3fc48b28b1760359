"""Input parsing and output rendering for the command line tools.

Machine formats (csv, json) carry rationals exclusively as exact "p/q" strings
so downstream consumers never see float drift; decimal and percent renderings
appear only in the human table format. Output is deterministic: groups sort by
key, documents come in rank order, columns are fixed per configuration.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .indicators import AmbiguityReport, IndicatorResult
from .model import (
    CitationRecord,
    DataError,
    DocumentSet,
    PRScheme,
    RankedSet,
    _checked_columns,
    _read_utf8,
    _shortened,
    _unique_keys,
    scheme_to_document,
    theoretical_total,
)
from .scoring import (
    POINT_RULES,
    Attribution,
    BoundaryPolicy,
    CountingRule,
    MidpointRoute,
    RoundingMode,
    _fractional_score,
)

SCHEMA_VERSION = "1"
DEFAULT_GROUP = "default"
DEFAULT_PRECISION = 4
PERCENT_DECIMALS = 2
FORMATS = ("table", "csv", "json")

_KNOWN_COLUMNS = ("id", "citations", "group")
_KNOWN_FIELDS = frozenset(_KNOWN_COLUMNS)


# ---------------------------------------------------------------------------
# display helpers

def decimal_str(value: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Decimal rendering with `precision` significant digits, display only.

    Half-up rounding; trailing zeros trimmed. Never feeds back into computation.
    """
    if value == 0:
        return "0"
    context = _decimal_context(max(1, precision))
    quotient = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    text = format(quotient, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


@cache
def _decimal_context(precision: int) -> Context:
    return Context(prec=precision, rounding=ROUND_HALF_UP)


def percent_str(value: Fraction) -> str:
    """Quantile rendered as a percentage, trimmed ("2/5" -> "40%", "1/3" -> "33.33%")."""
    return _percent(value.numerator, value.denominator)


def _percent(p: int, q: int) -> str:
    """percent_str(Fraction(p, q)) for q > 0, without reducing p/q."""
    scale = 10 ** PERCENT_DECIMALS
    units = (200 * scale * p + q) // (2 * q)  # half-up rounding of 100*scale*p/q
    whole, part = divmod(units, scale)
    if part:
        digits = f"{part:0{PERCENT_DECIMALS}d}".rstrip("0")
        return f"{whole}.{digits}%"
    return f"{whole}%"


def interval_percent_str(low: Fraction, high: Fraction) -> str:
    return f"{percent_str(low)}–{percent_str(high)}"


def _exact_and_decimal(value: Fraction, precision: int) -> str:
    return f"{value} ({decimal_str(value, precision)})"


# ---------------------------------------------------------------------------
# input

def read_records(source: str | Path | TextIO) -> list[CitationRecord]:
    """Read citation records from delimited text or a JSON document.

    `source` is a path, "-" for stdin, or an open text stream. Files and
    stdin must hold UTF-8. A leading '[' or '{' marks JSON (a list of records
    or {"documents": [...]}); anything else is delimited text with a header row
    naming the columns id, citations and optionally group, delimited by comma
    or tab (sniffed from the header line). Blank lines are skipped, before the
    header as between data rows.
    """
    text = _read_text(source).removeprefix("\ufeff")
    stripped = text.lstrip()
    if not stripped:
        raise DataError("input is empty")
    if stripped[0] in "[{":
        return _records_from_json(text)
    return _records_from_delimited(text)


def partition_by_group(records: Sequence[CitationRecord]) -> dict[str, DocumentSet]:
    """One DocumentSet per group key; records without a group go to "default".

    Records without a group and records naming the group "default" would
    merge silently, so that mix is rejected.
    """
    buckets: dict[str, list[CitationRecord]] = {}
    for record in records:
        buckets.setdefault(record.group or DEFAULT_GROUP, []).append(record)
    members = buckets.get(DEFAULT_GROUP, ())
    if any(not r.group for r in members) and any(r.group for r in members):
        raise DataError(
            f"group {DEFAULT_GROUP!r} is named explicitly, but it is also the group "
            "of rows without one; rename the group or give every row a group"
        )
    return {key: DocumentSet(tuple(buckets[key])) for key in sorted(buckets)}


def _read_text(source: str | Path | TextIO) -> str:
    if hasattr(source, "read"):
        return source.read()
    if source != "-":
        def read() -> bytes:
            # open(), not pathlib, which would normalize the path a message shows.
            with open(source, "rb") as handle:
                return handle.read()

        return _read_utf8(read, DataError, f"input {source}")
    if sys.stdin is None:  # file descriptor 0 was closed at start-up
        raise DataError("cannot read input -: standard input is closed")
    # Decoded here, not by the locale; a stream without bytes is read as text.
    stdin = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if stdin is None else _read_utf8(stdin.read, DataError, "input -")


def _records_from_delimited(text: str) -> list[CitationRecord]:
    stream = io.StringIO(text, newline="")
    # Blank lines before the header are skipped, as blank data rows are; the
    # delimiter is sniffed from the header line itself.
    blank = 0
    for line in stream:
        if line.strip():
            break
        blank += 1
    stream.seek(0)
    delimiter = "\t" if "\t" in line else ","
    reader = csv.reader(stream, delimiter=delimiter)
    rows = _csv_rows(reader)
    for _ in range(blank):
        next(rows)
    header = [cell.strip().lower() for cell in next(rows)]
    where = f"line {blank + 1}: "
    unknown = [name for name in header if name not in _KNOWN_COLUMNS]
    if unknown:
        raise DataError(f"{where}unknown column(s): {', '.join(map(_shortened, unknown))}")
    if len(set(header)) != len(header):
        raise DataError(f"{where}repeated column name in header")
    if "id" not in header or "citations" not in header:
        raise DataError(f"{where}header must name the id and citations columns")
    records = _plain_columns(text, blank + 1, delimiter, header)
    if records is not None:
        return records

    # Row by row, only when a column check failed: the first bad row raises.
    columns = len(header)
    id_at, citations_at = header.index("id"), header.index("citations")
    group_at = header.index("group") if "group" in header else None
    records, seen = [], {}
    last_line = reader.line_num
    for row in rows:
        # A quoted newline makes a row span lines; report the row's first one.
        line_no, last_line = last_line + 1, reader.line_num
        if not "".join(row).strip():
            continue
        try:
            if len(row) != columns:
                raise DataError(f"expected {columns} columns, found {len(row)}")
            raw_citations = row[citations_at].strip()
            if not (raw_citations.isascii() and raw_citations.isdigit()):
                raise DataError("citations must be a base-10 non-negative integer, "
                                f"got {_shortened(raw_citations)}")
            try:
                citations = int(raw_citations)
            except ValueError:
                raise DataError(_too_many_digits(raw_citations)) from None
            group = row[group_at].strip() if group_at is not None else None
            record = CitationRecord(row[id_at].strip(), citations, group)
            records.append(_first_seen(record, seen, f"on line {line_no}"))
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
    if not records:
        raise DataError("no data rows in input")
    return records


def _first_seen(record: CitationRecord, seen: dict[str, str], where: str) -> CitationRecord:
    """record, unless an earlier row gave its id; `seen` maps each id read
    to where it was read, a place no other row shares ("on line 2")."""
    if (first := seen.setdefault(record.doc_id, where)) != where:
        raise DataError(f"duplicate document id {_shortened(record.doc_id)} (first seen {first})")
    return record


def _plain_columns(text, skip, delimiter, header) -> list[CitationRecord] | None:
    """The records of the data lines after the first `skip`, checked column
    by column, or None when a check fails. Only plain text qualifies: no quote,
    no carriage return but in a CRLF line end, and every data line holds one
    cell per column and is shorter than the csv field limit, so str.split and
    str.strip give the cells that csv.reader would."""
    # Counting "\r\n" is slow, so text without "\r" skips it.
    plain = '"' not in text and ("\r" not in text or text.count("\r") == text.count("\r\n"))
    lines = text.removesuffix("\n").split("\n")[skip:] if plain else []
    if (not lines or set(map(str.count, lines, repeat(delimiter))) != {len(header) - 1}
            or max(map(len, lines)) >= csv.field_size_limit()):
        return None
    cells = delimiter.join(lines).split(delimiter)
    del lines
    ids, counts, groups = (
        [*map(str.strip, cells[header.index(name)::len(header)])] if name in header else None
        for name in _KNOWN_COLUMNS
    )
    del cells
    digits, limit = "".join(counts), sys.get_int_max_str_digits()
    if not (all(counts) and digits.isascii() and digits.isdigit()
            and (not limit or max(map(len, counts)) <= limit)):
        return None
    return _checked_columns(ids, [*map(int, counts)], groups or [None] * len(ids))


def _too_many_digits(digits: str) -> str:
    return (
        f"citations have {len(digits.lstrip('-'))} digits, more than the "
        f"{sys.get_int_max_str_digits()} this Python reads as an integer"
    )


def _json_integer(digits: str) -> int | Decimal:
    """A JSON integer; a Decimal when it is too long for int()."""
    try:
        return int(digits)
    except ValueError:
        return Decimal(digits)


def _csv_rows(reader) -> Iterator[list[str]]:
    """The reader's rows; a malformed one, such as a field over the csv
    module's size limit, is a DataError at the line the reader stopped on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _records_from_json(text: str, parse_int=int) -> list[CitationRecord]:
    # Imported on first use, as unicodedata is in _width: a run that neither
    # reads nor writes JSON never loads it.
    import json

    try:
        doc = json.loads(text, parse_int=parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON input: {exc}") from None
    except RecursionError:
        raise DataError("JSON input is nested too deeply to read") from None
    except DataError:  # a repeated key, before ValueError catches it
        raise
    except ValueError:
        # An integer past Python's integer-string limit: read again with
        # such integers as Decimals, to name the document that holds one.
        return _records_from_json(text, _json_integer)
    rows = doc.get("documents") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise DataError('JSON input must be a list of records or {"documents": [...]}')
    if isinstance(doc, dict) and len(doc) > 1:
        unknown = ", ".join(map(_shortened, sorted(set(doc) - {"documents"})))
        raise DataError(f'unknown field(s) beside "documents": {unknown}')
    if set(map(type, rows)) == {dict} and _KNOWN_FIELDS.issuperset(chain.from_iterable(rows)):
        records = _checked_columns(*(list(map(dict.get, rows, repeat(k))) for k in _KNOWN_COLUMNS))
        if records is not None:
            return records
    # Row by row, only when a column check failed: the first bad row raises.
    records, seen = [], {}
    try:
        for pos, row in enumerate(rows, start=1):
            if not isinstance(row, dict):
                raise DataError("expected an object")
            if not _KNOWN_FIELDS.issuperset(row):
                unknown = sorted(set(row) - _KNOWN_FIELDS)
                raise DataError(f"unknown field(s): {', '.join(map(_shortened, unknown))}")
            citations = row.get("citations")
            if isinstance(citations, Decimal):
                raise DataError(_too_many_digits(str(citations)))
            record = CitationRecord(row.get("id"), citations, row.get("group"))
            records.append(_first_seen(record, seen, f"as document {pos}"))
    except DataError as exc:
        # The location is formatted only for the row that failed.
        raise DataError(f"document {pos}: {exc}") from None
    if not records:
        raise DataError("no documents in input")
    return records


# ---------------------------------------------------------------------------
# rendering plumbing
#
# Rows are laid out per tie group: a list of (member_ids, shared_cells)
# pairs. A member's row is the shared cells with its id inserted at column
# id_at, so a group's cells are padded or quoted once and each member adds
# only its id. Indicators and schemes pass groups of one row.


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {_shortened(fmt)}; expected one of {', '.join(FORMATS)}")


def _printable(text: str) -> str:
    """text for a table line: each character that str.isprintable() refuses,
    such as a newline, tab or ESC, as its repr escape, so that a row stays on
    one line and no control character reaches the terminal."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _width(text: str) -> int:
    """The terminal columns text takes: 2 for each wide or fullwidth
    character (East Asian Width "W" or "F"), 0 for each combining mark that
    takes no column of its own (Mn, Me) or format character (Cf), and 1 for
    any other, ambiguous ("A") ones included."""
    # Imported on first use: only a table with a non-ASCII id needs it, and
    # every run pays for what the package imports at start-up.
    import unicodedata

    return sum(
        2 if unicodedata.east_asian_width(c) in "WF"
        else 0 if unicodedata.category(c) in ("Mn", "Me", "Cf")
        else 1
        for c in text
    )


def _padded(text: str, width: int) -> str:
    """text followed by spaces up to `width` terminal columns."""
    return text + " " * (width - _width(text))


def _render_table(header: list[str], groups: Sequence[tuple], id_at: int = 0) -> list[str]:
    """The header, a rule and one line per member, each column padded to its
    widest cell and each line right-stripped. A group's cells are padded and
    right-stripped once; the id is never the last column, and the cells
    after it are never all blank. Ids are shown through _printable, and
    padded by terminal columns (_width); the other cells are the program's
    own text, one column per character."""
    member_ids, rows = zip(*groups) if groups else ((), ())
    joined = "".join(chain.from_iterable(member_ids))
    # An ASCII id takes one column per character.
    width, pad = (len, str.ljust) if joined.isascii() else (_width, _padded)
    if not joined.isprintable():
        member_ids = [[*map(_printable, ids)] for ids in member_ids]
    widths = [*map(len, [*header[:id_at], *header[id_at + 1:]])]
    for i, column in enumerate(zip(*rows)):
        widths[i] = max(widths[i], *map(len, column))
    id_width = max([len(header[id_at]), *map(width, chain.from_iterable(member_ids))])
    all_widths = [*widths[:id_at], id_width, *widths[id_at:]]
    lines = [
        "  ".join(map(str.ljust, header, all_widths)).rstrip(),
        "  ".join(map("-".__mul__, all_widths)),
    ]
    # Every cell is padded to its width, so the id goes in at a fixed offset.
    cut = sum(widths[:id_at]) + 2 * id_at
    texts = ["  ".join(map(str.ljust, cells, widths)) for cells in rows]
    heads = [text[:cut] for text in texts]
    tails = [f"  {text[cut:]}".rstrip() for text in texts]
    return lines + [
        f"{head}{pad(doc_id, id_width)}{tail}"
        for ids, head, tail in zip(member_ids, heads, tails)
        for doc_id in ids
    ]


class _Rows(list):
    """A list csv.writer can write to: each row becomes one item."""

    write = list.append


# Characters that can make csv.writer quote a field; which of them do
# depends on the Python version ("\r" from 3.13), so the writer decides.
# This pattern and _EMPTY_LIST are compiled on first use, not at import.
_CSV_SPECIAL = '[\x00\r\n",]'


def _csv_text(header: list[str], groups: Iterable[tuple], id_at: int = 0) -> str:
    """csv with a header row. csv.writer writes each group's shared cells
    once, with its first member's id; the other members reuse the text
    around that id, and an id goes through the writer only when it holds a
    character that can need quoting."""
    rows = _Rows()
    # Whether a field is quoted depends on the line terminator as well.
    writer = csv.writer(rows, lineterminator="\n")

    def written(fields: list) -> str:
        """The text the writer gives fields, without the line end."""
        writer.writerow(fields)
        return rows.pop()[:-1]

    writer.writerow(header)
    for ids, shared in groups:
        writer.writerow([*shared[:id_at], ids[0], *shared[id_at:]])
        if len(ids) > 1:
            # An empty field stands for the id: the head is "cells,".
            head = written([*shared[:id_at], ""]) if id_at else ""
            if re.search(_CSV_SPECIAL, "".join(ids)):
                ids = [written([doc_id, ""])[:-1] for doc_id in ids]
            tail = rows[-1][len(head) + len(ids[0]):]
            rows += [f"{head}{doc_id}{tail}" for doc_id in ids[1:]]
    return "".join(rows)


def _sections(sections: Iterable[list[str]]) -> str:
    """Table output: the lines of each section, a blank line between sections."""
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def _envelope(command: str, scheme: PRScheme | None = None, **fields) -> str:
    """The JSON text of every command: its schema version and name, then the
    scheme's document under "scheme" when one is given, then the fields."""
    import json  # on first use, as in _records_from_json

    named = {} if scheme is None else {"scheme": scheme_to_document(scheme)}
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **named, **fields}
    return json.dumps(payload, indent=2) + "\n"


def _ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for p >= 0 and q > 0, from the integers."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


# In the _envelope text of attribute or report output, an object
# of a group's list opens at _DOC, its fields sit at _FIELD and their list or
# object items at _ITEM. The lists are empty in the envelope until their
# members are spliced in.
_DOC = "\n" + " " * 8
_FIELD = "\n" + " " * 10
_ITEM = "\n" + " " * 12
_ID_FIELD = f'{_DOC}{{{_FIELD}"id": '
_EMPTY_LIST = r'\n      ("documents"|"flags"|"disagreements"): \[\]'


def _json_items(items: Iterable[str], open_: str = "[", close: str = "]") -> str:
    """A non-empty JSON list (or object) whose item texts sit at _ITEM."""
    return open_ + _ITEM + f",{_ITEM}".join(items) + _FIELD + close


def _json_spliced(envelope: str, members: list[str]) -> str:
    """An _envelope text with its i-th empty group list holding members[i]
    (joined document objects, each opening at _DOC), in the order json.dumps
    writes them.

    Strings are escaped and every structural newline is followed by its
    indent, so an empty list is found exactly at the group level."""
    pieces = re.split(_EMPTY_LIST, envelope)
    out = [pieces[0]]
    for key, piece, text in zip(pieces[1::2], pieces[2::2], members, strict=True):
        out += ["\n      ", key, ": [", text, "\n      ]" if text else "]", piece]
    return "".join(out)


# ---------------------------------------------------------------------------
# attribute rendering

AttributionBatch = tuple[str, RankedSet, Sequence[Attribution]]


def render_attributions(
    batches: Sequence[AttributionBatch],
    scheme: PRScheme,
    rule: CountingRule,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    policy: BoundaryPolicy | None = None,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
    fmt: str = "table",
    precision: int = DEFAULT_PRECISION,
) -> str:
    """Attributions as csv, json or a table per group, one row or document
    per attribution. Tie group members share their interval and attribution,
    so each tie group's cells (or its JSON text around "id") are formatted,
    padded or quoted once and each member adds only its id. Under the
    fractional rule, the score and fraction cells are formatted once per
    distinct `fractions` tuple: attribute_all gives every group inside one
    class the same one. rounding, policy and midpoint_route are shown for
    point rules only."""
    _check_format(fmt)
    fractional = rule is CountingRule.FRACTIONAL
    show_endpoints = rule is CountingRule.MIDPOINT and midpoint_route is MidpointRoute.ENDPOINTS
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as json_str
    # By id() of the fractions tuple; the attributions keep each one alive.
    tails: dict[int, list[str] | str] = {}
    zeros = ["0"] * scheme.k

    def fractional_tail(head, group, n):
        """The score and fraction cells (csv, table), or the JSON text after
        "interval" to the document's end, of an attribution's fractions. The
        score and the classes the group's interval overlaps come from the
        integer grid; every other cell is zero. Fractions made under another
        scheme are refused when their count, or the nonzero run's ends
        [first, stop), differ from the scheme's."""
        fractions = head.fractions
        tail = tails.get(id(fractions))
        if tail is None:
            score, first, stop = _fractional_score(scheme, n, group.rank_low - 1, group.rank_high)
            if (len(fractions) != scheme.k or not fractions[first] or not fractions[stop - 1]
                    or (first and fractions[first - 1]) or (stop < scheme.k and fractions[stop])):
                raise ValueError(f"attribution for {head.doc_id!r} does not match the scheme")
            cells = [*zeros[:first], *map(str, fractions[first:stop]), *zeros[stop:]]
            if fmt == "json":
                items = _json_items(f'"{f}"' for f in cells)
                tail = f',{_FIELD}"score": "{score}",{_FIELD}"fractions": {items}{_DOC}}}'
            else:
                tail = [str(score) if fmt == "csv" else _exact_and_decimal(score, precision),
                        *cells]
            tails[id(fractions)] = tail
        return tail

    def point_tail(head, _group, _n):
        """The cells after the interval (csv, table), or the JSON text after
        "interval" to the document's end, of a point attribution."""
        _, quantile, percentile, index, ambiguous, boundary, pair = head
        weight = scheme.classes[index - 1].weight
        # The percentile the class came from: rounded, or the exact 100*q.
        exact = 100 * quantile if percentile is None else percentile
        ambiguous = "true" if ambiguous else "false"
        if fmt == "json":
            return (
                f',{_FIELD}"quantile": "{quantile}"'
                f',{_FIELD}"percentile": "{exact}"'
                f',{_FIELD}"class": {index}'
                f',{_FIELD}"weight": "{weight}"'
                f',{_FIELD}"ambiguous": {ambiguous}'
                f',{_FIELD}"boundary": ' + ("null" if boundary is None else f'"{boundary}"')
                + (f',{_FIELD}"endpoint_percentiles": '
                   + ("null" if pair is None else _json_items(map(str, pair)))
                   if show_endpoints else "")
                + _DOC + "}"
            )
        if fmt == "csv":
            cells = [str(quantile), str(exact)]
        else:
            shown = str(exact) if percentile is not None else decimal_str(exact, precision)
            cells = [f"{quantile} ({percent_str(quantile)})", shown]
        if show_endpoints:
            cells.append("" if pair is None else f"{pair[0]}/{pair[1]}")
        return cells + [
            str(index), str(weight), ambiguous, "" if boundary is None else str(boundary),
        ]

    rule_tail = fractional_tail if fractional else point_tail

    def rows(group_key, ranked, attributions):
        """Per tie group, in rank order: (member_ids, cells after the id) for
        csv and table, or each member's JSON object, whose "p/q" strings need
        no escaping. Made one at a time, as csv consumes each pair at once: a
        live pair per document sets off extra passes of the cyclic garbage
        collector. The intervals tile [0, 1], so each end is formatted once,
        and a tie group's members share the attribution at rank_low - 1."""
        n, low, low_percent = ranked.n, "0", "0%"
        if len(attributions) != n:
            raise ValueError(f"{len(attributions)} attributions for a ranked set of {n} documents")
        for group in ranked.groups:
            head, ids = attributions[group.rank_low - 1], group.member_ids
            high = _ratio_str(group.rank_high, n)
            if fmt == "json":
                tail = (f',{_FIELD}"citations": {group.citations},{_FIELD}"interval": {{{_ITEM}'
                        f'"low": "{low}",{_ITEM}"high": "{high}"{_FIELD}}}'
                        f'{rule_tail(head, group, n)}')
                # One member: no list comprehension, whose set-up outweighs one f-string.
                if len(ids) == 1:
                    yield f"{_ID_FIELD}{json_str(ids[0])}{tail}"
                else:
                    yield from [f"{_ID_FIELD}{json_str(doc_id)}{tail}" for doc_id in ids]
            elif fmt == "csv":
                yield ids, [str(group.citations), group_key, low, high, *rule_tail(head, group, n)]
            else:
                high_percent = _percent(group.rank_high, n)
                yield ids, [str(group.citations), f"[{low}, {high}]",
                            f"{low_percent}–{high_percent}", *rule_tail(head, group, n)]
                low_percent = high_percent
            low = high

    settings, shown_policy, meta = {"rule": rule.value}, {}, f"rule={rule.value}"
    if not fractional:
        settings.update(rounding=rounding.value, midpoint_route=midpoint_route.value)
        meta += f" rounding={rounding.value} route={midpoint_route.value}"
        if policy is not None:
            shown_policy = {"boundary_policy": policy.value}
            meta += f" boundary={policy.value}"

    if fmt == "json":
        envelope = _envelope("attribute", scheme, **settings, groups=[
            {"group": group_key, "n": ranked.n, "documents": []}
            for group_key, ranked, _ in batches
        ], **shown_policy)
        return _json_spliced(envelope, [",".join(rows(*batch)) for batch in batches])

    if fmt == "csv":
        header = ["id", "citations", "group", "interval_low", "interval_high"]
    else:
        header = ["id", "citations", "interval", "percent"]
    if fractional:
        header += ["score"] + [f"f_{i}" for i in range(1, scheme.k + 1)]
    else:
        header += ["quantile", "percentile"]
        if show_endpoints:
            header.append("endpoint_pcts")
        header += ["class", "weight", "ambiguous", "boundary"]
    if fmt == "csv":
        return _csv_text(header, (row for batch in batches for row in rows(*batch)))
    return _sections(
        [f"# group={_printable(group_key)} n={ranked.n} scheme={_printable(scheme.name)} {meta}"]
        + _render_table(header, [*rows(group_key, ranked, attributions)])
        for group_key, ranked, attributions in batches
    )


# ---------------------------------------------------------------------------
# indicators rendering

_INDICATOR_COLUMNS = ("i3", "r", "pp", "theoretical", "difference")


def render_indicators(
    batches: Sequence[tuple[str, IndicatorResult]],
    scheme: PRScheme,
    *,
    fmt: str = "table",
    precision: int = DEFAULT_PRECISION,
) -> str:
    """I3, R, PP, the theoretical I3 and I3's difference from it per group.
    pp is None for schemes without two classes: null in json, blank in csv
    and "-" in the table."""
    _check_format(fmt)
    rule = batches[0][1].rule.value if batches else None
    groups = []
    for group_key, result in batches:
        expected = theoretical_total(scheme, result.n)
        values = (result.i3, result.r, result.pp, expected, result.i3 - expected)
        groups.append((group_key, result, values))
    if fmt == "json":
        return _envelope("indicators", scheme, rule=rule, groups=[
            {"group": group_key, "n": result.n,
             **{c: None if v is None else str(v) for c, v in zip(_INDICATOR_COLUMNS, values)}}
            for group_key, result, values in groups
        ])
    if fmt == "csv":
        # csv.writer writes None as "" and a Fraction or int as its str.
        return _csv_text(["group", "n", "scheme", "rule", *_INDICATOR_COLUMNS], [
            ((group_key,), [result.n, result.scheme_name, result.rule.value, *values])
            for group_key, result, values in groups
        ])
    rows = [
        ((group_key,), [
            str(result.n),
            *("-" if v is None else _exact_and_decimal(v, precision) for v in values[:-1]),
            str(values[-1]),
        ])
        for group_key, result, values in groups
    ]
    table = _render_table(["group", "n", *_INDICATOR_COLUMNS], rows)
    return _sections([[f"# scheme={_printable(scheme.name)} rule={rule or '-'}", *table]])


# ---------------------------------------------------------------------------
# report rendering

ReportBatch = tuple[str, RankedSet, AmbiguityReport]

_REPORT_COLUMNS = [
    "group", "record", "rule", "id", "interval_low", "interval_high", "quantile", "boundary",
    "class_count_worse", "class_count_worse_or_equal", "class_midpoint", "class_index", "count",
]


def render_report(
    batches: Sequence[ReportBatch],
    scheme: PRScheme,
    *,
    rounding: RoundingMode = RoundingMode.NONE,
    midpoint_route: MidpointRoute = MidpointRoute.EXACT,
    fmt: str = "table",
) -> str:
    """Boundary hits, cross-rule class disagreements and fractional class
    counts per group, one row or object per document, in one pass over the
    groups. A flag or disagreement covers a tie group: its shared cells (or
    JSON texts) are formatted once and each member adds only its id."""
    _check_format(fmt)
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as json_str
    # csv rows, JSON groups or table sections; JSON members go in `members`.
    out, members = [], []
    for group_key, ranked, report in batches:
        # (member_ids, cells) per tie group, or each member's JSON object.
        flags, disagreements = [], []
        for flag in report.flags:
            rule, low, high = flag.rule.value, flag.interval_low, flag.interval_high
            if fmt == "csv":
                cells = [group_key, "flag", rule, str(low), str(high), str(flag.quantile),
                         str(flag.boundary), *[""] * 5]
            elif fmt == "json":
                interval = _json_items([f'"low": "{low}"', f'"high": "{high}"'], "{", "}")
                tail = (f',{_FIELD}"quantile": "{flag.quantile}",{_FIELD}"boundary": '
                        f'"{flag.boundary}",{_FIELD}"interval": {interval}{_DOC}}}')
                flags += [f'{_DOC}{{{_FIELD}"rule": "{rule}",{_FIELD}"id": {json_str(doc_id)}'
                          f"{tail}" for doc_id in flag.member_ids]
                continue
            else:
                cells = [rule, f"[{low}, {high}]", interval_percent_str(low, high),
                         str(flag.quantile), str(flag.boundary)]
            flags.append((flag.member_ids, cells))
        for d in report.disagreements:
            classes = [d.classes[rule] for rule in POINT_RULES]
            if fmt == "csv":
                cells = [group_key, "disagreement", *[""] * 5, *map(str, classes), "", ""]
            elif fmt == "json":
                items = (f'"{rule.value}": {c}' for rule, c in zip(POINT_RULES, classes))
                tail = f',{_FIELD}"classes": {_json_items(items, "{", "}")}{_DOC}}}'
                disagreements += [f"{_ID_FIELD}{json_str(i)}{tail}" for i in d.member_ids]
                continue
            else:
                cells = [*map(str, classes)]
            disagreements.append((d.member_ids, cells))
        counts = [*map(str, report.fractional_counts.counts)]
        if fmt == "csv":
            # A count row has no id: a group of one blank id.
            out += flags + disagreements + [
                (("",), [group_key, "fractional_count", *[""] * 8, str(i), count])
                for i, count in enumerate(counts, start=1)
            ]
            continue
        flag_counts = {rule.value: count for rule, count in report.flag_counts.items()}
        disagreeing = sum(len(d.member_ids) for d in report.disagreements)
        if fmt == "json":
            members += [",".join(flags), ",".join(disagreements)]
            out.append({
                "group": group_key, "n": ranked.n, "flags": [], "disagreements": [],
                "fractional_class_counts": counts,
                "summary": {"flag_counts": flag_counts, "disagreements": disagreeing},
            })
        else:
            flag_header = ["rule", "id", "interval", "percent", "quantile", "boundary"]
            out.append([
                f"# group={_printable(group_key)} n={ranked.n} scheme={_printable(scheme.name)}"
                f" rounding={rounding.value} route={midpoint_route.value}",
                "boundary hits:",
                *(_render_table(flag_header, flags, id_at=1) if flags else ["  none"]),
                "class disagreements:",
                *(_render_table(["id", *(rule.value for rule in POINT_RULES)], disagreements)
                  if disagreements else ["  none"]),
                f"fractional class counts: {', '.join(counts)}",
                "summary: flags [" + ", ".join(f"{r}={c}" for r, c in flag_counts.items())
                + f"], disagreements {disagreeing}",
            ])
    if fmt == "csv":
        return _csv_text(_REPORT_COLUMNS, out, id_at=_REPORT_COLUMNS.index("id"))
    if fmt == "json":
        return _json_spliced(_envelope(
            "report", scheme, rounding=rounding.value, midpoint_route=midpoint_route.value,
            groups=out,
        ), members)
    return _sections(out)


# ---------------------------------------------------------------------------
# scheme rendering

_SCHEME_CLASS_FIELDS = ("index", "lower", "upper", "weight")


def render_scheme_detail(scheme: PRScheme, *, fmt: str = "table") -> str:
    """A scheme's classes: index, bounds and weight of each."""
    _check_format(fmt)
    rows = [(cls.index, str(cls.lower), str(cls.upper), str(cls.weight)) for cls in scheme.classes]
    if fmt == "csv":
        return _csv_text(
            list(_SCHEME_CLASS_FIELDS), [((str(index),), rest) for index, *rest in rows]
        )
    if fmt == "json":
        return _envelope("schemes", **scheme_to_document(scheme), classes=[
            dict(zip(_SCHEME_CLASS_FIELDS, row)) for row in rows
        ])
    table = _render_table(["class", "range", "percent", "weight"], [
        ((str(index),), [f"[{lower}, {upper}" + ("]" if index == scheme.k else ")"),
                         interval_percent_str(cls.lower, cls.upper), weight])
        for (index, lower, upper, weight), cls in zip(rows, scheme.classes)
    ])
    return _sections([[f"# scheme={_printable(scheme.name)} classes={scheme.k}", *table]])


def render_scheme_list(schemes: Sequence[PRScheme], *, fmt: str = "table") -> str:
    """Name and class count of each scheme; the table adds the weights."""
    _check_format(fmt)
    rows = [(scheme.name, scheme.k) for scheme in schemes]
    if fmt == "csv":
        return _csv_text(["name", "classes"], [((name,), [k]) for name, k in rows])
    if fmt == "json":
        return _envelope("schemes", schemes=[{"name": name, "classes": k} for name, k in rows])
    table = []
    for (name, k), scheme in zip(rows, schemes):
        weights = [str(w) for w in scheme.weights]
        text = f"{weights[0]} .. {weights[-1]}" if len(weights) > 8 else ", ".join(weights)
        table.append(((name,), [str(k), text]))
    return _sections([_render_table(["name", "classes", "weights"], table)])
