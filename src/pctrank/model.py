"""Errors and value types: citation records and document sets, their ranking
into tie groups with exact quantile intervals, and percentile rank class schemes.

Every numeric quantity is a `fractions.Fraction`, so boundaries, quantiles and
scores stay exact end to end; nothing here passes through binary floating point.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, pairwise, repeat
from operator import itemgetter, mul, sub
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence


class PctrankError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(PctrankError, ValueError):
    """A run configuration value is invalid (selector, precision, flags)."""


class SchemeError(ConfigError):
    """A class scheme is malformed or a scheme selector cannot be resolved."""


class DataError(PctrankError, ValueError):
    """Input data is malformed: bad row, bad citation count, duplicate id."""


class BoundaryAmbiguityError(PctrankError):
    """A point quantile landed exactly on an interior class boundary while the
    boundary policy was set to refuse such cases."""

    def __init__(self, boundary: Fraction):
        super().__init__(
            f"quantile {boundary} falls exactly on an interior class boundary; "
            "use boundary policy 'lower' or 'upper' to resolve it"
        )
        self.boundary = boundary


def parse_fraction(value: str | int | Fraction) -> Fraction:
    """Parse an exact fraction from "p/q", integer, or decimal notation.

    Decimal strings convert exactly ("0.05" -> 1/20). Binary floats are
    rejected outright so nothing can drift through floating point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot parse {value!r} as a fraction")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError("refusing to convert a binary float; pass a string instead")
    if not isinstance(value, str):
        raise ValueError(f"cannot parse {_shortened(value)} as a fraction")
    try:
        text = value.strip()
        # Fraction reads "_" from Python 3.11 on and non-ASCII digits on every
        # version; refusing both makes every version agree.
        if "_" in text or not text.isascii():
            raise ValueError
        fraction = Fraction(text)
        # Refuses a numerator or denominator too long to be written out again.
        str(fraction)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid fraction {_shortened(value)}") from exc
    return fraction


def has_surrogate(text: str) -> bool:
    """Whether text holds a lone surrogate (JSON can escape one): no UTF-8 output can."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return True
    return False


def _shortened(value: object, limit: int = 40) -> str:
    """repr(value), so that an error message does not echo a huge value or a
    raw control character; a Fraction is named as it prints, as p/q. A string
    longer than `limit` characters is cut to the repr of its first `limit`;
    another value's text is cut to its first `limit` characters when it is
    longer."""
    text, shown = (value, repr) if isinstance(value, str) else (repr(value), str)
    if isinstance(value, Fraction):
        text = str(value)
    if len(text) <= limit:
        return shown(text)
    return f"{shown(text[:limit])}... ({len(text)} characters)"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads' object_pairs_hook: the object as a dict, or a DataError
    where json.loads alone would keep the last value of a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DataError(f"repeated key {_shortened(key)} in a JSON object")
            seen.add(key)
    return doc


def _read_utf8(read: Callable[[], bytes], error: type[PctrankError], name: str) -> str:
    """The bytes read() gives, decoded as UTF-8 whatever the locale: the one
    file rule of input (`name` "input PATH") and scheme files ("scheme file
    PATH"). A failed read, or bytes that are not UTF-8, raise `error`."""
    try:
        return read().decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {name}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not valid UTF-8 at byte offset {exc.start}") from None


class _CitationRecord(NamedTuple):
    doc_id: str
    citations: int
    group: str | None = None


class CitationRecord(_CitationRecord):
    """One document: an opaque id, its citation count, and an optional group key.

    The constructor is the readers' row rule: both row loops build each
    record through it, and `_checked_columns` applies it to whole columns.
    It refuses an id made only of whitespace, a group neither string nor
    None, or an id or group holding NUL or a lone surrogate, and reads a
    blank group as no group.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, citations: int, group: str | None = None):
        if not isinstance(doc_id, str) or not doc_id.strip():
            raise DataError("document id must be a non-empty string")
        if isinstance(citations, bool) or not isinstance(citations, int):
            raise DataError(f"citations for {_shortened(doc_id)} must be an integer")
        if citations < 0:
            raise DataError(f"citations for {_shortened(doc_id)} must be non-negative")
        if group is not None and not isinstance(group, str):
            raise DataError(f"group for {_shortened(doc_id)} must be a string")
        if "\0" in doc_id or group and "\0" in group:
            raise DataError(f"the id or group of {_shortened(doc_id)} holds a NUL character")
        if has_surrogate(doc_id) or group and has_surrogate(group):
            raise DataError(f"the id or group of {_shortened(doc_id)} holds a lone surrogate")
        group = group if group and group.strip() else None
        return tuple.__new__(cls, (doc_id, citations, group))


def _checked_columns(ids: list, citations: list, groups: list) -> list[CitationRecord] | None:
    """The records of whole columns, or None when a row check of either
    reader would fail: an id that is not a string, is blank or repeats, a
    count that is not a non-negative int, a group neither string nor None,
    or a NUL or lone surrogate in an id or group."""
    if not (
        ids and set(map(type, ids)) == {str} and all(map(str.strip, ids))
        and len(set(ids)) == len(ids) and set(map(type, citations)) == {int}
        and min(citations) >= 0 and set(map(type, groups)) <= {str, type(None)}
        and "\0" not in (text := "".join(ids) + "".join(filter(None, groups)))
        and not has_surrogate(text)
    ):
        return None
    # A blank group is no group; other names stay as written.
    groups = [group if group and not group.isspace() else None for group in groups]
    return [*map(tuple.__new__, repeat(CitationRecord), zip(ids, citations, groups))]


_DOC_ID, _CITATIONS = itemgetter(0), itemgetter(1)


class DocumentSet:
    """An ordered, non-empty collection of citation records with unique ids."""

    def __init__(self, records: Sequence[CitationRecord]):
        self.records = tuple(records)
        if not self.records:
            raise DataError("a document set needs at least one record")
        if len(set(map(_DOC_ID, self.records))) < len(self.records):
            seen: set[str] = set()
            for record in self.records:
                if record.doc_id in seen:
                    raise DataError(f"duplicate document id {_shortened(record.doc_id)}")
                seen.add(record.doc_id)

    @property
    def n(self) -> int:
        return len(self.records)


class _QuantileInterval(NamedTuple):
    low: Fraction
    high: Fraction

    @property
    def width(self) -> Fraction:
        return self.high - self.low


class QuantileInterval(_QuantileInterval):
    """The exact slice of the quantile axis a document occupies.

    A tie group spanning ranks [rank_low, rank_high] of n documents covers
    [(rank_low - 1)/n, rank_high/n]; every member of the group shares it.
    """

    __slots__ = ()

    def __new__(cls, low: Fraction, high: Fraction):
        if not (0 <= low < high <= 1):
            raise ValueError(f"need 0 <= low < high <= 1, got [{low}, {high}]")
        return tuple.__new__(cls, (low, high))


class TieGroup(NamedTuple):
    """Documents sharing one citation count, hence one rank span and interval."""

    citations: int
    member_ids: tuple[str, ...]
    rank_low: int
    rank_high: int

    @property
    def size(self) -> int:
        return self.rank_high - self.rank_low + 1


class RankedSet:
    """A document set ranked ascending by citation count.

    Nothing is sorted when the set is made; n needs no sorting. Each of
    the following is built on first read and kept: `_order`, the records
    sorted once, stably by citation count; `_ends`, 0 and the highest rank
    of each tie group, in rank order, so that tie group g spans ranks
    `_ends[g] + 1` to `_ends[g + 1]`; and `groups`, the tie groups in rank
    order, built from both. interval_for gives a group's quantile interval.
    """

    def __init__(self, source: DocumentSet):
        self.source = source
        # Plain slots filled on first read: functools.cached_property takes
        # a lock on each first read up to Python 3.11, a cost that the CLI
        # pays for every group of its input.
        self._sorted: list[CitationRecord] | None = None
        self._rank_ends: list[int] | None = None
        self._groups: tuple[TieGroup, ...] | None = None

    @property
    def _order(self) -> list[CitationRecord]:
        if self._sorted is None:
            self._sorted = sorted(self.source.records, key=_CITATIONS)
        return self._sorted

    @property
    def _ends(self) -> list[int]:
        if self._rank_ends is None:
            # Counted in rank order, so the sizes come out by ascending citations.
            sizes = Counter(map(_CITATIONS, self._order))
            self._rank_ends = [*accumulate(sizes.values(), initial=0)]
        return self._rank_ends

    @property
    def groups(self) -> tuple[TieGroup, ...]:
        if self._groups is None:
            self._groups = _tie_groups(self, pairwise(self._ends))
        return self._groups

    @property
    def n(self) -> int:
        return self.source.n


def interval_for(group: TieGroup, n: int) -> QuantileInterval:
    """Quantile interval shared by all members of a tie group among n documents."""
    if not (1 <= group.rank_low <= group.rank_high <= n):
        raise ValueError(
            f"rank span [{group.rank_low}, {group.rank_high}] does not fit a set of {n}"
        )
    return QuantileInterval(Fraction(group.rank_low - 1, n), Fraction(group.rank_high, n))


def rank(document_set: DocumentSet) -> RankedSet:
    """Rank a document set ascending by citation count.

    Nothing is sorted here: the ranked set sorts its records on first need,
    and builds its tie groups when `groups` is first read. A caller that
    needs only n, such as fractional `compute_indicators`, never pays for
    either.
    """
    return RankedSet(document_set)


def _tie_groups(ranked: RankedSet, spans: Iterable[tuple[int, int]]) -> tuple[TieGroup, ...]:
    """The tie groups of `ranked` at the given spans (r_low - 1, r_high) of
    its citation order. Member ids are sorted, so the result is identical
    for any permutation of the input records."""
    order, new = ranked._order, tuple.__new__
    return tuple([
        new(TieGroup, (
            order[below][1],
            (order[below][0],) if high - below == 1
            else tuple(sorted(map(_DOC_ID, order[below:high]))),
            below + 1,
            high,
        ))
        for below, high in spans
    ])


# Each built-in scheme's class lower bounds, in percent, and class weights.
_BUILTINS = {
    "top50": ((0, 50), (0, 1)),
    "pr6": ((0, 50, 75, 90, 95, 99), range(1, 7)),
    "pr100": (range(100), range(1, 101)),
}
BUILTIN_SCHEME_NAMES = tuple(_BUILTINS)


class _PRClass(NamedTuple):
    index: int
    lower: Fraction
    upper: Fraction
    weight: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


class PRClass(_PRClass):
    """One percentile rank class: a slice of the quantile axis plus its weight.

    The slice is half-open [lower, upper); the scheme's top class additionally
    owns the point 1. Class indices are 1-based within their scheme.
    """

    __slots__ = ()

    def __new__(cls, index: int, lower: Fraction, upper: Fraction, weight: Fraction):
        if not (0 <= lower < upper <= 1):
            raise SchemeError(
                f"class {index}: need 0 <= lower < upper <= 1, "
                f"got [{_shortened(lower)}, {_shortened(upper)}]"
            )
        return tuple.__new__(cls, (index, lower, upper, weight))


class PRScheme:
    """A contiguous, exhaustive partition of [0, 1] into weighted classes.

    Schemes compare equal, and hash alike, when their names and classes do.
    """

    def __init__(self, name: str, classes: Sequence[PRClass]):
        self.name = name
        self.classes = tuple(classes)
        if not self.classes:
            raise SchemeError("a scheme needs at least one class")
        if self.classes[0].lower != 0:
            raise SchemeError("the first class must start at 0")
        if self.classes[-1].upper != 1:
            raise SchemeError("the last class must end at 1")
        for prev, cur in zip(self.classes, self.classes[1:]):
            if cur.lower != prev.upper:
                raise SchemeError(
                    f"classes {prev.index} and {cur.index} do not meet: "
                    f"{_shortened(prev.upper)} vs {_shortened(cur.lower)}"
                )
        for position, cls in enumerate(self.classes, start=1):
            if cls.index != position:
                raise SchemeError(f"class at position {position} carries index {cls.index}")
        self.k = len(self.classes)
        self.lower_bounds: tuple[Fraction, ...] = tuple(cls.lower for cls in self.classes)
        # All k+1 cut points from 0 to 1 inclusive.
        self.boundaries = self.lower_bounds + (Fraction(1),)
        self.weights = tuple(cls.weight for cls in self.classes)
        # The scheme on scoring's integer grid: D, each boundary's cut b*D, each
        # weight in units of 1/W for the weights' lcm W, and each class's one-hot
        # fractions tuple, made on first use. A derived value's denominator
        # divides a small multiple of n times D times W.
        self._boundary_lcm = d = math.lcm(*(b.denominator for b in self.lower_bounds))
        self._weight_lcm = lcm = math.lcm(*(w.denominator for w in self.weights))
        self._weight_units = [w.numerator * (lcm // w.denominator) for w in self.weights]
        limit = sys.get_int_max_str_digits()
        common = d * lcm
        if limit and common >= 10 ** limit:
            raise SchemeError(
                f"scheme {_shortened(name)} needs denominators of more than {limit} "
                "digits; its values could not be written out"
            )
        self._value_bound = common * max(1, *(abs(w.numerator) for w in self.weights))
        self._cuts = [b.numerator * (d // b.denominator) for b in self.boundaries]
        self._one_hot: list[tuple[Fraction, ...] | None] = [None] * self.k
        # T = sum(weight * width): class j holds n times its width of any n
        # ranked documents under the fractional rule, so I3 is n*T and R is T.
        # On the grid each width is (c_(j+1) - c_j)/D and each weight units_j/W.
        widths = map(sub, self._cuts[1:], self._cuts)
        self._mean_weight = Fraction(sum(map(mul, self._weight_units, widths)), common)

    def check_digits(self, n: int) -> None:
        """Refuse the scheme for sets of up to n documents when a value
        derived for one could have more digits than int-to-str conversion
        allows (SchemeError). Every such value is a fraction of size at most
        2n times the largest weight, with a denominator dividing n times D
        times the weights' lcm, so both its terms are below 2n times
        _value_bound."""
        limit = sys.get_int_max_str_digits()
        if limit and 2 * n * self._value_bound >= 10 ** limit:
            raise SchemeError(
                f"scheme {_shortened(self.name)} needs values of more than {limit} "
                f"digits for a set of {n} documents; they could not be written out"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.classes) == (other.name, other.classes)

    def __hash__(self):
        return hash((self.name, self.classes))

    def __repr__(self):
        return f"PRScheme(name={self.name!r}, classes={self.classes!r})"


def scheme_from_boundaries(
    name: str,
    boundaries: Sequence[Fraction],
    weights: Sequence[Fraction],
) -> PRScheme:
    """Build and validate a scheme from its cut points and per-class weights."""
    if len(boundaries) < 2:
        raise SchemeError("a scheme needs at least two boundaries")
    if len(weights) != len(boundaries) - 1:
        raise SchemeError(
            f"{len(boundaries)} boundaries define {len(boundaries) - 1} classes "
            f"but {len(weights)} weights were given"
        )
    # PRClass refuses a cut outside [0, 1] or out of order, and PRScheme
    # one that does not start at 0 or end at 1.
    bounds = [Fraction(b) for b in boundaries]
    classes = tuple(
        PRClass(i + 1, bounds[i], bounds[i + 1], Fraction(weights[i]))
        for i in range(len(weights))
    )
    return PRScheme(name, classes)


def topx_scheme(x: Fraction) -> PRScheme:
    """Two classes: below the top share x (weight 0) and the top share (weight 1)."""
    x = Fraction(x)
    if not (0 < x < 1):
        raise SchemeError(f"top share must lie strictly between 0 and 1, got {_shortened(x)}")
    return scheme_from_boundaries(
        f"topx({x})",
        (Fraction(0), 1 - x, Fraction(1)),
        (Fraction(0), Fraction(1)),
    )


def builtin_scheme(name: str) -> PRScheme:
    """Return a built-in scheme by name.

    Accepts a name of BUILTIN_SCHEME_NAMES, and a parameterized top share as
    "topx(F)" or "topx=F" where F is an exact fraction strictly between 0 and 1.
    """
    key = name.strip()
    if key in _BUILTINS:
        lowers, weights = _BUILTINS[key]
        return scheme_from_boundaries(key, [Fraction(b, 100) for b in lowers] + [1], weights)
    if key.startswith("topx"):
        rest = key[len("topx"):].strip()
        if rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1]
        elif rest.startswith("="):
            rest = rest[1:]
        else:
            raise SchemeError(
                f"unknown scheme {_shortened(name)}; write topx=1/10 or topx(1/10)"
            )
        try:
            share = parse_fraction(rest)
        except ValueError as exc:
            raise SchemeError(f"invalid top share in {_shortened(name)}: {exc}") from None
        return topx_scheme(share)
    raise SchemeError(
        f"unknown scheme {_shortened(name)}; expected one of {', '.join(BUILTIN_SCHEME_NAMES)}, "
        "topx=<fraction>, or a custom scheme file"
    )


def theoretical_total(scheme: PRScheme, n: int) -> Fraction:
    """The weighted count total a set of n documents must reach when class mass
    is proportional to class width: n * sum(weight_k * width_k). The sum is
    the scheme's one constant, taken when the scheme is built."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n * scheme._mean_weight


_SCHEME_FIELDS = {"name", "boundaries", "weights"}


def load_custom_scheme(source: dict | str | Path) -> PRScheme:
    """Load a scheme from a JSON document or file of the form
    {"boundaries": [fraction strings], "weights": [fraction strings]}.

    Fractions parse exactly; the document round-trips bit-for-bit through
    scheme_to_document.
    """
    default_name = "custom"
    if isinstance(source, (str, Path)):
        path = Path(source)
        default_name = path.stem
        text = _read_utf8(path.read_bytes, SchemeError, f"scheme file {path}")
        # Line ends as a text-mode read gives them, which JSON's error positions count.
        text = text.replace("\r\n", "\n").replace("\r", "\n").removeprefix("\ufeff")
        # Imported on first use, as in io: a run that neither reads nor
        # writes JSON never loads it.
        import json

        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemeError(f"scheme file {path} is not valid JSON: {exc}") from None
        except DataError as exc:  # a repeated key, before ValueError catches it
            raise SchemeError(f"scheme file {path}: {exc}") from None
        except RecursionError:
            raise SchemeError(f"scheme file {path} is nested too deeply to read") from None
        except ValueError:
            raise SchemeError(
                f"scheme file {path} holds an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemeError("a scheme document must be a JSON object")
    unknown = sorted(set(doc) - _SCHEME_FIELDS)
    if unknown:
        raise SchemeError(f"unknown scheme field(s): {', '.join(map(_shortened, unknown))}")
    for field in ("boundaries", "weights"):
        if field not in doc:
            raise SchemeError(f"scheme document is missing the {field!r} field")
        if not isinstance(doc[field], list):
            raise SchemeError(f"scheme field {field!r} must be a list")
    doc_name = doc.get("name", default_name)
    # csv output holds the name, and a NUL there is an error on Python 3.10.
    if not isinstance(doc_name, str) or not doc_name or "\0" in doc_name:
        raise SchemeError("scheme field 'name' must be a non-empty string without NUL")
    if has_surrogate(doc_name):
        raise SchemeError(f"scheme name {_shortened(doc_name)} holds a lone surrogate")

    def parse_all(field: str) -> list[Fraction]:
        values = []
        for i, raw in enumerate(doc[field]):
            try:
                values.append(parse_fraction(raw))
            except ValueError as exc:
                raise SchemeError(f"{field}[{i}]: {exc}") from None
        return values

    return scheme_from_boundaries(
        doc_name, parse_all("boundaries"), parse_all("weights")
    )


def scheme_to_document(scheme: PRScheme) -> dict:
    """Serialize a scheme to the JSON document form load_custom_scheme reads."""
    return {
        "name": scheme.name,
        "boundaries": [str(b) for b in scheme.boundaries],
        "weights": [str(w) for w in scheme.weights],
    }
