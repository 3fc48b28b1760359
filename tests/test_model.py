from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pctrank import (
    CitationRecord,
    DataError,
    DocumentSet,
    PRClass,
    SchemeError,
    builtin_scheme,
    theoretical_total,
)
from pctrank.io import partition_by_group
from pctrank.model import (
    BUILTIN_SCHEME_NAMES,
    load_custom_scheme,
    parse_fraction,
    scheme_from_boundaries,
    scheme_to_document,
    topx_scheme,
)

F = Fraction


class TestParseFraction:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", F(1, 2)),
            ("3/4", F(3, 4)),
            (" 19/20 ", F(19, 20)),
            ("0.05", F(1, 20)),
            ("0.1", F(1, 10)),  # exact decimal, not the nearest binary float
            ("3", F(3)),
            ("-2/3", F(-2, 3)),
            ("100/200", F(1, 2)),
        ],
    )
    def test_exact_values(self, text, expected):
        assert parse_fraction(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1/2/3", None, 0.5, True])
    def test_rejects_garbage_and_floats(self, bad):
        with pytest.raises(ValueError):
            parse_fraction(bad)

    @pytest.mark.parametrize("value,named", [
        (None, "None"), ([0] * 20, "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (60 characters)"),
    ], ids=["None", "list"])
    def test_a_value_that_is_not_a_string_is_named_by_its_cut_repr(self, value, named):
        with pytest.raises(ValueError) as caught:
            parse_fraction(value)
        assert str(caught.value) == f"cannot parse {named} as a fraction"

    @pytest.mark.parametrize("text", ["1e-10000", "1e10000", "2.5e5000", "-3e-4400"])
    def test_a_value_too_long_to_write_out_is_refused(self, text):
        with pytest.raises(ValueError, match=f"^invalid fraction '{text}'$"):
            parse_fraction(text)
        digits = sys.get_int_max_str_digits()
        assert parse_fraction(f"1e-{digits - 1}") == F(1, 10 ** (digits - 1))

    @pytest.mark.parametrize("text", ["1_000", "1/1_0", "0.1_5", "1e1_0", "٣", "1/٣", "１"])
    def test_only_ascii_digits_without_underscores(self, text):
        """Python 3.11 reads "1_000" and every version reads "٣" as 3;
        refusing both makes 3.10 to 3.13 agree."""
        with pytest.raises(ValueError, match=f"^invalid fraction {text!r}$"):
            parse_fraction(text)

    def test_accepts_int_and_fraction(self):
        assert parse_fraction(7) == F(7)
        assert parse_fraction(F(2, 6)) == F(1, 3)

    @given(st.fractions())
    def test_round_trips_through_format(self, value):
        assert parse_fraction(str(value)) == value

    @given(st.fractions(), st.fractions())
    def test_arithmetic_is_exact(self, a, b):
        total = a + b
        assert total.denominator > 0
        assert total * b.denominator * a.denominator == (
            a.numerator * b.denominator + b.numerator * a.denominator
        )


class TestRecordsAndSets:
    def test_record_validation(self):
        with pytest.raises(DataError):
            CitationRecord("", 1)
        with pytest.raises(DataError):
            CitationRecord("a", -1)
        with pytest.raises(DataError):
            CitationRecord("a", "3")
        with pytest.raises(DataError):
            CitationRecord("a", True)

    @pytest.mark.parametrize("blank", [" ", "\t", " \r\n "])
    def test_an_id_of_whitespace_is_refused(self, blank):
        with pytest.raises(DataError, match="^document id must be a non-empty string$"):
            CitationRecord(blank, 1)

    @pytest.mark.parametrize("blank", ["", " ", "\t", " \r\n "])
    def test_a_blank_group_is_no_group(self, blank):
        assert CitationRecord("a", 1, blank) == CitationRecord("a", 1)
        sets = partition_by_group([CitationRecord("a", 1), CitationRecord("b", 2, blank)])
        assert list(sets) == ["default"]
        assert [r.group for r in sets["default"].records] == [None, None]

    @pytest.mark.parametrize("doc_id,group", [("a\0b", None), ("\0", "g"), ("a", "g\0")])
    def test_nul_in_an_id_or_group_is_refused(self, doc_id, group):
        with pytest.raises(DataError, match="holds a NUL character"):
            CitationRecord(doc_id, 1, group)

    @pytest.mark.parametrize("doc_id,group", [("a\ud800", None), ("\udc80", "g"),
                                              ("a", "g\udfff")])
    def test_a_lone_surrogate_in_an_id_or_group_is_refused(self, doc_id, group):
        with pytest.raises(DataError, match="holds a lone surrogate"):
            CitationRecord(doc_id, 1, group)
        assert CitationRecord("\U0001f600", 1, "\u00e9").doc_id == "\U0001f600"

    def test_ids_and_groups_keep_their_inner_whitespace(self):
        record = CitationRecord(" pad ", 1, " g ")
        assert (record.doc_id, record.group) == (" pad ", " g ")

    def test_zero_citations_allowed(self):
        assert CitationRecord("a", 0).citations == 0

    def test_duplicate_ids_rejected(self):
        records = (CitationRecord("a", 1), CitationRecord("a", 2))
        with pytest.raises(DataError, match="duplicate"):
            DocumentSet(records)

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            DocumentSet(())

    def test_n_counts_records(self):
        records = tuple(CitationRecord(f"d{i}", i) for i in range(4))
        assert DocumentSet(records).n == 4


class TestBuiltinSchemes:
    def test_top50_layout(self):
        scheme = builtin_scheme("top50")
        assert scheme.boundaries == (F(0), F(1, 2), F(1))
        assert scheme.weights == (F(0), F(1))
        assert repr(scheme) == (
            "PRScheme(name='top50', classes=("
            "PRClass(index=1, lower=Fraction(0, 1), upper=Fraction(1, 2), weight=Fraction(0, 1)), "
            "PRClass(index=2, lower=Fraction(1, 2), upper=Fraction(1, 1), weight=Fraction(1, 1))))"
        )
        # Only another scheme compares: anything else is left to its own __eq__.
        assert scheme.__eq__(scheme.classes) is NotImplemented and scheme != "top50"

    def test_names(self):
        assert BUILTIN_SCHEME_NAMES == ("top50", "pr6", "pr100")
        assert [builtin_scheme(name).name for name in BUILTIN_SCHEME_NAMES] == [
            "top50", "pr6", "pr100"
        ]

    def test_pr6_layout(self):
        scheme = builtin_scheme("pr6")
        assert scheme.k == 6
        assert scheme.boundaries == (
            F(0), F(1, 2), F(3, 4), F(9, 10), F(19, 20), F(99, 100), F(1)
        )
        assert scheme.weights == tuple(F(w) for w in range(1, 7))
        assert scheme.classes[2] == PRClass(3, F(3, 4), F(9, 10), F(3))

    def test_pr100_layout(self):
        scheme = builtin_scheme("pr100")
        assert scheme.k == 100
        cls88 = scheme.classes[87]
        assert (cls88.lower, cls88.upper, cls88.weight) == (F(87, 100), F(88, 100), F(88))
        assert scheme.classes[-1].upper == 1

    def test_topx_layout(self):
        scheme = topx_scheme(F(1, 10))
        assert scheme.boundaries == (F(0), F(9, 10), F(1))
        assert scheme.weights == (F(0), F(1))
        assert builtin_scheme("topx(1/10)") == scheme
        assert builtin_scheme("topx=1/10") == scheme

    @pytest.mark.parametrize("bad", [F(0), F(1), F(3, 2), F(-1, 4)])
    def test_topx_range(self, bad):
        with pytest.raises(SchemeError):
            topx_scheme(bad)

    def test_unknown_name(self):
        with pytest.raises(SchemeError):
            builtin_scheme("pr7")
        with pytest.raises(SchemeError, match=r"^unknown scheme 'topx 1/10'; write topx=1/10 "):
            builtin_scheme("topx 1/10")


class TestTheoreticalTotal:
    @pytest.mark.parametrize("n", [1, 8, 999])
    def test_known_totals(self, n):
        assert theoretical_total(builtin_scheme("top50"), n) == F(n, 2)
        assert theoretical_total(builtin_scheme("pr6"), n) == F(191 * n, 100)
        assert theoretical_total(builtin_scheme("pr100"), n) == F(101 * n, 2)

    def test_matches_weighted_widths(self):
        scheme = topx_scheme(F(1, 10))
        assert theoretical_total(scheme, 10) == F(1)  # 10 * (0*9/10 + 1*1/10)

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            theoretical_total(builtin_scheme("top50"), 0)


class TestSchemeConstruction:
    def test_mismatched_weight_count(self):
        with pytest.raises(SchemeError):
            scheme_from_boundaries("x", (F(0), F(1, 2), F(1)), (F(1),))

    def test_non_monotone_boundaries(self):
        with pytest.raises(SchemeError):
            scheme_from_boundaries("x", (F(0), F(3, 4), F(1, 2), F(1)), (F(1),) * 3)

    def test_boundary_outside_unit_interval(self):
        with pytest.raises(SchemeError):
            scheme_from_boundaries("x", (F(0), F(3, 2)), (F(1),))

    def test_must_span_zero_to_one(self):
        with pytest.raises(SchemeError):
            scheme_from_boundaries("x", (F(1, 4), F(1)), (F(1),))
        with pytest.raises(SchemeError):
            scheme_from_boundaries("x", (F(0), F(3, 4)), (F(1),))

    def test_single_class_scheme_is_valid(self):
        scheme = scheme_from_boundaries("one", (F(0), F(1)), (F(5),))
        assert scheme.k == 1
        assert scheme.boundaries == (F(0), F(1))

    def test_weights_may_repeat_and_dip(self):
        scheme = scheme_from_boundaries(
            "wavy", (F(0), F(1, 3), F(2, 3), F(1)), (F(2), F(0), F(2))
        )
        assert scheme.weights == (F(2), F(0), F(2))

    def test_denominators_too_long_together_are_refused(self):
        """Each value fits the integer-string limit; the lcm of the boundary
        denominators times that of the weight denominators must too."""
        limit = sys.get_int_max_str_digits()
        tiny = F(1, 10 ** (limit - 1))  # a denominator of `limit` digits
        assert scheme_from_boundaries("edge", (F(0), tiny, F(1)), (F(1), F(2))).k == 2
        for boundaries, weights in (
            ((F(0), tiny, F(1)), (F(1), F(1, 10))),
            ((F(0), F(1, 2), F(1)), (F(1), tiny / 5)),
            ((F(0), 1 / (1 / tiny + 1), tiny, F(1)), (F(1), F(2), F(3))),
        ):
            with pytest.raises(SchemeError, match=f"more than {limit} digits"):
                scheme_from_boundaries("x" * 5000, boundaries, weights)


    def test_values_too_long_for_n_documents_are_refused(self):
        """check_digits leaves room for n and for the weights' numerators:
        a set's values stay below 2n times D, the weights' lcm and their
        largest numerator."""
        limit = sys.get_int_max_str_digits()
        nines = F(int("9" * limit))  # a weight of `limit` digits
        wide = scheme_from_boundaries("w" * 5000, (F(0), F(1, 2), F(1)), (F(1), nines))
        tiny = scheme_from_boundaries(
            "tiny", (F(0), F(1, 10 ** (limit - 1)), F(1)), (F(1), F(2))
        )
        tiny.check_digits(2)
        for scheme, n in ((wide, 1), (wide, 50), (tiny, 3), (tiny, 11)):
            with pytest.raises(SchemeError) as refused:
                scheme.check_digits(n)
            assert str(refused.value).endswith(
                f"needs values of more than {limit} digits for a set of {n} documents; "
                "they could not be written out"
            )
        assert len(str(refused.value)) < 200
        builtin_scheme("pr100").check_digits(10 ** 12)

class TestCustomSchemeDocuments:
    def test_load_from_dict(self):
        doc = {"boundaries": ["0", "1/2", "1"], "weights": ["0", "1"]}
        scheme = load_custom_scheme(doc)
        assert scheme.classes == builtin_scheme("top50").classes

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text(json.dumps(
            {"boundaries": ["0", "0.25", "3/4", "1"], "weights": ["1", "2", "3"]}
        ))
        scheme = load_custom_scheme(path)
        assert scheme.name == "steps"
        assert scheme.boundaries == (F(0), F(1, 4), F(3, 4), F(1))

    def test_round_trip_is_bit_exact(self):
        for name in ("top50", "pr6", "pr100"):
            scheme = builtin_scheme(name)
            doc = scheme_to_document(scheme)
            assert load_custom_scheme(doc) == scheme
            assert scheme_to_document(load_custom_scheme(doc)) == doc

    @pytest.mark.parametrize(
        "doc",
        [
            {"weights": ["1"]},
            {"boundaries": ["0", "1"]},
            {"boundaries": ["0", "1"], "weights": ["1"], "extra": 1},
            {"boundaries": ["0", "1"], "weights": ["1/0"]},
            {"boundaries": "0,1", "weights": ["1"]},
            {"boundaries": ["0", "0.3"], "weights": ["1"]},
            {"boundaries": ["0", "1"], "weights": ["1"], "name": "a\0b"},
            {"boundaries": ["0", "1"], "weights": ["1"], "name": "s\udc80"},
            ["0", "1"],
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(SchemeError):
            load_custom_scheme(doc)

    def test_a_repeated_key_in_a_file_is_refused(self, tmp_path):
        """json.loads alone would keep the last weights, 5 and 9."""
        path = tmp_path / "twice.json"
        path.write_text(
            '{"boundaries": ["0", "1/2", "1"], "weights": ["0", "1"], "weights": ["5", "9"]}'
        )
        with pytest.raises(SchemeError) as refused:
            load_custom_scheme(path)
        assert str(refused.value) == f"scheme file {path}: repeated key 'weights' in a JSON object"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemeError):
            load_custom_scheme(tmp_path / "nope.json")
