"""The value types: immutable named tuples with the fields, reprs and errors
they had as frozen dataclasses, and a package import that needs neither
`dataclasses` nor `inspect`."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pctrank
from pctrank import (
    BoundaryPolicy,
    CitationRecord,
    CountingRule,
    DataError,
    DocumentSet,
    FractionalAttribution,
    MidpointRoute,
    PRClass,
    PRScheme,
    QuantileInterval,
    RoundingMode,
    SchemeError,
    attribute_all,
    builtin_scheme,
    compare_rules,
    interval_for,
    rank,
    read_records,
)
from support import package_names

F = Fraction


@pytest.fixture
def ranked():
    """Four documents; b and c tie on ranks 2..3, [1/4, 3/4], across top50's 1/2."""
    return rank(DocumentSet([
        CitationRecord("a", 1),
        CitationRecord("c", 2, "g"),
        CitationRecord("b", 2, "g"),
        CitationRecord("d", 3),
    ]))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps the interpreter's site hooks, which may import either, out of it.
    source_root = Path(pctrank.__file__).resolve().parents[1]
    probe = "import sys, pctrank.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
    )
    assert result.stdout == "[]\n"


def test_the_package_binds_all_and_three_more_names():
    """`import pctrank` binds the documented names, `__all__`, and `main`
    and the error bases beside them; every other name is imported from its
    module, such as `pctrank.io`."""
    assert len(set(pctrank.__all__)) == len(pctrank.__all__) == 30
    assert package_names() == {*pctrank.__all__, "main", "ConfigError", "PctrankError"}


def test_reprs_keep_the_dataclass_format(ranked):
    scheme = builtin_scheme("top50")
    midpoint = attribute_all(ranked, scheme, CountingRule.MIDPOINT, policy=BoundaryPolicy.LOWER)
    rounded = attribute_all(
        ranked, scheme, CountingRule.MIDPOINT, policy=BoundaryPolicy.LOWER,
        rounding=RoundingMode.FLOOR, midpoint_route=MidpointRoute.ENDPOINTS,
    )
    report = compare_rules(ranked, scheme)
    assert repr(ranked.source.records[1]) == "CitationRecord(doc_id='c', citations=2, group='g')"
    assert repr(midpoint[1]) == (
        "PointAttribution(doc_id='b', quantile=Fraction(1, 2), percentile=None, "
        "class_index=1, ambiguous=True, boundary_hit=Fraction(1, 2), endpoint_percentiles=None)"
    )
    assert repr(rounded[1]) == (
        "PointAttribution(doc_id='b', quantile=Fraction(1, 2), percentile=50, "
        "class_index=1, ambiguous=True, boundary_hit=Fraction(1, 2), "
        "endpoint_percentiles=(25, 75))"
    )
    assert repr(attribute_all(ranked, scheme, CountingRule.FRACTIONAL)[1]) == (
        "FractionalAttribution(doc_id='b', fractions=(Fraction(1, 2), Fraction(1, 2)))"
    )
    assert repr(report.flags[0]) == (
        "BoundaryFlag(rule=<CountingRule.MIDPOINT: 'midpoint'>, member_ids=('b', 'c'), "
        "quantile=Fraction(1, 2), boundary=Fraction(1, 2), "
        "interval_low=Fraction(1, 4), interval_high=Fraction(3, 4))"
    )
    assert repr(report.disagreements[0]) == (
        "RuleDisagreement(member_ids=('b', 'c'), classes={"
        "<CountingRule.COUNT_WORSE: 'count-worse'>: 1, "
        "<CountingRule.COUNT_WORSE_OR_EQUAL: 'count-worse-or-equal'>: 2, "
        "<CountingRule.MIDPOINT: 'midpoint'>: 1})"
    )
    assert repr(ranked.groups[1]) == (
        "TieGroup(citations=2, member_ids=('b', 'c'), rank_low=2, rank_high=3)"
    )
    assert repr(interval_for(ranked.groups[1], ranked.n)) == (
        "QuantileInterval(low=Fraction(1, 4), high=Fraction(3, 4))"
    )


def test_values_are_immutable(ranked):
    scheme = builtin_scheme("top50")
    values = [
        ranked.source.records[0],
        ranked.groups[0],
        interval_for(ranked.groups[0], ranked.n),
        scheme.classes[0],
        attribute_all(ranked, scheme, CountingRule.FRACTIONAL)[0],
        attribute_all(ranked, scheme, CountingRule.COUNT_WORSE)[0],
        compare_rules(ranked, scheme),
    ]
    for value in values:
        with pytest.raises(AttributeError):
            value.doc_id = "x"
        with pytest.raises(AttributeError):
            setattr(value, type(value)._fields[0], None)


def test_equal_values_hash_alike():
    assert CitationRecord("a", 1) == CitationRecord("a", 1, None)
    assert hash(CitationRecord("a", 1)) == hash(CitationRecord("a", 1, None))
    assert hash(QuantileInterval(F(1, 4), F(1, 2))) == hash(QuantileInterval(F(2, 8), F(1, 2)))
    assert hash(FractionalAttribution("a", (F(1),))) == hash(FractionalAttribution("a", (F(1),)))
    assert builtin_scheme("pr6") == builtin_scheme("pr6")
    assert hash(builtin_scheme("pr6")) == hash(builtin_scheme("pr6"))
    assert builtin_scheme("pr6") != builtin_scheme("pr100")


def test_values_unpack_as_tuples_of_their_fields():
    doc_id, citations, group = CitationRecord("a", 3)
    assert (doc_id, citations, group) == ("a", 3, None)
    assert CitationRecord("a", 3) == ("a", 3, None)
    assert PRClass(1, F(0), F(1), F(2))[3] == F(2)


@pytest.mark.parametrize("text", [
    "id,citations,group\nb,2,g\na,0,\n",
    '[{"id": "b", "citations": 2, "group": "g"}, {"id": "a", "citations": 0}]',
])
def test_reader_records_are_validated_records(text, tmp_path):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    records = read_records(str(path))
    assert records == [CitationRecord("b", 2, "g"), CitationRecord("a", 0)]
    for record in records:
        assert type(record) is CitationRecord
        assert record == CitationRecord(*record)


@pytest.mark.parametrize("make,error,message", [
    (lambda: CitationRecord("", 1), DataError, "document id must be a non-empty string"),
    (lambda: CitationRecord(3, 1), DataError, "document id must be a non-empty string"),
    (lambda: CitationRecord("a", "3"), DataError, "citations for 'a' must be an integer"),
    (lambda: CitationRecord("a", -1), DataError, "citations for 'a' must be non-negative"),
    (lambda: CitationRecord("i" * 50, -1), DataError,
     f"citations for {'i' * 40!r}... (50 characters) must be non-negative"),
    (lambda: DocumentSet([CitationRecord("a", 1), CitationRecord("b", 1), CitationRecord("a", 2)]),
     DataError, "duplicate document id 'a'"),
    (lambda: DocumentSet([CitationRecord("a\x1b" * 30, 1)] * 2),
     DataError, "duplicate document id " + repr("a\x1b" * 20) + "... (60 characters)"),
    (lambda: DocumentSet([]), DataError, "a document set needs at least one record"),
    (lambda: PRClass(2, F(1, 2), F(1, 2), F(1)), SchemeError,
     "class 2: need 0 <= lower < upper <= 1, got [1/2, 1/2]"),
    (lambda: QuantileInterval(F(3, 4), F(1, 2)), ValueError,
     "need 0 <= low < high <= 1, got [3/4, 1/2]"),
    (lambda: PRScheme("x", ()), SchemeError, "a scheme needs at least one class"),
    (lambda: PRScheme("x", (PRClass(1, F(1, 4), F(1), F(1)),)), SchemeError,
     "the first class must start at 0"),
    (lambda: PRScheme("x", (PRClass(1, F(0), F(1, 2), F(1)),)), SchemeError,
     "the last class must end at 1"),
    (lambda: PRScheme("x", (PRClass(1, F(0), F(1, 4), F(1)), PRClass(2, F(1, 2), F(1), F(1)))),
     SchemeError, "classes 1 and 2 do not meet: 1/4 vs 1/2"),
    (lambda: PRScheme("x", (PRClass(1, F(0), F(1, 2), F(1)), PRClass(3, F(1, 2), F(1), F(1)))),
     SchemeError, "class at position 2 carries index 3"),
])
def test_constructors_keep_their_errors(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message
