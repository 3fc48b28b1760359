"""The value types: immutable named tuples with the fields, reprs and errors
they had as frozen dataclasses, and a package import that needs neither
`dataclasses` nor `inspect`."""

from __future__ import annotations

import ast
import os
import re
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

SOURCE = Path(pctrank.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"
# The package's layers, lowest first: each module imports only those before it.
LAYERS = ("model", "scoring", "indicators", "io", "cli")
# `__init__` imports these to bind them on the package, not to use them.
PACKAGE_BINDINGS = {*pctrank.__all__, "main", "ConfigError", "PctrankError", "__version__"}


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


@pytest.mark.parametrize("argv,loads_json", [
    (["attribute", "--scheme", "pr100", "--input", "in.csv", "--format", "csv"], False),
    (["attribute", "--scheme", "pr6", "--input", "in.csv"], False),
    (["indicators", "--scheme", "topx=1/10", "--input", "in.csv", "--format", "csv"], False),
    (["report", "--scheme", "top50", "--input", "in.csv"], False),
    (["schemes", "--format", "csv"], False),
    (["attribute", "--scheme", "pr6", "--input", "in.csv", "--format", "json"], True),
    (["report", "--scheme", "top50", "--input", "in.csv", "--format", "json"], True),
    (["indicators", "--scheme", "pr6", "--input", "in.json", "--format", "csv"], True),
    (["attribute", "--scheme", "custom=scheme.json", "--input", "in.csv", "--format", "csv"], True),
])
def test_a_run_loads_json_only_to_read_or_write_json(tmp_path, argv, loads_json):
    """A run that reads csv, writes csv or a table and takes a built-in
    scheme never imports `json`; one that reads or writes JSON does."""
    (tmp_path / "in.csv").write_text("id,citations\na,1\nb,2\nc,2\n")
    (tmp_path / "in.json").write_text('[{"id": "a", "citations": 1}]')
    (tmp_path / "scheme.json").write_text(
        '{"boundaries": ["0", "1/2", "1"], "weights": ["0", "1"]}'
    )
    source_root = Path(pctrank.__file__).resolve().parents[1]
    probe = (f"import sys; from pctrank.cli import main; code = main({argv!r}); "
             "print(code, 'json' in sys.modules, file=sys.stderr)")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(source_root)},
    )
    assert result.stderr == f"0 {loads_json}\n"


def test_the_package_binds_all_and_three_more_names():
    """`import pctrank` binds the documented names, `__all__`, and `main`
    and the error bases beside them; every other name is imported from its
    module, such as `pctrank.io`."""
    assert len(set(pctrank.__all__)) == len(pctrank.__all__) == 30
    assert package_names() == {*pctrank.__all__, "main", "ConfigError", "PctrankError"}


def source_modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def read_names(node: ast.AST) -> set[str]:
    """The names a piece of code reads: bare names, and attributes read off
    any value, such as a module's."""
    return {
        sub.attr if isinstance(sub, ast.Attribute) else sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
    }


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in source_modules().items():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exempt = PACKAGE_BINDINGS if module == "__init__.py" else set()
        unused += [f"{module}: {name}" for name in sorted(imported - used - exempt)]
    assert unused == []


def test_readme_layout_names_every_module():
    """README "Layout" lists each module of the package but the entry points, once."""
    layout = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"`src/pctrank/(\w+)\.py`", layout)
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(named) == sorted(modules)


def package_imports(tree: ast.Module) -> list[str]:
    """The package modules a module imports, as `from .x` or `from . import x`."""
    return [
        name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        for name in ([node.module] if node.module else [alias.name for alias in node.names])
    ]


def test_modules_import_each_other_in_layer_order():
    """model <- scoring <- indicators <- io <- cli: each module imports only
    the layers before it, so no two modules import each other, and a new
    module must take its place in LAYERS. The entry points may import any."""
    modules = source_modules()
    assert set(modules) - {"__init__.py", "__main__.py"} == {f"{name}.py" for name in LAYERS}
    out_of_order = [
        f"{name}.py imports {target}"
        for position, name in enumerate(LAYERS)
        for target in package_imports(modules[f"{name}.py"])
        if target not in LAYERS[:position]
    ]
    assert out_of_order == []


def test_private_names_cross_modules_only_where_listed():
    """Each (module, private name) that a package module imports from
    another, dunders aside. The list is exact, so it shrinks as each import
    goes and a new one has to be added here on purpose."""
    crossings = sorted(
        (module.removesuffix(".py"), alias.name)
        for module, tree in source_modules().items()
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert crossings == [
        ("cli", "_shortened"),
        ("indicators", "_fractional_score"),
        ("indicators", "_near_boundaries"),
        ("indicators", "_points"),
        ("indicators", "_tie_groups"),
        ("io", "_checked_columns"),
        ("io", "_fractional_score"),
        ("io", "_read_utf8"),
        ("io", "_shortened"),
        ("io", "_unique_keys"),
        ("scoring", "_CITATIONS"),
    ]


def test_every_private_top_level_name_is_used_besides_its_definition():
    modules = source_modules()
    reads = {
        (module, index): read_names(statement)
        for module, tree in modules.items() for index, statement in enumerate(tree.body)
    }
    unused = []
    for module, tree in modules.items():
        for index, statement in enumerate(tree.body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [statement.name]
            elif isinstance(statement, ast.Assign):
                defined = [n.id for target in statement.targets
                           for n in ast.walk(target) if isinstance(n, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and statement.simple:
                defined = [statement.target.id]
            else:
                continue
            unused += [
                f"{module}: {name}" for name in defined
                if name.startswith("_") and not name.endswith("__")
                and not any(name in names for key, names in reads.items() if key != (module, index))
            ]
    assert unused == []


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
    (lambda: CitationRecord("a", 1, 0), DataError, "group for 'a' must be a string"),
    (lambda: CitationRecord("a", 1, 5), DataError, "group for 'a' must be a string"),
    (lambda: CitationRecord("a", 1, b"g"), DataError, "group for 'a' must be a string"),
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
