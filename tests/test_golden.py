"""Golden CLI outputs: stdout of fixed commands on a small tied fixture with
awkward ids (quotes, backslashes, tabs, newlines, commas, non-ASCII and an
astral-plane character), compared byte for byte. The README's command line
examples are checked against the CLI as well, and its library example runs.

The files under tests/golden/ pin the output of a known-good build. After a
deliberate change to the output format, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import gc
import io
import re
import shlex
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import pctrank
from pctrank import main
from support import first_difference, package_names

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
INPUT = GOLDEN / "tied.json"
SCHEME = GOLDEN / "scheme.json"

FORMATS = {"csv": "csv", "json": "json", "table": "txt"}

# golden stem -> argv without --input and --format
COMMANDS = {
    "schemes": ["schemes"],
    "schemes-custom": ["schemes", "--scheme", f"custom={SCHEME}"],
    "schemes-top50": ["schemes", "--scheme", "top50"],
    "schemes-pr6": ["schemes", "--scheme", "pr6"],
    "schemes-pr100": ["schemes", "--scheme", "pr100"],
    "attribute-fractional-pr6": ["attribute", "--scheme", "pr6"],
    "attribute-fractional-custom": ["attribute", "--scheme", f"custom={SCHEME}"],
    "attribute-midpoint-half-up-endpoints": [
        "attribute", "--scheme", "pr6", "--rule", "midpoint",
        "--rounding", "half-up", "--midpoint-route", "endpoints",
    ],
    "indicators-fractional": ["indicators", "--scheme", "pr6"],
    "indicators-count-worse-or-equal": [
        "indicators", "--scheme", f"custom={SCHEME}", "--rule", "count-worse-or-equal",
    ],
    "indicators-top50": ["indicators", "--scheme", "top50"],
    "report": ["report", "--scheme", "pr6"],
    "report-floor-endpoints": [
        "report", "--scheme", "pr6", "--rounding", "floor", "--midpoint-route", "endpoints",
    ],
    "attribute-count-worse-upper": [
        "attribute", "--scheme", "pr6", "--rule", "count-worse", "--boundary", "upper",
    ],
}

CASES = [(stem, fmt) for stem in COMMANDS for fmt in FORMATS]


def run_main(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def golden_argv(stem: str, fmt: str) -> list[str]:
    """The arguments of one golden command; CI runs them through the
    installed `pct` as well."""
    argv = COMMANDS[stem] + ["--format", fmt]
    if argv[0] != "schemes":
        argv += ["--input", str(INPUT)]
    return argv


def run_cli(stem: str, fmt: str) -> tuple[int, bytes]:
    """Exit code and UTF-8 stdout of one golden command."""
    code, out = run_main(golden_argv(stem, fmt))
    return code, out.encode("utf-8")


def golden_path(stem: str, fmt: str) -> Path:
    return GOLDEN / f"{stem}.{FORMATS[fmt]}"


@pytest.mark.parametrize("stem,fmt", CASES, ids=[f"{s}-{f}" for s, f in CASES])
def test_cli_output_matches_golden_bytes(stem, fmt, monkeypatch):
    monkeypatch.delenv("PCT_PRECISION", raising=False)
    code, out = run_cli(stem, fmt)
    assert code == 0
    expected = golden_path(stem, fmt).read_bytes()
    same = out == expected
    assert same, first_difference(out, expected)


def test_golden_commands_leave_nothing_for_a_finalizer_to_warn_of(monkeypatch):
    """`pct` and `python -m pctrank` freeze the collector as they exit, so a
    file left open inside a reference cycle is never finalized there, and
    its ResourceWarning never shows. Here every golden command runs through
    main, which pauses the collector, and a full collection then finalizes
    what the runs left: a ResourceWarning is an error, and no finalizer may
    raise one."""
    monkeypatch.delenv("PCT_PRECISION", raising=False)
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        codes = [run_cli(stem, fmt)[0] for stem, fmt in CASES]
        gc.collect()
    assert codes == [0] * len(CASES)
    assert [str(hook.exc_value) for hook in unraisable] == []


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, expected output lines) of each `$ pct ...` block in the
    README's "Command line" section."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```text\n(.*?)```", section, flags=re.S):
        command, *lines = block.splitlines()
        if command.startswith("$ pct "):
            examples.append((command[2:], lines))
    return examples


EXAMPLES = readme_examples()


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_command_line_examples(command, expected, tmp_path, monkeypatch):
    """Each example runs on the five-document input it names; lines on either
    side of a "..." line are compared with the start and end of the output."""
    monkeypatch.delenv("PCT_PRECISION", raising=False)
    five = tmp_path / "five.csv"
    five.write_text("id,citations\n" + "".join(f"d{i},{i}\n" for i in range(1, 6)))
    argv = [str(five) if arg == "five.csv" else arg for arg in shlex.split(command)[1:]]
    code, out = run_main(argv)
    assert code == 0
    lines = out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1:]
        assert lines[:len(head)] == head
        assert lines[len(lines) - len(tail):] == tail
    else:
        assert lines == expected


def test_readme_library_example():
    """The README's "Library" example runs and gives the values its comments
    state. Of the names `import pctrank` binds, the section names, in code or
    between backticks, every `__all__` entry and nothing else."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    stated = re.findall(r"^(\S+)\s+# (Fraction\(\d+, \d+\)|\('\w+',\))", code, flags=re.M)
    assert [expression for expression, _ in stated] == [
        "result.i3", "result.pp", "report.flags[0].member_ids",
    ]
    for expression, value in stated:
        assert eval(expression, namespace) == eval(value, {"Fraction": Fraction})
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"\w+", code + " ".join(re.findall(r"`([^`]+)`", prose))))
    assert named & package_names() == set(pctrank.__all__)


if __name__ == "__main__":
    for stem, fmt in CASES:
        code, out = run_cli(stem, fmt)
        if code != 0:
            sys.exit(f"{stem} --format {fmt} exited {code}")
        golden_path(stem, fmt).write_bytes(out)
