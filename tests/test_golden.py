"""Golden CLI outputs: stdout of fixed commands on a small tied fixture with
awkward ids (quotes, backslashes, tabs, newlines, commas, non-ASCII and an
astral-plane character), compared byte for byte.

The files under tests/golden/ pin the output of a known-good build. After a
deliberate change to the output format, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from pctrank import main
from support import first_difference

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUT = GOLDEN / "tied.json"
SCHEME = GOLDEN / "scheme.json"

FORMATS = {"csv": "csv", "json": "json", "table": "txt"}

# golden stem -> argv without --input and --format
COMMANDS = {
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
    "report": ["report", "--scheme", "pr6"],
}

CASES = [(stem, fmt) for stem in COMMANDS for fmt in FORMATS]


def run_cli(stem: str, fmt: str) -> tuple[int, bytes]:
    """Exit code and UTF-8 stdout of one golden command."""
    argv = COMMANDS[stem] + ["--input", str(INPUT), "--format", fmt]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue().encode("utf-8")


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


if __name__ == "__main__":
    for stem, fmt in CASES:
        code, out = run_cli(stem, fmt)
        if code != 0:
            sys.exit(f"{stem} --format {fmt} exited {code}")
        golden_path(stem, fmt).write_bytes(out)
