"""Compare the `pct` output of two source trees, command by command.

Usage: python tests/parity.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `pctrank` package (a checkout's
`src`). Both trees run `python -m pctrank` on the same commands and inputs:

- `attribute` under each counting rule, with no options, with
  `--rounding floor --midpoint-route endpoints` and with
  `--rounding half-up --boundary upper`;
- `indicators` under each counting rule;
- `report`, with no options and with floor rounding on the endpoints route;
- `schemes`;

each in table, csv and json. The inputs are the seed-1 and seed-2 files of
every benchmark workload, made by `perfbench/workloads.py`, under the
workload's scheme, and `tests/golden/tied.json` under pr6. Exit code, stdout
and stderr must match. It prints how many commands match and the first
differences, and exits 1 on any difference. The file is not named `test_*`,
so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from workloads import WORKLOADS, generate, serialize  # noqa: E402

RULES = ("count-worse", "count-worse-or-equal", "midpoint", "fractional")
ATTRIBUTE_OPTIONS = (
    (),
    ("--rounding", "floor", "--midpoint-route", "endpoints"),
    ("--rounding", "half-up", "--boundary", "upper"),
)
REPORT_OPTIONS = ((), ("--rounding", "floor", "--midpoint-route", "endpoints"))
FORMATS = ("table", "csv", "json")
SEEDS = (1, 2)
SHOWN_DIFFERENCES = 5


def commands(inputs: list[tuple[str, str]]) -> list[list[str]]:
    """Every argv of the sweep, for (input path, scheme selector) pairs."""
    runs = [["schemes"]]
    for path, scheme in inputs:
        common = ["--scheme", scheme, "--input", path]
        runs += [["attribute", *common, "--rule", rule, *options]
                 for rule in RULES for options in ATTRIBUTE_OPTIONS]
        runs += [["indicators", *common, "--rule", rule] for rule in RULES]
        runs += [["report", *common, *options] for options in REPORT_OPTIONS]
    return [[*argv, "--format", fmt] for argv in runs for fmt in FORMATS]


def run(src: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PCT_PRECISION", None)
    done = subprocess.run([sys.executable, "-m", "pctrank", *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


def first_difference(parent: bytes, change: bytes) -> str:
    """The first line where two outputs differ."""
    got, want = change.splitlines(), parent.splitlines()
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        if line != wanted:
            return f"line {number}: {wanted[:120]!r} -> {line[:120]!r}"
    return f"{len(want)} lines -> {len(got)} lines"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(src, "pctrank").is_dir() for src in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (str(Path(src).resolve()) for src in argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [(str(REPO / "tests" / "golden" / "tied.json"), "pr6")]
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                path = Path(tmp, f"{workload.name}-seed{seed}.{workload.input_format}")
                path.write_bytes(serialize(generate(workload, seed), workload.input_format))
                inputs.append((str(path), workload.scheme.selector))
        runs = commands(inputs)
        with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
            results = list(pool.map(
                lambda argv: (run(parent, argv), run(change, argv)), runs
            ))
    differences = []
    for argv, (before, after) in zip(runs, results):
        for name, old, new in zip(("exit code", "stdout", "stderr"), before, after):
            if old != new:
                detail = f"{old} -> {new}" if name == "exit code" else first_difference(old, new)
                differences.append(f"{' '.join(argv)}: {name}: {detail}")
    matching = sum(before == after for before, after in results)
    print(f"{matching} of {len(runs)} commands match")
    for line in differences[:SHOWN_DIFFERENCES]:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
