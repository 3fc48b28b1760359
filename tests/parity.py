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

each in table, csv and json: 489 commands. The inputs are the seed-1 and
seed-2 files of every benchmark workload, made by `perfbench/workloads.py`,
under the workload's scheme; `tests/golden/tied.json` under pr6; and
`unequal_groups(UNEQUAL_SEED)` under topx=1/10 and pr6. Exit code, stdout
and stderr must match.

It also runs `attribute --format csv` on one invalid input per fault the
csv and JSON readers refuse (INVALID_INPUTS). There exit code and stdout
must match, and every input whose message differs is listed with the first
difference, so that a reader change shows what it does to its messages.

It prints how many commands match and the first differences, and exits 1
on any difference that must not be. The file is not named `test_*`, so
pytest does not collect it.
"""

from __future__ import annotations

import os
import random
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
UNEQUAL_SEED = 31
FORMATS = ("table", "csv", "json")
SEEDS = (1, 2)
SHOWN_DIFFERENCES = 5
FIELD = b"x" * 131_073  # one character over the csv module's default field limit
TOO_LONG = b"9" * 5000  # more digits than Python's default integer-string limit
# One input per fault the readers refuse, by file name.
INVALID_INPUTS = {
    "empty.csv": b"",
    "not-utf8.csv": b"id,citations\n\xff,1\n",
    "unknown-column.csv": b"id,citations,color\na,1,red\n",
    "repeated-column.csv": b"id,id,citations\na,a,1\n",
    "missing-column.csv": b"citations,group\n1,x\n",
    "no-rows.csv": b"id,citations\n",
    "column-count.csv": b"id,citations\na,1\nb,2,3\n",
    "field-limit.csv": b"id,citations\na,1\n" + FIELD + b",2\n",
    "citations-not-digits.tsv": b"id\tcitations\na\t1\nb\t-2\n",
    "citations-too-long.csv": b"id,citations\na,1\nb," + TOO_LONG + b"\n",
    "blank-id.csv": b'id,citations\na,1\n" ",2\n',
    "duplicate-id.csv": b"id,citations\na,1\nb,2\na,3\n",
    "nul-in-id.csv": b"id,citations\na,1\nb\x00c,2\n",
    "nul-in-group.csv": b"id,citations,group\na,1,g\nb,2,g\x00h\n",
    "invalid.json": b'[{"id": "a", "citations": 1}',
    "nested.json": b"[" * 100_000,
    "repeated-key.json": b'[{"id": "a", "citations": 1, "citations": 2}]',
    "not-a-list.json": b'{"rows": []}',
    "beside-documents.json": b'{"documents": [{"id": "a", "citations": 1}], "note": 1}',
    "no-documents.json": b"[]",
    "not-an-object.json": b'[{"id": "a", "citations": 1}, 3]',
    "unknown-field.json": b'[{"id": "a", "citations": 1, "extra": 2}]',
    "missing-id.json": b'[{"id": "a", "citations": 1}, {"citations": 2}]',
    "id-not-a-string.json": b'[{"id": 3, "citations": 1}]',
    "blank-id.json": b'[{"id": "a", "citations": 1}, {"id": " ", "citations": 2}]',
    "citations-missing.json": b'[{"id": "a"}]',
    "citations-float.json": b'[{"id": "a", "citations": 1.5}]',
    "citations-bool.json": b'[{"id": "a", "citations": true}]',
    "citations-string.json": b'[{"id": "a", "citations": "7"}]',
    "citations-negative.json": b'[{"id": "a", "citations": -1}]',
    "citations-too-long.json": b'[{"id": "a", "citations": 1}, {"id": "b", "citations": '
                               + TOO_LONG + b"}]",
    "group-not-a-string.json": b'[{"id": "a", "citations": 1, "group": 3}]',
    "nul-in-id.json": b'[{"id": "a\\u0000b", "citations": 1}]',
    "surrogate-in-group.json": b'[{"id": "a", "citations": 1, "group": "\\udc80"}]',
    "duplicate-id.json": b'[{"id": "a", "citations": 1}, {"id": "a", "citations": 2}]',
}


def unequal_groups(seed: int) -> bytes:
    """A csv of 60 groups of 1 to 60 documents each, both sizes included,
    with Pareto(1.2) citation counts, rows shuffled: per-group paths on
    groups of unequal sizes, where every benchmark workload's are equal."""
    rng = random.Random(seed)
    sizes = [1, 60, *(rng.randint(1, 60) for _ in range(58))]
    rows = [f"f{g}-{i},{int(rng.paretovariate(1.2)) - 1},field{g:02d}\n"
            for g, size in enumerate(sizes) for i in range(size)]
    rng.shuffle(rows)
    return ("id,citations,group\n" + "".join(rows)).encode()


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


def run(src: str, argv: list[str], cwd: str) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PCT_PRECISION", None)
    done = subprocess.run([sys.executable, "-m", "pctrank", *argv], capture_output=True,
                          env=env, cwd=cwd)
    return done.returncode, done.stdout, done.stderr


def first_difference(parent: bytes, change: bytes) -> str:
    """The first line where two outputs differ."""
    got, want = change.splitlines(), parent.splitlines()
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        if line != wanted:
            return f"line {number}: {wanted[:120]!r} -> {line[:120]!r}"
    return f"{len(want)} lines -> {len(got)} lines"


def differences(runs, results, names=("exit code", "stdout", "stderr")) -> list[str]:
    """One line per command and named output that differ between the trees."""
    lines = []
    for argv, (before, after) in zip(runs, results):
        for name, old, new in zip(("exit code", "stdout", "stderr"), before, after):
            if name in names and old != new:
                detail = f"{old} -> {new}" if name == "exit code" else first_difference(old, new)
                lines.append(f"{' '.join(argv)}: {name}: {detail}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(src, "pctrank").is_dir() for src in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (str(Path(src).resolve()) for src in argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [(str(REPO / "tests" / "golden" / "tied.json"), "pr6")]
        unequal = Path(tmp, "unequal-groups.csv")
        unequal.write_bytes(unequal_groups(UNEQUAL_SEED))
        inputs += [(str(unequal), "topx=1/10"), (str(unequal), "pr6")]
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                path = Path(tmp, f"{workload.name}-seed{seed}.{workload.input_format}")
                path.write_bytes(serialize(generate(workload, seed), workload.input_format))
                inputs.append((str(path), workload.scheme.selector))
        runs = commands(inputs)
        invalid = []
        for name, data in INVALID_INPUTS.items():
            Path(tmp, name).write_bytes(data)
            invalid.append(["attribute", "--scheme", "pr6", "--input", name, "--format", "csv"])
        with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
            results = list(pool.map(
                lambda argv: (run(parent, argv, tmp), run(change, argv, tmp)), runs + invalid
            ))
    results, refused = results[:len(runs)], results[len(runs):]
    failures = differences(runs, results) + differences(invalid, refused, ("exit code", "stdout"))
    matching = sum(before == after for before, after in results)
    print(f"{matching} of {len(runs)} commands match")
    for line in failures[:SHOWN_DIFFERENCES]:
        print(line)
    messages = differences(invalid, refused, ("stderr",))
    print(f"invalid inputs: {len(invalid) - len(messages)} of {len(invalid)} give the same message")
    for line in messages:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
