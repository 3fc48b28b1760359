"""Benchmark workloads: seeded input generation and the fixed `pct` invocations.

Each workload is one generated input file plus three invocations of the CLI
(`attribute`, `indicators`, `report`) and the `schemes` call that measures
set-up. The program only ever sees the written input file through `--input`.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
COMMANDS = ("attribute", "indicators", "report")


@dataclass(frozen=True)
class Scheme:
    """The benchmark's own copy of a class scheme, used to check outputs
    independently of the program's scheme code."""

    selector: str  # what --scheme receives
    name: str  # what the program prints
    boundaries: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in zip(self.boundaries, self.boundaries[1:]))

    def theoretical_total(self, n: int) -> Fraction:
        return n * sum((w * width for w, width in zip(self.weights, self.widths)), Fraction(0))

    def point_class(self, q: Fraction) -> tuple[int, bool]:
        """1-based class of a point under the 'lower' boundary policy, and
        whether the point sits exactly on an interior boundary."""
        lowers = self.boundaries[:-1]
        idx = bisect_left(lowers, q)
        if 1 <= idx < len(lowers) and lowers[idx] == q:
            return idx, True
        return bisect_right(lowers, q), False

    def csv_text(self) -> str:
        """Expected stdout of `schemes --scheme <selector> --format csv`."""
        lines = ["index,lower,upper,weight"]
        for i, w in enumerate(self.weights):
            lines.append(f"{i + 1},{self.boundaries[i]},{self.boundaries[i + 1]},{w}")
        return "\n".join(lines) + "\n"


PR100 = Scheme(
    "pr100", "pr100",
    tuple(Fraction(i, 100) for i in range(101)),
    tuple(Fraction(w) for w in range(1, 101)),
)
PR6 = Scheme(
    "pr6", "pr6",
    tuple(Fraction(b) for b in ("0", "1/2", "3/4", "9/10", "19/20", "99/100", "1")),
    tuple(Fraction(w) for w in range(1, 7)),
)
TOP10 = Scheme(
    "topx=1/10", "topx(1/10)",
    (Fraction(0), Fraction(9, 10), Fraction(1)),
    (Fraction(0), Fraction(1)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "pareto" (heavy-tailed, tie-heavy) or "distinct" (no ties)
    n: int
    groups: int  # 1 means no group column: every document lands in "default"
    scheme: Scheme
    input_format: str  # "csv" or "json"
    fmt: str  # --format of all three invocations
    extra_args: dict[str, tuple[str, ...]]  # command -> flags beyond the common ones

    def argv(self, command: str, input_path: str) -> list[str]:
        if command == "schemes":
            return ["schemes", "--scheme", self.scheme.selector, "--format", "csv"]
        return [
            command, "--scheme", self.scheme.selector, "--input", input_path,
            "--format", self.fmt, *self.extra_args.get(command, ()),
        ]


# Sizes are chosen so that one round of the four invocations takes a few
# seconds on a 2 vCPU host: enough rounds fit in one run for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        # Pareto(1.2) citations: about 56% zeros and a long tail, so a few huge
        # tie groups each spread over many of the 100 classes.
        Workload("pareto-pr100", "pareto", 1_000, 4, PR100, "csv", "csv", {}),
        # Every document its own tie group: nothing for per-tie-group work to
        # share; ranking, reading and rendering carry a larger share.
        Workload("distinct-pr6", "distinct", 10_000, 1, PR6, "json", "json", {}),
        # Many small per-field groups, point rules with rounding and the
        # defaulted-boundary warning, rendered as human tables.
        Workload(
            "fields-topx-rounded", "pareto", 10_000, 250, TOP10, "csv", "table",
            {
                "attribute": ("--rule", "midpoint", "--rounding", "floor",
                              "--midpoint-route", "endpoints"),
                "indicators": ("--rule", "count-worse-or-equal"),
                "report": ("--rounding", "floor", "--midpoint-route", "endpoints"),
            },
        ),
    )
}


@dataclass(frozen=True)
class Record:
    doc_id: str
    citations: int
    group: str | None


def generate(workload: Workload, seed: int) -> list[Record]:
    """The workload's documents; the same seed always gives the same records.

    Groups have equal sizes. Pareto citations are drawn by stratified inverse
    transform, one uniform draw per 1/size stratum of each group, so every seed
    gives the same distribution shape (share of zeros, tail weight) and the
    work per run barely depends on the seed; only which values fall where does.
    """
    rng = random.Random(seed)
    size = workload.n // workload.groups
    if workload.shape == "distinct":
        values = [rng.sample(range(10 * size), size) for _ in range(workload.groups)]
    else:
        values = [
            [int(((size - j - rng.random()) / size) ** (-1 / 1.2)) - 1 for j in range(size)]
            for _ in range(workload.groups)
        ]
    rows = [
        (count, f"g{g:03d}" if workload.groups > 1 else None)
        for g, counts in enumerate(values)
        for count in counts
    ]
    rng.shuffle(rows)
    width = len(str(len(rows)))
    return [Record(f"d{i:0{width}d}", count, group) for i, (count, group) in enumerate(rows)]


def serialize(records: list[Record], input_format: str) -> bytes:
    grouped = any(r.group is not None for r in records)
    if input_format == "json":
        docs = [
            {"id": r.doc_id, "citations": r.citations, **({"group": r.group} if grouped else {})}
            for r in records
        ]
        return (json.dumps({"documents": docs}, separators=(",", ":")) + "\n").encode()
    header = "id,citations,group" if grouped else "id,citations"
    rows = [
        f"{r.doc_id},{r.citations},{r.group}" if grouped else f"{r.doc_id},{r.citations}"
        for r in records
    ]
    return ("\n".join([header, *rows]) + "\n").encode()


def by_group(records: list[Record]) -> dict[str, list[Record]]:
    out: dict[str, list[Record]] = {}
    for r in records:
        out.setdefault(r.group or "default", []).append(r)
    return dict(sorted(out.items()))


def input_stats(records: list[Record]) -> dict:
    """n, groups, tie groups (summed over groups) and the largest tie group."""
    tie_sizes = [
        size
        for members in by_group(records).values()
        for size in Counter(r.citations for r in members).values()
    ]
    return {
        "n": len(records),
        "groups": len(by_group(records)),
        "tie_groups": len(tie_sizes),
        "largest_tie_group": max(tie_sizes),
    }
