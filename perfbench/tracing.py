"""Per-layer tracing of in-process `pctrank.cli.main` runs.

The tracer rebinds the coarse public functions of each layer, where the CLI
looks them up, to wrappers that record a span per call. Counts are derived
from the returned values once the command has finished, so the spans time only
the program's own work. Nothing in the package itself changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import pctrank.cli
import pctrank.indicators
from pctrank.scoring import CountingRule, PointAttribution

# module -> names rebound there. `cli` imported these into its own namespace;
# compute_indicators and compare_rules reach attribute_all and class_counts
# through `pctrank.indicators`.
PATCH_SITES = {
    pctrank.cli: (
        "read_records", "partition_by_group", "resolve_scheme", "rank", "attribute_all",
        "compute_indicators", "compare_rules",
        "render_attributions", "render_indicators", "render_report",
    ),
    pctrank.indicators: ("attribute_all", "class_counts"),
}

# span name -> per-layer time metric its self time counts toward
SELF_TIME_METRIC = {
    "cli.main": "cli.unattributed_s",
    "read_records": "io.read_records_s",
    "partition_by_group": "io.partition_s",
    "resolve_scheme": "model.resolve_scheme_s",
    "rank": "ranking.rank_s",
    "attribute_all[fractional]": "scoring.attribute_fractional_s",
    "attribute_all[point]": "scoring.attribute_point_s",
    "class_counts": "indicators.class_counts_s",
    "compute_indicators": "indicators.compute_indicators_s",
    "compare_rules": "indicators.compare_rules_s",
    "render_attributions": "io.render_attributions_s",
    "render_indicators": "io.render_indicators_s",
    "render_report": "io.render_report_s",
}

MIB = 1 << 20


@dataclass
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans in memory; `write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls: list[tuple[str, tuple, dict, object]] = []
        self._run_id = ""

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_name = name
            if name == "attribute_all":
                rule = args[2] if len(args) > 2 else kwargs["rule"]
                kind = "fractional" if rule is CountingRule.FRACTIONAL else "point"
                span_name = f"attribute_all[{kind}]"
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(self._run_id, span_id, parent, span_name, 0.0, 0.0))
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id].start, self.spans[span_id].end = start, end
            self._calls.append((span_name, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, name, getattr(module, name))
                     for module, names in PATCH_SITES.items() for name in names]
        try:
            for module, name, fn in originals:
                setattr(module, name, self._wrap(name, fn))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def run_command(self, run_id: str, argv: list[str]) -> tuple[int, str, float, dict]:
        """Run one traced `cli.main`; returns exit code, stdout, main's wall
        time and the counts derived from this command's calls."""
        self._run_id = run_id
        first_span = len(self.spans)
        main = self._wrap("cli.main", pctrank.cli.main)
        code, stdout = run_main(main, argv)
        span = self.spans[first_span]
        counts = derive_counts(self._calls)
        self._calls = []
        return code, stdout, span.end - span.start, counts

    def self_times(self, run_ids: set[str]) -> dict[str, float]:
        """Per-layer self time summed over the spans of the given runs."""
        totals = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        child_time: dict[int, float] = {}
        chosen = [span for span in self.spans if span.run_id in run_ids]
        for span in chosen:
            if span.parent_id is not None:
                child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.end - span.start
        for span in chosen:
            duration = span.end - span.start - child_time.get(span.span_id, 0.0)
            totals[SELF_TIME_METRIC[span.name]] += duration
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)
            handle.write("\n")


def run_main(main, argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue()


def derive_counts(calls) -> dict[str, float]:
    """Counts of one command, from the arguments and results of its calls."""
    counts = {
        "ranking.rank_calls": 0, "scoring.attribute_calls": 0, "scoring.attributions": 0,
        "scoring.fraction_cells": 0, "scoring.nonzero_cells": 0, "scoring.boundary_hits": 0,
        "indicators.unused_scores": 0, "io.input_bytes": 0, "io.output_bytes": 0,
    }
    ranked_inputs: dict[int, object] = {}
    tie_sizes: list[int] = []
    for name, args, kwargs, result in calls:
        if name == "rank":
            counts["ranking.rank_calls"] += 1
            # The indicators command ranks each group twice; count its ties once.
            if id(args[0]) not in ranked_inputs:
                ranked_inputs[id(args[0])] = args[0]
                tie_sizes += [group.size for group in result.groups]
        elif name.startswith("attribute_all"):
            counts["scoring.attribute_calls"] += 1
            counts["scoring.attributions"] += len(result)
            for attribution in result:
                if isinstance(attribution, PointAttribution):
                    counts["scoring.boundary_hits"] += attribution.ambiguous
                else:
                    counts["scoring.fraction_cells"] += len(attribution.fractions)
                    counts["scoring.nonzero_cells"] += sum(1 for f in attribution.fractions if f)
        elif name == "compute_indicators":
            counts["indicators.unused_scores"] += len(result.per_doc_scores)
        elif name == "read_records":
            counts["io.input_bytes"] += os.path.getsize(args[0])
            counts["io.n"] = len(result)
        elif name == "partition_by_group":
            counts["io.groups"] = len(result)
        elif name.startswith("render_"):
            counts["io.output_bytes"] += len(result.encode("utf-8"))
    counts["ranking.tie_groups"] = len(tie_sizes)
    counts["ranking.largest_tie_group"] = max(tie_sizes, default=0)
    return counts


def layer_counts(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer count metrics of one round of the workload's three commands."""
    total = {key: sum(c.get(key, 0) for c in per_command) for key in per_command[0]}
    first = per_command[0]
    n = first["io.n"]
    cells = total["scoring.fraction_cells"]
    return {
        "ranking.rank_calls": total["ranking.rank_calls"],
        "ranking.tie_groups": first["ranking.tie_groups"],
        "ranking.largest_tie_group": first["ranking.largest_tie_group"],
        "ranking.docs_per_tie_group": n / first["ranking.tie_groups"],
        "scoring.attribute_calls": total["scoring.attribute_calls"],
        "scoring.attributions_per_doc": total["scoring.attributions"] / n,
        "scoring.cell_fill": float(Fraction(total["scoring.nonzero_cells"], cells)) if cells else 0.0,
        "scoring.boundary_hits": total["scoring.boundary_hits"],
        "indicators.unused_scores": total["indicators.unused_scores"],
        "io.groups": first["io.groups"],
        "io.input_mb": total["io.input_bytes"] / MIB,
        "io.output_mb": total["io.output_bytes"] / MIB,
    }
