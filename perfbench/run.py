"""pctrank benchmark: seeded workloads run through `python -m pctrank`.

    python3 perfbench/run.py --workload pareto-pr100 --seed 1 --seconds 35 --trace 0

With `--trace 0` every invocation is a child process, timed from spawn until
it exits with stdout fully read and adjusted for host speed (see REFERENCE);
the last stdout line holds the end-to-end metrics. With `--trace 1` the same
commands run in process through `pctrank.cli.main` with the layer functions
wrapped in spans; the last line holds the per-layer metrics. The line before
it holds the details: sample counts, tail percentiles, the raw wall times, the
input's shape and the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Expected, check_output
from workloads import COMMANDS, DEFAULT_SEED, WORKLOADS, Workload, generate, input_stats, serialize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 150
ROUND = ("schemes",) + COMMANDS
PCT = ["-m", "pctrank"]

# The host's speed drifts by tens of percent over seconds to minutes, and the
# median of one run does not average that out. So every timed child is
# followed at once by this fixed job, which the program cannot affect. Like
# the program, it builds and formats Fractions, so it slows down with the host
# in the same way. Each sample is reported as wall time x REFERENCE_S / the
# reference's wall time: seconds on a host where the reference takes
# REFERENCE_S. The raw wall times are kept in the detail line.
REFERENCE_CODE = """\
from fractions import Fraction as F
xs = [F(i % 997 + 1, i % 101 + 1) for i in range(70000)]
print(len(",".join(map(str, xs))))
"""
REFERENCE = ["-c", REFERENCE_CODE]
REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "attribute_s": "s", "indicators_s": "s", "report_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.unattributed_s": "s", "cli.trace_overhead": "ratio",
    "io.read_records_s": "s", "io.partition_s": "s", "io.render_attributions_s": "s",
    "io.render_indicators_s": "s", "io.render_report_s": "s",
    "io.input_mb": "MiB", "io.output_mb": "MiB", "io.groups": "count",
    "model.resolve_scheme_s": "s",
    "ranking.rank_s": "s", "ranking.rank_calls": "count", "ranking.tie_groups": "count",
    "ranking.largest_tie_group": "count", "ranking.docs_per_tie_group": "ratio",
    "scoring.attribute_fractional_s": "s", "scoring.attribute_point_s": "s",
    "scoring.attribute_calls": "count", "scoring.attributions_per_doc": "ratio",
    "scoring.cell_fill": "ratio", "scoring.boundary_hits": "count",
    "indicators.compute_indicators_s": "s", "indicators.class_counts_s": "s",
    "indicators.compare_rules_s": "s", "indicators.unused_scores": "count",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PCT_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


@dataclass
class Invocation:
    seconds: float
    max_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str


def invoke(args: list[str], env: dict[str, str], workdir: Path) -> Invocation:
    """Run `python <args>` once; its rusage comes from os.wait4, so the peak
    RSS is this child's own, not the largest of all children so far."""
    with open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Invocation(elapsed, usage.ru_maxrss / 1024, proc.returncode, out, stderr)


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; None when there are too few samples), and the count."""
    ordered = sorted(values)
    tail = None
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            tail = {"p": p, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "tail": tail, "samples": len(ordered)}


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


class Run:
    """One benchmark run of one workload: inputs, checks and failure counts."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        records = generate(workload, seed)
        data = serialize(records, workload.input_format)
        self.input_path = workdir / f"input.{workload.input_format}"
        self.input_path.write_bytes(data)
        self.stats = {**input_stats(records), "input_bytes": len(data), "input_sha256": sha256(data)}
        self.expected = Expected(workload, records)
        self.env = child_env()
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.reference: dict[str, tuple[str, str] | None] = {}
        self.pinned = None
        if seed == DEFAULT_SEED and workload == WORKLOADS[workload.name]:
            self.pinned = json.loads(DIGESTS.read_text())[workload.name]
            if self.pinned["input"] != self.stats["input_sha256"]:
                self.failures.append("generated input differs from the pinned default-seed input")

    def argv(self, command: str) -> list[str]:
        return self.workload.argv(command, str(self.input_path))

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem)
        return problem is None

    def checked_round(self) -> None:
        """Run each command once and check its output in full; later runs of a
        command must reproduce these bytes exactly."""
        for command in ROUND:
            inv = invoke(PCT + self.argv(command), self.env, self.workdir)
            digest = sha256(inv.stdout)
            problem = check_output(self.expected, command, inv.returncode, inv.stdout, inv.stderr)
            if problem is None and self.pinned is not None and self.pinned[command] != digest:
                problem = f"{command}: stdout differs from the pinned default-seed digest"
            ok = self.record(problem)
            self.reference[command] = (digest, inv.stderr) if ok else None

    def same_as_reference(self, command: str, returncode: int, stdout: bytes, stderr: str | None) -> str | None:
        reference = self.reference[command]
        if reference is None:
            return f"{command}: first output failed its checks"
        if returncode != 0:
            return f"{command}: exit code {returncode}"
        if sha256(stdout) != reference[0] or (stderr is not None and stderr != reference[1]):
            return f"{command}: output differs from the checked first run"
        return None


def measure_children(run: Run, seconds: float) -> tuple[dict, dict]:
    adjusted: dict[str, list[float]] = {command: [] for command in ROUND}
    wall: dict[str, list[float]] = {command: [] for command in ROUND}
    reference_s: list[float] = []
    reference_out: set[bytes] = set()
    peak_rss: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        rss = 0.0
        for command in ROUND:
            inv = invoke(PCT + run.argv(command), run.env, run.workdir)
            ref = invoke(REFERENCE, run.env, run.workdir)
            run.record(run.same_as_reference(command, inv.returncode, inv.stdout, inv.stderr))
            if ref.returncode != 0:
                run.failures.append(f"reference job exited with {ref.returncode}")
            reference_out.add(ref.stdout)
            wall[command].append(inv.seconds)
            reference_s.append(ref.seconds)
            adjusted[command].append(inv.seconds * REFERENCE_S / ref.seconds)
            if command != "schemes":
                rss = max(rss, inv.max_rss_mb)
        peak_rss.append(rss)
        rounds += 1
    if len(reference_out) != 1:
        run.failures.append("reference job printed different results")
    names = {"schemes": "setup_s", **{c: f"{c}_s" for c in COMMANDS}}
    timings = {names[c]: {**summarize(adjusted[c]), "wall": summarize(wall[c])} for c in ROUND}
    timings["peak_rss_mb"] = summarize(peak_rss)
    timings["reference_s"] = summarize(reference_s)
    metrics = {name: timings[name]["median"] for name in END_TO_END_UNITS}
    return metrics, timings


def measure_layers(run: Run, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process rounds of the three commands."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pctrank.cli
    from tracing import SELF_TIME_METRIC, Tracer, layer_counts, run_main

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_times: dict[str, list[float]] = {metric: [] for metric in SELF_TIME_METRIC.values()}
    counts_seen: list[dict] = []

    def untraced_round() -> None:
        total = 0.0
        for command in COMMANDS:
            began = time.perf_counter()
            code, stdout = run_main(pctrank.cli.main, run.argv(command))
            total += time.perf_counter() - began
            run.record(run.same_as_reference(command, code, stdout.encode("utf-8"), None))
        untraced.append(total)

    def traced_round(index: int) -> None:
        total = 0.0
        per_command = []
        run_ids = set()
        with tracer.installed():
            for command in COMMANDS:
                run_id = f"round{index}-{command}"
                code, stdout, elapsed, counts = tracer.run_command(run_id, run.argv(command))
                run.record(run.same_as_reference(command, code, stdout.encode("utf-8"), None))
                total += elapsed
                per_command.append(counts)
                run_ids.add(run_id)
        traced.append(total)
        for metric, value in tracer.self_times(run_ids).items():
            layer_times[metric].append(value)
        counts_seen.append(layer_counts(per_command))
        for key, want in (("ranking.tie_groups", "tie_groups"), ("io.groups", "groups")):
            found = sorted({counts[key] for counts in per_command})
            if found != [run.stats[want]]:
                run.failures.append(f"round {index}: traced {key} {found} != input's {run.stats[want]}")

    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        # Alternate which half goes first, so neither gets the warmer caches.
        if rounds % 2 == 0:
            untraced_round()
            traced_round(rounds)
        else:
            traced_round(rounds)
            untraced_round()
        rounds += 1
    tracer.write(str(trace_path))
    if any(counts != counts_seen[0] for counts in counts_seen):
        run.failures.append("traced counts differ between rounds")
    timings = {metric: summarize(values) for metric, values in layer_times.items()}
    timings["cli.main_untraced_s"] = summarize(untraced)
    timings["cli.main_traced_s"] = summarize(traced)
    metrics = {metric: timings[metric]["median"] for metric in SELF_TIME_METRIC.values()}
    metrics.update(counts_seen[0])
    metrics["cli.trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    return {name: metrics[name] for name in PER_LAYER_UNITS}, timings


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the detail record."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = Run(workload, seed, workdir)
        run.checked_round()
        if trace:
            trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
            values, timings = measure_layers(run, seconds, trace_path)
            units = PER_LAYER_UNITS
        else:
            values, timings = measure_children(run, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host_info(), "input": run.stats, "timings": timings,
        "error_rate": run.failed / run.attempted, "failures": run.failures,
    }
    if trace:
        detail["spans"] = str(trace_path.relative_to(ROOT))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pctrank" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'pctrank'}", file=sys.stderr)
        return 2
    result, detail = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
