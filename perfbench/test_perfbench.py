"""Self-tests of the benchmark: `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses

import pytest

import run
from checks import Expected, check_output
from workloads import COMMANDS, WORKLOADS, generate, input_stats, serialize

TINY = {
    "pareto-pr100": dict(n=120),
    "distinct-pr6": dict(n=150),
    "fields-topx-rounded": dict(n=320, groups=8),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    workload = WORKLOADS[name]
    first = serialize(generate(workload, 7), workload.input_format)
    again = serialize(generate(workload, 7), workload.input_format)
    other = serialize(generate(workload, 8), workload.input_format)
    assert first == again
    assert first != other
    stats = input_stats(generate(workload, 7))
    assert stats["n"] == workload.n
    assert stats["groups"] == workload.groups


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    result, detail = run.bench(tiny(name), seed=3, seconds=0.1, trace=trace)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    assert detail["input"]["n"] == TINY[name]["n"]


def corruptions(command: str, text: str) -> list[str]:
    """Ways to damage one output: a lost last line, and one changed value."""
    body = text.rstrip("\n")
    variants = [body[: body.rfind("\n") + 1]]
    for old, new in (("1/2", "1/3"), (", 0", ", 1"), ("=0", "=1"), ("\"0\"", "\"1\""), (",1,", ",2,")):
        if old in text:
            variants.append(text.replace(old, new, 1))
            break
    return variants


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_outputs_fail_their_checks(name, tmp_path):
    workload = tiny(name)
    records = generate(workload, 5)
    path = tmp_path / f"input.{workload.input_format}"
    path.write_bytes(serialize(records, workload.input_format))
    expected = Expected(workload, records)
    for command in ("schemes",) + COMMANDS:
        inv = run.invoke(run.PCT + workload.argv(command, str(path)), run.child_env(), tmp_path)
        assert check_output(expected, command, inv.returncode, inv.stdout, inv.stderr) is None
        for damaged in corruptions(command, inv.stdout.decode()):
            assert check_output(expected, command, 0, damaged.encode(), inv.stderr) is not None, (
                command, damaged[-200:])
        assert check_output(expected, command, 1, inv.stdout, inv.stderr) is not None


def test_corrupted_child_output_counts_as_failed(monkeypatch):
    real_invoke = run.invoke

    def corrupting_invoke(args, env, workdir):
        inv = real_invoke(args, env, workdir)
        if args[2:3] == ["report"]:
            inv.stdout = inv.stdout[:-40]
        return inv

    monkeypatch.setattr(run, "invoke", corrupting_invoke)
    result, detail = run.bench(tiny("pareto-pr100"), seed=3, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 2  # the checked first run and every timed one
    assert any(f.startswith("report:") for f in detail["failures"])
