"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from poisson_stencils import named_scheme, run, SimConfig  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _op(workload, label, expected):
    return next(op for op in workloads.build_ops(workload, expected) if op.label == label)


def _tampered(edit):
    expected = copy.deepcopy(workloads.load_expected())
    edit(expected)
    return expected


def _first_e(expected):
    row = expected["tables"]["3"][0]
    row["E_P13"] = row["E_P13"].replace("e-05", "e-06")


def _generate_body(expected):
    expected["generate"]["P5"] = expected["generate"]["P5"].replace("1/6", "1/7", 1)


def _lambda(expected):
    expected["lambda_max"]["C9"] += 1e-5


def _march_error(expected):
    expected["march"]["p5_dirichlet"]["error"] *= 1.001


@pytest.mark.parametrize(
    "workload, label, edit",
    [
        ("tables", "bench 3", _first_e),
        ("analysis", "generate P5", _generate_body),
        ("analysis", "stability C9", _lambda),
        ("march", "run p5_dirichlet", _march_error),
    ],
)
def test_wrong_expected_value_is_a_failure(workload, label, edit):
    good = workloads.execute(_op(workload, label, workloads.load_expected()))
    bad = workloads.execute(_op(workload, label, _tampered(edit)))
    assert good.outcome.ok, good.outcome.detail
    assert not bad.outcome.ok


@pytest.mark.parametrize(
    "workload, label",
    [("tables", "bench 1"), ("analysis", "stability P9"), ("march", "run p13_periodic")],
)
def test_control_meets_the_reference(workload, label):
    expected = workloads.load_expected()
    twin = next(
        op
        for op in workloads.build_ops(workload, expected, workloads.CONTROL)
        if op.label == label
    )
    outcome = workloads.execute(twin).outcome
    assert outcome.ok, outcome.detail


def test_exception_is_a_failure():
    op = workloads.Op("broken", lambda: 1 / 0, lambda result: workloads.Outcome(True))
    assert not workloads.execute(op).outcome.ok


@pytest.mark.parametrize(
    "name, n, n_t, lam, bc",
    [
        ("P9", 10, 10, 0.796, "dirichlet"),  # one row of table 2
        ("P13", 32, 8, 0.707, "periodic"),  # a small march configuration
    ],
)
def test_traced_replay_reproduces_run(name, n, n_t, lam, bc):
    config = SimConfig(scheme=named_scheme(name), n=n, n_t=n_t, lam=lam, bc=bc)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        replayed = workloads.simulator.run(config)
    plain = run(config)
    assert replayed.error == plain.error
    assert replayed.per_step_errors == plain.per_step_errors
    stats, _ = tracer.take_pass()
    assert stats[f"simulator.two_step.{name.lower()}_{bc}"].count == n_t - 1
    assert stats["simulator.sample"].count == n_t


def test_hooks_are_removed_after_tracing():
    before = (workloads.cli.main, workloads.simulator.run, workloads.scheme.named_scheme)
    with tracing.installed(tracing.Tracer()):
        assert workloads.simulator.run is not before[1]
    assert (workloads.cli.main, workloads.simulator.run, workloads.scheme.named_scheme) == before


def test_seed_permutes_only_the_order():
    ops = workloads.build_ops("analysis", workloads.load_expected())
    first = [op.label for op in next(workloads.pass_orders(ops, 1))]
    again = [op.label for op in next(workloads.pass_orders(ops, 1))]
    other = [op.label for op in next(workloads.pass_orders(ops, 2))]
    assert first == again
    assert first != other
    assert sorted(first) == sorted(other) == sorted(op.label for op in ops)


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_follows_benchmark_json(trace, key):
    done = _bench("--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for line in (f"{name} = " for name in declared):
        assert any(printed.startswith(line) for printed in done.stdout.splitlines())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = _bench("--workload", "march", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
