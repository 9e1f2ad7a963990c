"""The benchmark's three workloads: their operations and correctness checks.

Each workload is a list of operations that one pass runs back to back,
from one caller (a closed loop).  An operation calls into the package through
module attributes looked up at call time, so the traced run can swap in
span-recording wrappers without a second copy of the workload.  Reference
outputs come from ``expected.json``, written by ``make_expected.py`` on the
commit that defined the benchmark; the seed argument only permutes the
order of operations.  ``build_ops`` builds the same operations on
``frozen_stencils``, the copy of the package kept as the timing control.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import frozen_stencils.cli
import poisson_stencils
from poisson_stencils import cli, scheme, simulator

CONTROL = frozen_stencils

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# At n = 512 each field (2.1 MB) is larger than a core's 2 MiB L2, while the
# tables workload (n <= 80) stays cache-resident.  n_t = 32 keeps one pass
# near a second, so a run holds enough passes for a tail percentile.
MARCH_N = 512
MARCH_NT = 32
MARCH_LAM = 0.707
MARCH_CONFIGS = {"p13_periodic": ("P13", "periodic"), "p5_dirichlet": ("P5", "dirichlet")}

_SQRT_HALF = math.sqrt(0.5)
EXACT_LAMBDA_MAX = {
    "P5": _SQRT_HALF,
    "C5": _SQRT_HALF,
    "P9": math.sqrt((3.0 - math.sqrt(3.0)) / 2.0),
    "C9": math.sqrt(3.0) / 2.0,
    "P13": _SQRT_HALF,
    "C13": _SQRT_HALF,
}
# `stability` prints lambda_max to 6 decimals after a 1e-6 bisection.
LAMBDA_DECIMAL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation's output against the reference."""

    ok: bool
    detail: str = ""
    values: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a call into the package and its check."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def cli_text(argv: list[str], package: ModuleType = poisson_stencils) -> tuple[int, str]:
    """Run ``package.cli.main`` with stdout captured; returns (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = package.cli.main(argv)
    return code, out.getvalue()


def body_lines(text: str) -> list[str]:
    """Output lines without the manifest comments (which carry wall_time_s)."""
    return [line for line in text.splitlines() if not line.startswith("# ")]


def csv_rows(lines: list[str]) -> list[dict[str, str]]:
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def fields(lines: list[str]) -> dict[str, str]:
    """``key: value`` lines as a dict."""
    return dict(line.split(": ", 1) for line in lines)


def _check_bench(expected_rows: list[dict[str, str]], result) -> Outcome:
    code, text = result
    if code != 0:
        return Outcome(False, f"exit code {code}")
    rows = csv_rows(body_lines(text))
    if len(rows) != len(expected_rows):
        return Outcome(False, f"{len(rows)} rows, expected {len(expected_rows)}")
    for got, want in zip(rows, expected_rows):
        # Every printed E value, E_P9 included, must equal the reference.
        for key in want:
            if got.get(key) != want[key]:
                where = f"n = {want['n']}, n_t = {want['n_t']}, lambda = {want['lambda']}"
                return Outcome(False, f"{key} = {got.get(key)} at {where}, expected {want[key]}")
    devs = [float(value) for row in rows for key, value in row.items() if key.startswith("dev_")]
    return Outcome(True, values=(("max_published_dev", max(devs)),))


def _check_generate(expected_body: str, result) -> Outcome:
    code, text = result
    if code != 0:
        return Outcome(False, f"exit code {code}")
    body = "".join(line + "\n" for line in body_lines(text))
    if body != expected_body:
        return Outcome(False, "serialize_tables output differs from the reference")
    return Outcome(True)


def _check_stability(name: str, expected_value: float, result) -> Outcome:
    code, text = result
    if code != 0:
        return Outcome(False, f"exit code {code}")
    printed = fields(body_lines(text))
    if printed.get("scheme") != name:
        return Outcome(False, f"scheme {printed.get('scheme')!r}, expected {name!r}")
    value = float(printed["lambda_max"])
    if abs(value - expected_value) > LAMBDA_DECIMAL * (1 + 1e-9):
        return Outcome(False, f"lambda_max {value} differs from the reference {expected_value}")
    return Outcome(True, values=(("lambda_max_abs_err", abs(value - EXACT_LAMBDA_MAX[name])),))


def _check_march(expected: dict, report) -> Outcome:
    # P13's error at this size is pure roundoff, so a legitimate change of
    # summation order moves its digits; the tolerance is sized to that.
    deviation = abs(report.error - expected["error"])
    if not deviation <= expected["tol"]:
        reference = expected["error"]
        return Outcome(False, f"error {report.error!r} off {reference!r} by {deviation:.3e}")
    config = report.config
    return Outcome(True, values=(("node_steps", node_steps(config.n, config.n_t, config.bc)),))


def _march_call(package: ModuleType, name: str, bc: str):
    def call():
        spec = package.scheme.named_scheme(name)
        config = package.simulator.SimConfig(
            scheme=spec, n=MARCH_N, n_t=MARCH_NT, lam=MARCH_LAM, bc=bc
        )
        return package.simulator.run(config)

    return call


def build_ops(workload: str, expected: dict, package: ModuleType = poisson_stencils) -> list[Op]:
    """The operations of one pass of ``workload`` on ``package``, in canonical order.

    Module attributes are looked up at call time, so tracing can swap them.
    """
    if workload == "tables":
        return [
            Op(
                f"bench {t}",
                lambda t=t: cli_text(["bench", t], package),
                lambda result, t=t: _check_bench(expected["tables"][t], result),
            )
            for t in ("1", "2", "3")
        ]
    if workload == "analysis":
        ops = []
        for name in package.scheme.NAMED_SCHEMES:
            ops.append(
                Op(
                    f"generate {name}",
                    lambda name=name: cli_text(["generate", name], package),
                    lambda result, name=name: _check_generate(expected["generate"][name], result),
                )
            )
            ops.append(
                Op(
                    f"stability {name}",
                    lambda name=name: cli_text(["stability", name], package),
                    lambda result, name=name: _check_stability(
                        name, expected["lambda_max"][name], result
                    ),
                )
            )
        return ops
    if workload == "march":
        return [
            Op(
                f"run {cfg}",
                _march_call(package, name, bc),
                lambda report, cfg=cfg: _check_march(expected["march"][cfg], report),
            )
            for cfg, (name, bc) in MARCH_CONFIGS.items()
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pass_orders(ops: list[Op], seed: int):
    """Endless per-pass operation orders: seeded permutations of the same ops."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def node_steps(n: int, n_t: int, bc: str) -> int:
    """Nodes the update touches per step, times steps."""
    active = n * n if bc == "periodic" else (n - 1) * (n - 1)
    return active * n_t


@dataclass
class OpResult:
    label: str
    seconds: float
    outcome: Outcome


def execute(op: Op) -> OpResult:
    """Time one operation, then check it; an exception counts as a failure."""
    started = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        seconds = time.perf_counter() - started
        print(f"# {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return OpResult(op.label, seconds, Outcome(False, f"{type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - started
    try:
        outcome = op.check(result)
    except (KeyError, ValueError, IndexError) as exc:
        outcome = Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}")
    if not outcome.ok:
        print(f"# {op.label}: check failed: {outcome.detail}", file=sys.stderr)
    return OpResult(op.label, seconds, outcome)
