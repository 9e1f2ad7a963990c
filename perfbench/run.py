"""Benchmark of the poisson_stencils pipeline: derivation, stability, marching.

Run one workload from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

``--workload all`` runs tables, analysis and march one after another, each in
its own process.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` alternates plain and traced passes and reports
the per-layer metrics.  Human-readable metric lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results (environment, every pass time) and
the trace spans are written under ``perfbench/out/``.  See README.md.

The untraced run times every operation next to the same operation on
``frozen_stencils``, a copy of the package kept unchanged as a control, and
reports the program's times scaled by how fast the control ran at the same
moment.  That cancels the drift of a shared host, which changes the speed of
the same code by half within minutes, while a change to the program still
shows in full.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("tables", "analysis", "march")

CONTROL_PACKAGE = "frozen_stencils"
SETUP_PAIRS = 7
TAIL_BEYOND = 10
SETUP_CODE = """
import time
started = time.perf_counter()
import {package} as package
for name in package.NAMED_SCHEMES:
    package.named_scheme(name)
print(time.perf_counter() - started)
"""
# Seconds the control takes for one pass of each workload on 2 vCPUs of a
# shared Intel Xeon host with Python 3.11 and numpy 2.4: the medians of 20
# runs of the unchanged program, when the benchmark was defined.  Its set-up
# took 0.15-0.17 s there.  A reported time is the program's time divided by
# the control's time measured alongside it, times this constant: seconds at
# that host's typical speed.
CONTROL_PASS_S = {"tables": 0.77, "analysis": 1.22, "march": 1.08}
CONTROL_SETUP_S = 0.15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="permutes the operation order only")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(package: str = "poisson_stencils") -> float:
    """One fresh-process import plus first derivation of the six named schemes."""
    paths = [str(SRC), str(HERE)]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(package=package)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, int]:
    """Data and unified cache sizes of CPU 0, in bytes, by level."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = _size_bytes(size)
    return caches


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(field_bytes: int) -> dict:
    import numpy

    caches = _caches()
    last = max(caches, default=None)
    if last:
        note = (
            f"the {caches[last] / 2**20:.0f} MiB {last} holds every field here "
            f"({field_bytes / 1e6:.1f} MB each at the march size); a measured-bandwidth "
            "roofline needs arrays of at least 4x the last-level cache, so bytes are "
            "computed from table sizes, not measured"
        )
    else:
        note = "cache sizes unknown; bytes are computed from table sizes, not measured"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "bytes_note": note,
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its label.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would not exceed the
    median, so the largest sample stands in for it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND:
        return ordered[-1], f"max of {count} passes (fewer than {2 * TAIL_BEYOND + 1})"
    rank = count - TAIL_BEYOND - 1
    percentile = 100 * (rank + 1) / count
    return ordered[rank], f"p{percentile:.0f} of {count} passes, {TAIL_BEYOND} beyond"


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def pass_seconds(workload, passes):
    """Each pass's time at the defining machine's speed, and its raw time."""
    raw = [sum(r.seconds for r in results) for results, _ in passes]
    scaled = [t * CONTROL_PASS_S[workload] / control for t, (_, control) in zip(raw, passes)]
    return scaled, raw


def end_to_end(workload, workloads, passes, setups):
    """Metrics a user sees, from untraced passes: (name, value, unit, note).

    ``passes`` holds (operation results, control seconds) per pass, and
    ``setups`` (program, control) set-up seconds per pair.
    """
    scaled, raw = pass_seconds(workload, passes)
    tail_value, tail_note = tail(scaled)
    setup = [CONTROL_SETUP_S * mine / control for mine, control in setups]
    note = "at the control's speed, "
    gated = [
        ("setup_s", statistics.median(setup), "s", note + f"median of {len(setups)} pairs"),
        ("wall_s", statistics.median(scaled), "s", note + f"median of {len(scaled)} passes"),
        ("wall_s_tail", tail_value, "s", note + tail_note),
        ("max_rss_mb", max_rss_mb(), "MB", "peak RSS of this process"),
    ]
    # Workload-specific metrics and raw times: printed and saved, not in the
    # gated JSON, which must carry the same metric names on every workload.
    control = [seconds for _, seconds in passes]
    specific = [
        ("wall_s_raw", statistics.median(raw), "s", "median pass, as measured"),
        ("control_wall_s_raw", statistics.median(control), "s", "median control pass"),
        ("setup_s_raw", statistics.median(m for m, _ in setups), "s", "median set-up"),
        ("control_setup_s_raw", statistics.median(c for _, c in setups), "s", "control set-up"),
    ]
    results = [r for pass_results, _ in passes for r in pass_results]
    values: dict[str, list[float]] = {}
    for r in results:
        for key, value in r.outcome.values:
            values.setdefault(key, []).append(value)
    if "max_published_dev" in values:
        worst = max(values["max_published_dev"])
        specific.append(("max_published_dev", worst, "ratio", "largest |E - ref| / ref"))
    if "lambda_max_abs_err" in values:
        worst = max(values["lambda_max_abs_err"])
        specific.append(("lambda_max_abs_err", worst, "1", "largest |printed - exact|"))
    for cfg in workloads.MARCH_CONFIGS:
        mine = [r for r in results if r.label == f"run {cfg}" and r.outcome.ok]
        if mine:
            steps = dict(mine[0].outcome.values)["node_steps"]
            seconds = statistics.median(r.seconds for r in mine)
            note = f"{steps} node-steps / median of {len(mine)} runs"
            specific.append((f"node_steps_per_s.{cfg}", steps / seconds, "1/s", note))
    return gated, specific


def run_pass(workloads, order):
    return [workloads.execute(op) for op in order]


def control_seconds(workloads, op) -> float:
    result = workloads.execute(op)
    if not result.outcome.ok:
        raise RuntimeError(f"the control failed {op.label}: {result.outcome.detail}")
    return result.seconds


def run_paired_pass(workloads, order, turn):
    """Run each (program, control) operation pair back to back.

    Which of the two goes first alternates along the pass and from one pass
    to the next, so that neither gains from what the other left in the
    caches.  Returns the program's results and the control's total seconds.
    """
    results, control = [], 0.0
    for k, (op, twin) in enumerate(order):
        if (turn + k) % 2:
            control += control_seconds(workloads, twin)
            results.append(workloads.execute(op))
        else:
            results.append(workloads.execute(op))
            control += control_seconds(workloads, twin)
    return results, control


def setup_pair(turn) -> tuple[float, float]:
    """(program, control) set-up seconds, in alternating order."""
    if turn % 2:
        control = setup_seconds(CONTROL_PACKAGE)
        return setup_seconds(), control
    return setup_seconds(), setup_seconds(CONTROL_PACKAGE)


def report_line(name, value, unit, note):
    return f"{name} = {value!r} {unit}" + (f"  ({note})" if note else "")


def measure(args, workloads, tracing):
    """Warm up, then passes until ``args.seconds`` have passed.

    Untraced runs pair every operation with the control's and also time
    SETUP_PAIRS pairs of fresh-process set-ups, spread evenly between the
    passes; one more pair first warms the file cache, unrecorded.  They
    return every program result, the passes as (results, control seconds),
    and the set-up pairs.  Traced runs alternate plain and traced passes of
    the program alone, and also return the traced passes and their tracer.
    """
    expected = workloads.load_expected()
    ops = workloads.build_ops(args.workload, expected)
    if args.trace:
        orders = workloads.pass_orders(ops, args.seed)
        warm = run_pass(workloads, ops)  # lazy imports and caches, not measured
    else:
        twins = workloads.build_ops(args.workload, expected, workloads.CONTROL)
        orders = workloads.pass_orders(list(zip(ops, twins)), args.seed)
        setup_pair(0)
        warm, _ = run_paired_pass(workloads, list(zip(ops, twins)), 0)
    started = time.perf_counter()
    deadline = started + args.seconds
    untraced, setups, traced = [], [], []
    tracer = tracing.Tracer()
    while not untraced or time.perf_counter() < deadline:
        if args.trace:
            untraced.append((run_pass(workloads, next(orders)), None))
            first_span = len(tracer.spans)
            with tracing.installed(tracer):
                results = run_pass(workloads, next(orders))
            stats, counters = tracer.take_pass()
            traced.append(tracing.TracedPass(results, stats, counters, tracer.spans[first_span:]))
            continue
        if len(setups) < SETUP_PAIRS * (time.perf_counter() - started) / args.seconds:
            setups.append(setup_pair(len(setups)))
        untraced.append(run_paired_pass(workloads, next(orders), len(untraced)))
    while not args.trace and len(setups) < SETUP_PAIRS:
        setups.append(setup_pair(len(setups)))
    executed = warm + [r for p, _ in untraced for r in p] + [r for p in traced for r in p.results]
    return executed, untraced, setups, traced, tracer


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import poisson_stencils
    except ImportError as exc:
        print(f"perfbench: cannot import poisson_stencils from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(poisson_stencils.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: poisson_stencils came from {poisson_stencils.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    origin = time.perf_counter()
    env = environment(8 * (workloads.MARCH_N + 1) ** 2)
    executed, untraced, setup_values, traced, tracer = measure(args, workloads, tracing)

    failed = sum(not r.outcome.ok for r in executed)
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"# env: {json.dumps(env)}",
        f"# note: {env['bytes_note']}",
    ]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        gated, specific = end_to_end(args.workload, workloads, untraced, setup_values)
        record["pass_seconds"], record["raw_pass_seconds"] = pass_seconds(args.workload, untraced)
        record["control_pass_seconds"] = [control for _, control in untraced]
        record["setup_seconds"] = setup_values
    else:
        plain = [results for results, _ in untraced]
        gated, specific = tracing.layer_metrics(traced, plain, workloads), []
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path, origin)
        lines.append(f"# spans: {spans_path.relative_to(ROOT)}")
    note = f"{failed} of {len(executed)} operations"
    specific.append(("failed_ratio", failed / len(executed), "ratio", note))
    lines += [report_line(*metric) for metric in gated + specific]
    record["metrics"] = {
        name: {"value": value, "unit": unit, "note": note}
        for name, value, unit, note in gated + specific
    }
    record["failures"] = [f"{r.label}: {r.outcome.detail}" for r in executed if not r.outcome.ok]
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": len(executed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in gated},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so RSS and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
