"""Spans around the calls into each layer, and the replay of ``run()``.

The traced run installs wrappers, from outside the package, on its public
functions and on two methods they call (``LambdaPoly.__call__`` and the
per-lambda envelope of the ``lambda_max`` bisection).  It replaces ``run()``
by :func:`replay_run`, which marches through the public ``first_step``,
``two_step`` and ``exact_standing_wave`` so that stepping, sampling and error
accumulation each get a span.  The replay performs the same floating-point
operations in the same order as ``run()``, so its error is identical.

A span records id, parent id, name, start and end.  Spans are kept in memory
and written out when the benchmark ends.  The two hot call sites,
``LambdaPoly.__call__`` and ``stability.symbol``, are only counted and
timed, which keeps the trace small.  A span's layer is the part of its name
before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

import poisson_stencils
from poisson_stencils import (
    benchmarks,
    cli,
    interpolation,
    quadrature,
    scheme,
    simulator,
    stability,
)
from workloads import node_steps

LAYERS = ("interpolation", "quadrature", "scheme", "stability", "simulator", "benchmarks", "cli")


class Stat:
    """Calls, total time and self time of one span name within one pass."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """In-memory span recorder with per-pass statistics."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._next_id = 1

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool = True):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_time = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.count += 1
        stat.total += duration
        stat.self_time += duration - child_time
        if keep:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def take_pass(self) -> tuple[dict[str, Stat], dict[str, float]]:
        """Statistics since the previous call, then reset them."""
        stats, counters = self.stats, self.counters
        self.stats, self.counters = {}, {}
        return stats, counters

    def wrap(self, func, name, keep: bool = True):
        """``func`` inside a span; ``name`` is a string or a function of the call's arguments."""
        label = name if callable(name) else None
        enter, exit_ = self.enter, self.exit

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = enter(label(*args, **kwargs) if label else name)
            try:
                return func(*args, **kwargs)
            finally:
                exit_(frame, keep)

        return traced

    def write_jsonl(self, path, origin: float):
        """Write every kept span, times in seconds from ``origin``."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                }
                handle.write(json.dumps(record) + "\n")


# Copies of the simulator's private helpers: the replay calls only public
# names of the package, so that renaming a private helper cannot break it.
def _sample(func, x1, x2, *args):
    values = np.asarray(func(x1, x2, *args), dtype=float)
    return np.broadcast_to(values, x1.shape).copy()


def _alias_edges(values):
    values[:-1, -1] = values[:-1, 0]
    values[-1, :] = values[0, :]


def replay_run(config, on_step=None, *, tracer: Tracer):
    """``simulator.run(config)`` re-expressed through the public step functions.

    Same inputs, same arithmetic, same order: stability warning envelope,
    initial sampling, first step, then per step the two-step update, the
    reference sample and the error sums.
    """
    started = time.perf_counter()
    spec = config.scheme
    n, lam, tau, bc = config.n, config.lam, config.tau, config.bc
    initial_v = config.initial_v or (
        lambda x1, x2: simulator.standing_wave_initial_v(x1, x2, config.c)
    )
    exact = config.exact or (
        lambda x1, x2, t: simulator.exact_standing_wave(x1, x2, t, config.c)
    )

    env = stability.envelope(spec, lam, grid=128)
    if not env.stable:
        warnings.warn(
            f"lambda = {lam} is outside the stable range of scheme {spec.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=2,
        )

    with tracer.span("simulator.sample_initial"):
        coords = np.arange(n + 1) / n
        x1, x2 = np.meshgrid(coords, coords, indexing="ij")
        u_prev = _sample(config.initial_u, x1, x2)
        v0 = _sample(initial_v, x1, x2)
        if bc == "periodic":
            _alias_edges(u_prev)
            _alias_edges(v0)

    num = 0.0
    den = 0.0
    per_step = []
    u_curr = simulator.first_step(u_prev, v0, spec, lam, tau, bc)
    for k in range(1, config.n_t + 1):
        if k > 1:
            u_next = simulator.two_step(u_curr, u_prev, spec, lam, bc)
            u_prev, u_curr = u_curr, u_next
        with tracer.span("simulator.sample"):
            reference = _sample(exact, x1, x2, k * tau)
        with tracer.span("simulator.error"):
            step_num = float(((u_curr - reference) ** 2).sum())
            step_den = float((reference**2).sum())
            num += step_num
            den += step_den
            per_step.append(math.sqrt(step_num / step_den) if step_den > 0.0 else math.nan)
        if on_step is not None:
            on_step(k, u_curr.copy())
    if den == 0.0:
        raise simulator.DegenerateNormError("exact solution vanishes at all sampled points")
    tracer.count("simulator.node_steps", node_steps(n, config.n_t, bc))
    return simulator.SimReport(
        error=math.sqrt(num / den),
        per_step_errors=tuple(per_step),
        wall_time_s=time.perf_counter() - started,
        config=config,
    )


def _envelope_label(spec, lam, grid=512):
    return f"stability.envelope.grid{grid}"


def _scan_label(scan, lam):
    return f"stability.scan_envelope.grid{scan.grid}"


def _two_step_label(u_k, u_km1, spec, lam, bc="dirichlet"):
    return f"simulator.two_step.{spec.name.lower()}_{bc}"


# (owner, attribute, span name or label function, keep spans).  Module-level
# functions are replaced in every package module that binds them, so calls
# between modules (cli -> benchmarks -> scheme -> interpolation) are traced.
# The hot call sites are counted and timed but keep no span records.
HOOKS = (
    (cli, "main", "cli.main", True),
    (benchmarks, "run_table", lambda table: f"benchmarks.run_table.{table}", True),
    (scheme, "named_scheme", "scheme.named_scheme", True),
    (scheme, "generate_scheme", lambda m, name=None: f"scheme.generate_scheme.m{m}", True),
    (scheme, "serialize_tables", "scheme.serialize_tables", True),
    (interpolation, "lagrange_basis", lambda m: f"interpolation.lagrange_basis.m{m}", True),
    (quadrature, "a_on_polynomial", "quadrature.a_on_polynomial", True),
    (quadrature, "b_on_polynomial", "quadrature.b_on_polynomial", True),
    (quadrature.LambdaPoly, "__call__", "quadrature.lambdapoly_eval", False),
    (stability, "lambda_max", "stability.lambda_max", True),
    (stability, "envelope", _envelope_label, True),
    (getattr(stability, "_SymbolScan", None), "envelope", _scan_label, True),
    (stability, "symbol", "stability.symbol", False),
    (simulator, "first_step", "simulator.first_step", True),
    (simulator, "two_step", _two_step_label, True),
)


def _package_modules():
    prefix = poisson_stencils.__name__
    return [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every hooked call and replay ``run()`` until the block exits."""
    saved = []

    def replace(owner, attribute, new):
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def replace_everywhere(original, new):
        for module in _package_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    replace(module, attribute, new)

    try:
        for owner, attribute, name, keep in HOOKS:
            if owner is None or attribute not in vars(owner):
                continue  # the hooked call site no longer exists
            original = vars(owner)[attribute]
            wrapped = tracer.wrap(original, name, keep)
            if isinstance(owner, type):
                replace(owner, attribute, wrapped)
            else:
                replace_everywhere(original, wrapped)
        replay = tracer.wrap(functools.partial(replay_run, tracer=tracer), "simulator.run")
        replace_everywhere(simulator.run, replay)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@dataclass
class TracedPass:
    """One traced pass: its operation results, statistics and kept spans."""

    results: list
    stats: dict[str, Stat]
    counters: dict[str, float]
    spans: list[tuple[int, int, str, float, float]]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _per_pass(passes, value):
    return _median(value(p) for p in passes)


def _count(prefix):
    return lambda p: sum(s.count for name, s in p.stats.items() if name.startswith(prefix))


def _total(name):
    return lambda p: p.stats[name].total if name in p.stats else 0.0


def _counter(name):
    return lambda p: p.counters.get(name, 0)


def _layer_self(layer):
    return lambda p: sum(s.self_time for name, s in p.stats.items() if name.split(".")[0] == layer)


def _operator_seconds(passes):
    """a_on_polynomial + b_on_polynomial time within each m = 15 derivation."""
    values = []
    for p in passes:
        names = {span_id: name for span_id, _, name, _, _ in p.spans}
        per_parent: dict[int, float] = {}
        for _, parent, name, start, end in p.spans:
            if name.startswith("quadrature.") and names.get(parent) == "scheme.generate_scheme.m15":
                per_parent[parent] = per_parent.get(parent, 0.0) + end - start
        values += per_parent.values()
    return _median(values)


def computed_traffic(workloads):
    """Per two-step update at the march size, from the table sizes alone.

    Flops: one multiply per offset, the adds between them and the -u^{k-1}
    subtraction, 2 * offsets per node.  Bytes: the compulsory traffic of
    reading u^k and u^{k-1} and writing u^{k+1}, 24 per node.
    """
    metrics = []
    for cfg, (name, bc) in workloads.MARCH_CONFIGS.items():
        offsets = len(scheme.named_scheme(name).two_step)
        nodes = workloads.node_steps(workloads.MARCH_N, 1, bc)
        flops, moved = 2 * offsets * nodes, 24 * nodes
        note = f"computed at n = {workloads.MARCH_N}, {offsets} offsets"
        metrics += [
            (f"simulator.flops_computed.{cfg}", float(flops), "flop", note),
            (f"simulator.bytes_computed.{cfg}", float(moved), "B", note),
            (f"simulator.ops_per_byte.{cfg}", flops / moved, "flop/B", note),
        ]
    return metrics


def layer_metrics(traced: list[TracedPass], untraced: list[list], workloads):
    """Per-layer metrics of the traced passes: (name, value, unit, note).

    ``*_s`` of a call is the median seconds per call over the run; counts and
    the ``*_s`` of hot call sites and of layers' self time are per pass,
    median over the traced passes.
    """
    call, per_pass = "median per call", "per pass"
    durations: dict[str, list[float]] = {}
    for p in traced:
        for _, _, name, start, end in p.spans:
            durations.setdefault(name, []).append(end - start)

    def calls(name, span, note=call):
        return (name, _median(durations.get(span, ())), "s", note)

    def passes(name, value, unit, note=per_pass):
        return (name, _per_pass(traced, value), unit, note)

    metrics = [
        calls(
            "interpolation.lagrange_basis_s", "interpolation.lagrange_basis.m15", call + ", m = 15"
        ),
        passes("interpolation.calls", _count("interpolation.lagrange_basis."), "count"),
        ("quadrature.operator_s", _operator_seconds(traced), "s", "a + b over one m = 15 basis"),
        passes("quadrature.lambdapoly_eval_s", _total("quadrature.lambdapoly_eval"), "s"),
        passes("quadrature.lambdapoly_calls", _count("quadrature.lambdapoly_eval"), "count"),
        calls("scheme.named_scheme_s", "scheme.named_scheme"),
        passes("scheme.derivations", _count("scheme.named_scheme"), "count"),
        calls("stability.envelope_s.grid128", "stability.envelope.grid128", call + ", envelope()"),
        calls("stability.envelope_s.grid512", "stability.scan_envelope.grid512", call + ", bisect"),
        passes("stability.symbol_s", _total("stability.symbol"), "s"),
        passes("stability.symbol_calls", _count("stability.symbol"), "count"),
        calls("stability.lambda_max_s", "stability.lambda_max"),
        passes("stability.envelope_calls", _count("stability.scan_envelope."), "count"),
    ]
    metrics += [
        calls(f"simulator.two_step_s.{cfg}", f"simulator.two_step.{cfg}")
        for cfg in workloads.MARCH_CONFIGS
    ]
    metrics += [
        calls("simulator.first_step_s", "simulator.first_step"),
        calls("simulator.sample_s", "simulator.sample", call + ", one reference field"),
        calls("simulator.error_s", "simulator.error", call + ", one step's error sums"),
        passes("simulator.node_steps", _counter("simulator.node_steps"), "count"),
    ]
    metrics += computed_traffic(workloads)
    metrics += [
        calls(f"benchmarks.run_table_s.{table}", f"benchmarks.run_table.{table}")
        for table in ("1", "2", "3")
    ]
    metrics.append(passes("cli.overhead_s", _layer_self("cli"), "s", "cli.main minus its calls"))
    metrics += [
        passes(f"{layer}.self_s", _layer_self(layer), "s", per_pass + ", self time")
        for layer in LAYERS[:-1]
    ]
    plain = _median(sum(r.seconds for r in results) for results in untraced)
    metrics += [
        passes(
            "trace.coverage",
            lambda p: sum(s.self_time for s in p.stats.values()) / p.seconds,
            "ratio",
            "summed layer self time / traced pass time",
        ),
        (
            "trace.overhead_s",
            _per_pass(traced, lambda p: p.seconds) - plain,
            "s",
            f"traced - untraced pass, medians of {len(traced)} and {len(untraced)}",
        ),
    ]
    return metrics
