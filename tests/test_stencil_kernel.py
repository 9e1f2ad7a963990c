"""The stencil kernels against a naive np.roll reference, bit for bit.

The simulator sums each stencil node by node over the table's offsets in
table order, starting from 0.0.  That order is part of its contract, so the
public steps must equal the reference exactly, signed zeros included, on
every compiled variant and on the numpy path alike: each test runs them
all, through the ``kernels`` fixture.
"""

import functools
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils import _kernel
from poisson_stencils.benchmarks import TABLE_BC, TABLES, run_table
from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme
from poisson_stencils.simulator import (
    SimConfig,
    _Stepper,
    _standing_time,
    first_step,
    run,
    two_step,
)


@functools.cache
def spec_of(name):
    return named_scheme(name)


def odd_extension(values):
    """The 2n x 2n period of a field's odd extension about both boundaries.

    Rows 0..n are the field as given and row n + k is -row(n - k); columns
    are extended the same way.
    """
    n = values.shape[0] - 1
    rows = np.concatenate([values, -values[n - 1 : 0 : -1]])
    return np.concatenate([rows, -rows[:, n - 1 : 0 : -1]], axis=1)


def roll_apply(table, lam, values, bc):
    """Sum of coefficient * shifted field, shifting one period by np.roll.

    The period is a periodic field's n x n core, or a Dirichlet field's odd
    extension, of which the update keeps the interior.
    """
    n = values.shape[0] - 1
    first, period = (0, values[:n, :n]) if bc == "periodic" else (1, odd_extension(values))
    acc = np.zeros_like(period)
    for (q1, q2), poly in table.items():
        acc += poly(lam) * np.roll(period, (-q1, -q2), axis=(0, 1))
    out = np.zeros_like(values)
    out[first:n, first:n] = acc[first:n, first:n]
    if bc == "periodic":
        alias_edges(out)
    return out


def alias_edges(values):
    values[:-1, -1] = values[:-1, 0]
    values[-1, :] = values[0, :]


def roll_first_step(u0, v0, spec, lam, tau, bc):
    out = roll_apply(spec.first_u, lam, u0, bc)
    out += tau * roll_apply(spec.first_v, lam, v0, bc)
    return out


def roll_two_step(u_k, u_km1, spec, lam, bc):
    out = roll_apply(spec.two_step, lam, u_k, bc) - u_km1
    if bc == "dirichlet":
        out[0, :] = 0.0
        out[-1, :] = 0.0
        out[:, 0] = 0.0
        out[:, -1] = 0.0
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def step_cases(draw, bcs=("dirichlet", "periodic")):
    """A scheme, a boundary, n, lambda in (0, 1] and three fields.

    About a third of the entries are signed zeros, so that sums of zero
    terms are covered.
    """
    name = draw(st.sampled_from(NAMED_SCHEMES))
    spec = spec_of(name)
    bc = draw(st.sampled_from(bcs))
    n = draw(st.integers(min_value=2, max_value=12))
    lam = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fields = rng.standard_normal((3, n + 1, n + 1))
    zeros = rng.random(fields.shape) < 1 / 3
    fields[zeros] = np.where(rng.random(fields.shape) < 0.5, 0.0, -0.0)[zeros]
    return spec, bc, n, lam, fields


@settings(max_examples=300, deadline=None)
@given(case=step_cases())
def test_first_step_matches_roll_reference(kernels, case):
    spec, bc, n, lam, (u0, v0, _) = case
    tau = lam / n
    want = roll_first_step(u0, v0, spec, lam, tau, bc)
    for _, path in kernels:
        with path():
            assert_same_bits(first_step(u0, v0, spec, lam, tau, bc), want)


@settings(max_examples=300, deadline=None)
@given(case=step_cases())
def test_two_step_matches_roll_reference(kernels, case):
    spec, bc, n, lam, (u_k, u_km1, _) = case
    if bc == "periodic":
        # The previous field enters node by node, aliased last row and
        # column included, so it must be a periodic field.
        alias_edges(u_km1)
    want = roll_two_step(u_k, u_km1, spec, lam, bc)
    for _, path in kernels:
        with path():
            assert_same_bits(two_step(u_k, u_km1, spec, lam, bc), want)


@settings(max_examples=100, deadline=None)
@given(case=step_cases(bcs=("dirichlet",)))
def test_dirichlet_step_is_the_periodic_step_of_the_odd_extension(kernels, case):
    spec, _, n, lam, fields = case
    # Dirichlet fields: a zero ring.  Their odd extensions, closed by an
    # aliased last row and column, are periodic fields on the 2n grid.
    fields[:, [0, -1], :] = 0.0
    fields[:, :, [0, -1]] = 0.0
    extended = [np.pad(odd_extension(f), ((0, 1), (0, 1)), mode="wrap") for f in fields]
    tau = lam / n
    scale = np.abs(fields).max()
    for _, path in kernels:
        with path():
            dirichlet_steps = (
                first_step(*fields[:2], spec, lam, tau),
                two_step(*fields[1:], spec, lam),
            )
            periodic_steps = (
                first_step(*extended[:2], spec, lam, tau, "periodic"),
                two_step(*extended[1:], spec, lam, "periodic"),
            )
        for dirichlet, periodic in zip(dirichlet_steps, periodic_steps):
            assert np.array_equal(periodic[1:n, 1:n], dirichlet[1:n, 1:n])
            assert np.abs(periodic[[0, n], : n + 1]).max() <= 1e-15 * scale
            assert np.abs(periodic[: n + 1, [0, n]]).max() <= 1e-15 * scale


# The registers per row step of every instruction set, a constant of the
# vector loops' source: a row step sums LANES = W * VECTORS nodes.
VECTORS = int(re.search(r"#define VECTORS (\d+)", _kernel._VECTOR_LOOPS)[1])


def whole_buffer_cases():
    """(name, bc, n) per case: n = 2 .. 2 * LANES + 1 for P5 and P13 with the
    largest LANES of ``_kernel.ISAS`` (n = 2..65), so that the core rows
    (n - 1 nodes for Dirichlet, n periodic) reach every remainder modulo
    LANES for each row of ``ISAS``; a few n for the others."""
    wide = range(2, 2 + 2 * VECTORS * max(w for _, w in _kernel.ISAS))
    return [
        (name, bc, n)
        for name in NAMED_SCHEMES
        for bc in ("dirichlet", "periodic")
        for n in (wide if name in ("P5", "P13") else (2, 3, 7, 16))
    ]


def row_parts(size, w):
    """(steps of VECTORS registers, of 2, of 1, overlapping registers, single
    nodes) of a core row of ``size`` nodes, as ``stencil_@ISA@`` walks it: a
    row of more than w nodes that is not a whole number of registers ends in
    one register over its last w nodes, and only a row narrower than w goes
    node by node."""
    blocks, rest = divmod(size, w * VECTORS)
    two = int(rest >= 2 * w)
    ones, tail = divmod(rest - 2 * w * two, w)
    overlap = int(size > w and tail > 0)
    return blocks, two, ones, overlap, 0 if overlap else tail


def test_whole_buffer_cases_reach_every_remainder():
    # Each variant's rows go in steps of VECTORS registers (LANES nodes),
    # then at most one 2-register step, then W-wide registers, then one
    # register overlapping nodes already made, or on rows narrower than W
    # single nodes: every remainder of LANES, and so every tail of the row,
    # follows at least one full step, on both boundaries; some tails take
    # the 2-register step; every tail of 1 .. W - 1 nodes goes through an
    # overlapping register, and every row narrower than W that the
    # boundary allows (at least 1 Dirichlet, 2 periodic nodes) is a case.
    for name in ("P5", "P13"):
        for bc, first in (("dirichlet", 1), ("periodic", 0)):
            sizes = [n - first for case, b, n in whole_buffer_cases() if (case, b) == (name, bc)]
            for _, w in _kernel.ISAS:
                lanes = w * VECTORS
                assert {size % lanes for size in sizes if size >= lanes} == set(range(lanes))
                parts = {size: row_parts(size, w) for size in sizes}
                assert {parts[size][1] for size in sizes if size >= lanes} == {0, 1}
                overlapped = {size % w for size, (*_, overlap, _) in parts.items() if overlap}
                assert overlapped == set(range(1, w))
                narrow = {size for size, (*_, singles) in parts.items() if singles}
                assert narrow == set(range(2 - first, w))
                for size, (blocks, two, ones, overlap, singles) in parts.items():
                    # The parts cover the row, the overlapping register by fewer than w nodes twice.
                    covered = (blocks * VECTORS + 2 * two + ones + overlap) * w + singles
                    assert size <= covered < size + overlap * w + 1


@pytest.mark.parametrize("name, bc, n", whole_buffer_cases())
def test_kernels_leave_identical_whole_buffers(kernels, name, bc, n):
    # The whole buffers after 1, 2 and 3 steps, ghost ring and corners
    # included, where the public steps compare only the field: the numpy
    # ghost fill and each variant's compiled plan write the same lines in
    # one order, and each part of a row (LANES blocks, the 2-register step,
    # W-wide registers, the overlapping register, single nodes) sums its
    # offsets in table order: the overlapping register, which in the
    # two-step update reads the old out, gives the nodes it shares with the
    # steps before it their bits.
    if len(kernels) == 1:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng(n)
    u0, v0 = rng.standard_normal((2, n + 1, n + 1))
    for steps in (1, 2, 3):
        buffers = []
        for _, path in kernels:
            with path():
                stepper = _Stepper(spec_of(name), 0.6, n, bc, u0, v=v0, tau=0.6 / n)
                stepper.march(steps)
                buffers.append((stepper.prev, stepper.curr))
        *compiled, numpy = buffers
        for variant in compiled:
            for got, want in zip(variant, numpy):
                assert_same_bits(got, want)


def test_table_3_roundoff_digit(kernels):
    # E_P13 at n = 80 is pure roundoff.  Reordering or grouping the stencil
    # sum (for example adding offsets that share a coefficient first) turns
    # it into 2.8884e-10.
    for name, path in kernels:
        with path():
            row = run_table(3)[-1]
        assert row["n"] == 80
        assert f"{row['E_P13']:.4e}" == "2.8883e-10", name


def table_and_march_configs():
    """Every published row's config, then the benchmark's two n = 512 marches."""
    configs = [
        SimConfig(scheme=spec_of(name), n=case.n, n_t=case.n_t, lam=case.lam, bc=TABLE_BC[table])
        for table, cases in TABLES.items()
        for case in cases
        for name in case.reference
    ]
    assert len(configs) == 48
    return configs + [
        SimConfig(scheme=spec_of(name), n=512, n_t=32, lam=0.707, bc=bc)
        for name, bc in (("P13", "periodic"), ("P5", "dirichlet"))
    ]


def report_bits(report):
    return report.error.hex(), [e.hex() for e in report.per_step_errors]


def test_time_factors_of_one_call_are_the_per_step_values():
    # run() samples the time factor in one call on all n_t step times.
    # numpy does not promise that its array sin gives its scalar sin's bits,
    # so this pins that the one call gives each step's scalar value.
    for config in table_and_march_configs():
        times = np.arange(1, config.n_t + 1) * config.tau
        scalar = [float(_standing_time(k * config.tau)).hex() for k in range(1, config.n_t + 1)]
        assert [value.hex() for value in _standing_time(times).tolist()] == scalar


def test_kernels_agree_on_every_table_row_and_march(kernels):
    # Every published row, and the benchmark's two n = 512 marches: each
    # compiled variant and the numpy kernel give the same E and per-step
    # errors, bit for bit (stencil sums and error sums alike).
    configs = table_and_march_configs()
    results = {}
    for name, path in kernels:
        with path():
            results[name] = [report_bits(run(config)) for config in configs]
    for name, bits in results.items():
        assert bits == results["numpy"], name


def test_whole_and_chunked_marches_agree(kernels, rewrapped_wave):
    # The default run marches in one kernel call, and an on_step callback
    # makes the same march go one step at a time; a Separable of new
    # functions with the standing wave's values marches as the default does.
    # All three give the same bits on every row and march.
    for name, path in kernels:
        with path():
            for config in table_and_march_configs():
                whole = report_bits(run(config))
                assert report_bits(run(config, on_step=lambda k, f: None)) == whole, name
                assert report_bits(run(replace(config, exact=rewrapped_wave))) == whole, name


def test_concurrent_runs_give_the_sequential_bits(kernels):
    # A compiled march releases the GIL for the whole run, so two runs in
    # two threads overlap; each must still give its sequential bits.
    configs = [
        SimConfig(scheme=spec_of(name), n=128, n_t=64, lam=0.707, bc=bc)
        for name, bc in (("P13", "periodic"), ("P5", "dirichlet"))
    ]
    start = threading.Barrier(len(configs))

    def together(config):
        start.wait(timeout=60)
        return report_bits(run(config))

    for name, path in kernels:
        with path():
            sequential = [report_bits(run(config)) for config in configs]
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=len(configs)) as pool:
                    assert list(pool.map(together, configs, timeout=120)) == sequential, name
