"""Time-marching driver on the unit square with the benchmark error metric.

Fields live on an (n+1) x (n+1) node grid with spacing h = 1/n; the value at
(i, j) sits at coordinates (i*h, j*h).  Dirichlet mode pins the boundary rows
to exact zeros and updates the interior of the field's odd extension (the
method of images), so schemes of any radius apply; periodic mode updates n
independent nodes per axis and keeps index n as an alias of index 0, so error
sums over the full 0..n range never double-count a physical node inside the
update loop.  ``run()`` marches through one stencil kernel on halo-padded
buffers, of which ``first_step`` and ``two_step`` are one-shot uses.  The
time step is tau = lam * h: c enters only through lam = c * tau / h.

The quality measure is the relative L2 error over all steps and nodes:

    E(n, n_t) = sqrt( sum_{k,i,j} (u^k_ij - exact(ih, jh, k*tau))^2
                      / sum_{k,i,j} exact(ih, jh, k*tau)^2 )

with k = 1..n_t and i, j = 0..n.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernel, stability
from .quadrature import check_positive
from .scheme import SchemeSpec, evaluate_table

_SQRT2 = math.sqrt(2.0)

BOUNDARY_CONDITIONS = ("dirichlet", "periodic")

# Rows of the update per block of the numpy stencil sum, so that its two
# temporaries stay in cache on large grids.
_ROW_BLOCK = 64


class DegenerateNormError(Exception):
    """The reference solution vanishes at every sampled point; E is undefined."""


def exact_standing_wave(x1, x2, t):
    """Separable standing wave solving the wave equation on the unit square.

    Vanishes on the boundary for all times and at t = 0 everywhere, so it
    doubles as a Dirichlet and a periodic benchmark.
    """
    return (
        np.sin(2.0 * np.pi * x1)
        * np.sin(2.0 * np.pi * x2)
        * np.sin(2.0 * _SQRT2 * np.pi * t)
    )


def standing_wave_initial_u(x1, x2):
    """Initial displacement of the standing-wave benchmark (identically zero)."""
    return np.zeros(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)


def standing_wave_initial_v(x1, x2):
    """Initial velocity of the standing-wave benchmark."""
    return 2.0 * _SQRT2 * np.pi * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)


def _check_int(value, name: str, least: int) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_grid(n, lam, bc: str) -> None:
    """``ValueError`` unless n, the Courant number and ``bc`` can be stepped."""
    _check_int(n, "n", 2)
    check_positive(lam, "lambda")
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")


def _grid_n(a: np.ndarray, b: np.ndarray) -> int:
    """n of two fields on one (n+1) x (n+1) grid; ``ValueError`` otherwise."""
    shape = np.shape(a)
    if shape != np.shape(b) or len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"need two square 2-D fields of one shape, got {shape}, {np.shape(b)}")
    return shape[0] - 1


@dataclass(frozen=True)
class SimConfig:
    """One simulation: scheme, grid, step count, Courant number, boundaries.

    The time step is always derived as tau = lam * h, as lam = c * tau / h
    carries the wave speed.  ``initial_u`` and ``initial_v`` are functions
    of (x1, x2); ``exact`` is the reference solution (x1, x2, t) used for
    the error metric.  All three default to the standing-wave benchmark.
    """

    scheme: SchemeSpec
    n: int
    n_t: int
    lam: float
    bc: str = "dirichlet"
    initial_u: Callable = standing_wave_initial_u
    initial_v: Callable = standing_wave_initial_v
    exact: Callable = exact_standing_wave

    def __post_init__(self):
        _check_grid(self.n, self.lam, self.bc)
        _check_int(self.n_t, "n_t", 1)
        for name in ("initial_u", "initial_v", "exact"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be a function, got {getattr(self, name)!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def tau(self) -> float:
        return self.lam * self.h


@dataclass(frozen=True)
class SimReport:
    """Result of one simulation run."""

    error: float
    per_step_errors: tuple[float, ...]
    wall_time_s: float
    config: SimConfig = field(repr=False)


def _axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates as a column and a row, which broadcast to the grid."""
    coords = np.arange(n + 1) / n
    return coords[:, None], coords[None, :]


def _sample(func, x1: np.ndarray, x2: np.ndarray, *args) -> np.ndarray:
    """Evaluate a field function on the grid, accepting scalar-valued callables."""
    values = np.asarray(func(x1, x2, *args), dtype=float)
    return np.broadcast_to(values, (x1.shape[0], x2.shape[1]))


class _Stepper:
    """The stencil kernel of one scheme, Courant number, grid and boundary.

    A buffer holds the core that an update writes, field indices first ..
    n - 1 per axis, inside a ring of r = max(radius, 1) ghost cells, so that
    every offset of the stencil is a slice.  One rule fills the ghosts: field
    index i reads index j = i mod p with sign +1 when j <= n, and index
    2n - j with sign -1 otherwise.  A periodic grid has first = 0 and p = n,
    so index n aliases index 0.  A Dirichlet grid has first = 1 and p = 2n:
    the odd extension of the field, whose mirror lines are the boundary ring
    i in {0, n}.  The rule maps the ring onto itself, and after every update
    it is pinned to +0.0.

    At each node the stencil sum starts from 0.0 and adds coeff * value over
    the table's offsets in table order.  That order fixes the last bits of
    the published errors (table 3's E_P13 at n = 80), so offsets sharing a
    coefficient are not grouped and no multiply-add is fused.  The compiled
    kernel of ``_kernel`` makes one pass per node in that order; without it,
    the numpy path makes two passes (multiply, then add) per offset over
    blocks of rows, with the same bits.
    """

    def __init__(self, spec: SchemeSpec, lam: float, n: int, bc: str):
        _check_grid(n, lam, bc)
        first, period = (0, n) if bc == "periodic" else (1, 2 * n)
        r = max(spec.radius, 1)
        self.n, self.lo, self.size = n, r, n - first
        self.origin = r - first  # the buffer index of field index 0
        width = self.size + 2 * r
        self.shape = (width, width)
        # Per sign, zeros first since a source may lie on a mirror line: the
        # (ghost, source) buffer index pairs of one axis.
        pairs = {0: [], 1: [], -1: []}
        for b in [*range(r), *range(r + self.size, width)]:
            i = b - self.origin
            j = i % period
            source, sign = (j, 1) if j <= n else (2 * n - j, -1)
            pairs[0 if source == i else sign].append((b, source + self.origin))
        # Ghost rows over the core columns, then ghost columns over all rows.
        groups = [(sign, *np.array(p).T) for sign, p in pairs.items() if p]
        core, every = slice(r, r + self.size), slice(None)
        self._ghosts = [(s, (g, core), (f, core)) for s, g, f in groups] + [
            (s, (every, g), (every, f)) for s, g, f in groups
        ]
        self.first_u = evaluate_table(spec.first_u, lam)
        self.first_v = evaluate_table(spec.first_v, lam)
        self.two_step = evaluate_table(spec.two_step, lam)
        self._lib = _kernel.load()
        if self._lib is None:
            rows = (min(_ROW_BLOCK, self.size), self.size)
            self._acc = np.empty(rows)
            self._term = np.empty(rows)
        else:
            # Per table, its linear buffer offsets q1 * width + q2 and its
            # coefficients, held here while the kernel reads their addresses.
            self._packed = [
                (np.array([q1 * width + q2 for (q1, q2), _ in table], dtype=np.intp),
                 np.array([coeff for _, coeff in table]))
                for table in (self.first_u, self.first_v, self.two_step)
            ]
            args = [(o.ctypes.data, c.ctypes.data, len(o)) for o, c in self._packed]
            self._first_args = (width, r, self.size, *args[0], *args[1])
            self._two_args = (width, r, self.size, *args[2])

    def field(self, buf: np.ndarray) -> np.ndarray:
        """The (n+1) x (n+1) field of a buffer, as a view."""
        o = self.origin
        return buf[o : o + self.n + 1, o : o + self.n + 1]

    def buffer(self, values: np.ndarray | None = None) -> np.ndarray:
        """A new buffer, zero or holding ``values`` with its ghosts filled.

        The boundary ring is not pinned: a Dirichlet field keeps its own for
        the first stencil application to read.
        """
        buf = np.zeros(self.shape)
        if values is not None:
            self.field(buf)[...] = values
            self._fill_ghosts(buf, pin=False)
        return buf

    def _fill_ghosts(self, buf: np.ndarray, pin: bool = True):
        for sign, ghosts, sources in self._ghosts:
            if sign > 0:
                buf[ghosts] = buf[sources]
            elif sign < 0:
                buf[ghosts] = -buf[sources]
            elif pin:
                buf[ghosts] = 0.0

    def _blocks(self, buf: np.ndarray):
        """(first row, end row, core rows of ``buf``) per row block of the update."""
        lo, size = self.lo, self.size
        for a in range(0, size, _ROW_BLOCK):
            b = min(a + _ROW_BLOCK, size)
            yield a, b, buf[lo + a : lo + b, lo : lo + size]

    def _sum(self, pairs, src: np.ndarray, a: int, b: int, acc: np.ndarray):
        """acc = the stencil sum over ``src`` for core rows a..b-1."""
        lo, size = self.lo, self.size
        term = self._term[: b - a]
        acc.fill(0.0)
        for (q1, q2), coeff in pairs:
            np.multiply(src[lo + q1 + a : lo + q1 + b, lo + q2 : lo + q2 + size], coeff, out=term)
            acc += term

    def _address(self, buf: np.ndarray) -> int:
        """The data address of one of this stepper's buffers, for the kernel."""
        if buf.shape != self.shape or buf.dtype != np.float64 or not buf.flags.c_contiguous:
            raise ValueError(f"need a C-contiguous float64 buffer of shape {self.shape}")
        return buf.ctypes.data

    def first(self, u0: np.ndarray, v0: np.ndarray, out: np.ndarray, tau: float):
        """out = S_u u0 + tau * S_v v0."""
        if self._lib is not None:
            buffers = (self._address(u0), self._address(v0), self._address(out))
            self._lib.stencil_first(*buffers, tau, *self._first_args)
        else:
            for a, b, core in self._blocks(out):
                acc = self._acc[: b - a]
                self._sum(self.first_u, u0, a, b, core)
                self._sum(self.first_v, v0, a, b, acc)
                acc *= tau
                core += acc
        self._fill_ghosts(out)

    def two(self, curr: np.ndarray, prev: np.ndarray):
        """prev = S curr - prev, in place: ``prev`` becomes the next field."""
        if self._lib is not None:
            self._lib.stencil_two(self._address(curr), self._address(prev), *self._two_args)
        else:
            for a, b, core in self._blocks(prev):
                acc = self._acc[: b - a]
                self._sum(self.two_step, curr, a, b, acc)
                np.subtract(acc, core, out=core)
        self._fill_ghosts(prev)


def first_step(
    u0: np.ndarray,
    v0: np.ndarray,
    spec: SchemeSpec,
    lam: float,
    tau: float,
    bc: str = "dirichlet",
) -> np.ndarray:
    """First update: combine initial displacement and velocity fields."""
    stepper = _Stepper(spec, lam, _grid_n(u0, v0), bc)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    out = stepper.buffer()
    stepper.first(stepper.buffer(u0), stepper.buffer(v0), out, tau)
    return stepper.field(out).copy()


def two_step(
    u_k: np.ndarray,
    u_km1: np.ndarray,
    spec: SchemeSpec,
    lam: float,
    bc: str = "dirichlet",
) -> np.ndarray:
    """Two-step update: weighted current field minus the previous field.

    Periodic fields are read on their n x n core; the result's aliased last
    row and column repeat its first.
    """
    stepper = _Stepper(spec, lam, _grid_n(u_k, u_km1), bc)
    out = stepper.buffer(u_km1)
    stepper.two(stepper.buffer(u_k), out)
    return stepper.field(out).copy()


def _march(config: SimConfig):
    """Yield (k, u^k) for k = 1..n_t: the first step, then the two-step update.

    Each field is a view of a buffer that the step after next overwrites.
    """
    x1, x2 = _axes(config.n)
    stepper = _Stepper(config.scheme, config.lam, config.n, config.bc)
    prev = stepper.buffer(_sample(config.initial_u, x1, x2))
    curr = stepper.buffer()
    stepper.first(prev, stepper.buffer(_sample(config.initial_v, x1, x2)), curr, config.tau)
    yield 1, stepper.field(curr)
    for k in range(2, config.n_t + 1):
        stepper.two(curr, prev)
        prev, curr = curr, prev
        yield k, stepper.field(curr)


def _error(steps, exact: Callable, tau: float, n: int, on_step: Callable | None = None):
    """E and the per-step errors of (k, u^k) pairs against ``exact`` at k*tau.

    ``on_step(k, copy of u^k)`` follows each step's sums.  A step whose
    reference vanishes has error nan; if all do, raise DegenerateNormError.
    """
    x1, x2 = _axes(n)
    work = np.empty((n + 1, n + 1))
    num = den = 0.0
    per_step = []
    for k, u_k in steps:
        reference = _sample(exact, x1, x2, k * tau)
        np.subtract(u_k, reference, out=work)
        step_num = float(np.square(work, out=work).sum())
        step_den = float(np.square(reference, out=work).sum())
        num += step_num
        den += step_den
        per_step.append(math.sqrt(step_num / step_den) if step_den > 0.0 else math.nan)
        if on_step is not None:
            on_step(k, u_k.copy())
    if den == 0.0:
        raise DegenerateNormError("exact solution vanishes at all sampled points")
    return math.sqrt(num / den), tuple(per_step)


def relative_l2_error(computed: Sequence[np.ndarray], exact: Callable, tau: float) -> float:
    """Space-time relative L2 error of fields for steps k = 1..n_t.

    ``computed[k-1]`` is the field at time k*tau; ``exact`` is sampled at the
    node coordinates.  Raises :class:`DegenerateNormError` when the exact
    solution vanishes at every sampled point.
    """
    if not computed:
        raise ValueError("need at least one computed field")
    return _error(enumerate(computed, start=1), exact, tau, computed[0].shape[0] - 1)[0]


def run(config: SimConfig, on_step: Callable | None = None) -> SimReport:
    """Run a full simulation and measure the benchmark error.

    Marches n_t steps and sums the space-time error against the reference;
    ``on_step(k, field)`` gets a copy of each step's field.  An unstable
    Courant number only warns; marginal (|symbol| = 1) values are silent.
    """
    started = time.perf_counter()
    env = stability.envelope(config.scheme, config.lam)
    if not env.stable:
        warnings.warn(
            f"lambda = {config.lam} is outside the stable range of scheme {config.scheme.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=2,
        )
    error, per_step = _error(_march(config), config.exact, config.tau, config.n, on_step)
    return SimReport(
        error=error,
        per_step_errors=per_step,
        wall_time_s=time.perf_counter() - started,
        config=config,
    )


def dump_grid_csv(values: np.ndarray, path):
    """Write one field as row-major CSV with 17 significant digits."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
