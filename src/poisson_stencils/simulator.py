"""Time-marching driver on the unit square with the benchmark error metric.

Fields live on an (n+1) x (n+1) node grid with spacing h = 1/n; the value at
(i, j) sits at coordinates (i*h, j*h).  Dirichlet mode pins the boundary rows
to exact zeros and updates the interior of the field's odd extension (the
method of images), so schemes of any radius apply; periodic mode updates n
independent nodes per axis and keeps index n as an alias of index 0, so error
sums over the full 0..n range never double-count a physical node inside the
update loop.  ``run()``, ``first_step`` and ``two_step`` all apply the
schemes through one stencil kernel on halo-padded buffers.

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

from . import stability
from .quadrature import check_positive
from .scheme import SchemeSpec, evaluate_table

_SQRT2 = math.sqrt(2.0)

BOUNDARY_CONDITIONS = ("dirichlet", "periodic")

# Rows of the update per block of the stencil sum, so that its two
# temporaries stay in cache on large grids.
_ROW_BLOCK = 64


class DegenerateNormError(Exception):
    """The reference solution vanishes at every sampled point; E is undefined."""


def exact_standing_wave(x1, x2, t, c: float = 1.0):
    """Separable standing wave solving the wave equation on the unit square.

    Vanishes on the boundary for all times and at t = 0 everywhere, so it
    doubles as a Dirichlet and a periodic benchmark.
    """
    return (
        np.sin(2.0 * np.pi * x1)
        * np.sin(2.0 * np.pi * x2)
        * np.sin(2.0 * _SQRT2 * np.pi * c * t)
    )


def standing_wave_initial_u(x1, x2):
    """Initial displacement of the standing-wave benchmark (identically zero)."""
    return np.zeros(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)


def standing_wave_initial_v(x1, x2, c: float = 1.0):
    """Initial velocity of the standing-wave benchmark."""
    return 2.0 * _SQRT2 * np.pi * c * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)


def _check_int(value, name: str, least: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _grid_n(a: np.ndarray, b: np.ndarray) -> int:
    """n of two fields on one (n+1) x (n+1) grid; ``ValueError`` otherwise."""
    shape = np.shape(a)
    if shape != np.shape(b) or len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"need two square 2-D fields of one shape, got {shape}, {np.shape(b)}")
    return _check_int(shape[0] - 1, "n", 2)


@dataclass(frozen=True)
class SimConfig:
    """One simulation: scheme, grid, step count, Courant number, boundaries.

    The time step is always derived as tau = lam * h / c.  ``initial_u`` and
    ``initial_v`` are functions of (x1, x2); ``exact`` is the reference
    solution (x1, x2, t) used for the error metric.  All three default to the
    standing-wave benchmark.
    """

    scheme: SchemeSpec
    n: int
    n_t: int
    lam: float
    c: float = 1.0
    bc: str = "dirichlet"
    initial_u: Callable = standing_wave_initial_u
    initial_v: Callable | None = None
    exact: Callable | None = None

    def __post_init__(self):
        _check_int(self.n, "n", 2)
        _check_int(self.n_t, "n_t", 1)
        check_positive(self.lam, "lambda")
        check_positive(self.c, "wave speed")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def tau(self) -> float:
        return self.lam * self.h / self.c


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


def _squared_sums(field_k: np.ndarray, reference: np.ndarray, work: np.ndarray):
    """sum((field - reference)^2) and sum(reference^2), using ``work``."""
    np.subtract(field_k, reference, out=work)
    num = float(np.square(work, out=work).sum())
    return num, float(np.square(reference, out=work).sum())


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
    coefficient are not grouped and no multiply-add is fused.
    """

    def __init__(self, spec: SchemeSpec, lam: float, n: int, bc: str):
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
        rows = (min(_ROW_BLOCK, self.size), self.size)
        self._acc = np.empty(rows)
        self._term = np.empty(rows)

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

    def first(self, u0: np.ndarray, v0: np.ndarray, out: np.ndarray, tau: float):
        """out = S_u u0 + tau * S_v v0."""
        for a, b, core in self._blocks(out):
            acc = self._acc[: b - a]
            self._sum(self.first_u, u0, a, b, core)
            self._sum(self.first_v, v0, a, b, acc)
            acc *= tau
            core += acc
        self._fill_ghosts(out)

    def two(self, curr: np.ndarray, prev: np.ndarray):
        """prev = S curr - prev, in place: ``prev`` becomes the next field."""
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


def relative_l2_error(computed: Sequence[np.ndarray], exact: Callable, tau: float) -> float:
    """Space-time relative L2 error of fields for steps k = 1..n_t.

    ``computed[k-1]`` is the field at time k*tau; ``exact`` is sampled at the
    node coordinates.  Raises :class:`DegenerateNormError` when the exact
    solution vanishes at every sampled point.
    """
    if not computed:
        raise ValueError("need at least one computed field")
    n = computed[0].shape[0] - 1
    x1, x2 = _axes(n)
    work = np.empty((n + 1, n + 1))
    num = 0.0
    den = 0.0
    for k, field_k in enumerate(computed, start=1):
        step_num, step_den = _squared_sums(field_k, _sample(exact, x1, x2, k * tau), work)
        num += step_num
        den += step_den
    if den == 0.0:
        raise DegenerateNormError("exact solution vanishes at all sampled points")
    return math.sqrt(num / den)


def run(config: SimConfig, on_step: Callable | None = None) -> SimReport:
    """Run a full simulation and measure the benchmark error.

    Samples the initial conditions on the grid, applies the first step once
    and the two-step update n_t - 1 times, and accumulates the space-time
    error sums against the reference solution.  ``on_step(k, field)`` is
    called with a copy of the field after each step.  An unstable Courant
    number only warns; marginal (|symbol| = 1) values are silent.
    """
    started = time.perf_counter()
    spec = config.scheme
    n, lam, tau = config.n, config.lam, config.tau
    initial_v = config.initial_v or (lambda x1, x2: standing_wave_initial_v(x1, x2, config.c))
    exact = config.exact or (lambda x1, x2, t: exact_standing_wave(x1, x2, t, config.c))

    env = stability.envelope(spec, lam)
    if not env.stable:
        warnings.warn(
            f"lambda = {lam} is outside the stable range of scheme {spec.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=2,
        )

    x1, x2 = _axes(n)
    stepper = _Stepper(spec, lam, n, config.bc)
    prev = stepper.buffer(_sample(config.initial_u, x1, x2))
    curr = stepper.buffer()
    stepper.first(prev, stepper.buffer(_sample(initial_v, x1, x2)), curr, tau)
    work = np.empty((n + 1, n + 1))

    num = 0.0
    den = 0.0
    per_step = []
    for k in range(1, config.n_t + 1):
        if k > 1:
            stepper.two(curr, prev)
            prev, curr = curr, prev
        u_k = stepper.field(curr)
        step_num, step_den = _squared_sums(u_k, _sample(exact, x1, x2, k * tau), work)
        num += step_num
        den += step_den
        per_step.append(math.sqrt(step_num / step_den) if step_den > 0.0 else math.nan)
        if on_step is not None:
            on_step(k, u_k.copy())
    if den == 0.0:
        raise DegenerateNormError("exact solution vanishes at all sampled points")
    return SimReport(
        error=math.sqrt(num / den),
        per_step_errors=tuple(per_step),
        wall_time_s=time.perf_counter() - started,
        config=config,
    )


def dump_grid_csv(values: np.ndarray, path):
    """Write one field as row-major CSV with 17 significant digits."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
