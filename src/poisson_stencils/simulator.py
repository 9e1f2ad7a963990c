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

``run()`` is one loop of ``_Stepper.march`` calls: one call for the whole
run, or one per step with ``on_step``.  With the compiled kernel, each call
runs stencil sums, ghost fill and each step's error sums against the
reference in C, and Python keeps the sampling, the time factors and the
final square roots.  Without a compiler, the same steps run in numpy.
``_Stepper`` is the only code here that loads the compiled kernel.

The quality measure is the relative L2 error over all steps and nodes:

    E(n, n_t) = sqrt( sum_{k,i,j} (u^k_ij - exact(ih, jh, k*tau))^2
                      / sum_{k,i,j} exact(ih, jh, k*tau)^2 )

with k = 1..n_t and i, j = 0..n.  Each step's two sums are numpy's
``sum()`` of the flattened squares (``_error_sums``), which the compiled
march replays bit for bit; ``relative_l2_error`` and the numpy march call
``_error_sums`` itself.  The reference is a ``Separable``, one factor per
axis and one in time, like the benchmark's standing wave.  It is sampled
once per run as two vectors, one value per row and one per column, and the
time factors of all steps, each from one call on a vector of points:
(a_i * b_j) * c has the bits of sampling it whole.
The compiled march forms that product per node and reads no (n+1)^2
reference field; the numpy paths build the field from the same two vectors
by one broadcast multiply.

The initial fields are ``Separable``s of space alone, as the benchmark's
two are.  ``run()`` samples each one's two factors once on the node
coordinates and forms their product straight into its march buffer, so a
run on the compiled kernel allocates three fresh (n+1)^2 fields, its
buffers, and no others.
"""

from __future__ import annotations

import ctypes
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import _kernel, stability
from .quadrature import check_positive
from .scheme import BOUNDARY_CONDITIONS, DegenerateNormError, SchemeSpec

_SQRT2 = math.sqrt(2.0)

# Rows of the update per block of the numpy stencil sum, so that its two
# temporaries stay in cache on large grids.
_ROW_BLOCK = 64


@dataclass(frozen=True)
class Separable:
    """A field that is one factor per axis, times one in time if ``t`` is given.

    ``Separable(x1, x2)`` is a field of space, called as (x1, x2): it
    returns x1(x1) * x2(x2).  It is the kind ``SimConfig``'s ``initial_u``
    and ``initial_v`` must be.  ``Separable(x1, x2, t)`` is a reference
    solution, the kind ``exact`` must be, called as (x1, x2, t): it returns
    (x1(x1) * x2(x2)) * t(t).  Calling either with the other's arguments is
    a ``TypeError``.

    ``run()`` and ``relative_l2_error`` never call the field itself: they
    call each factor once per run with a vector, ``x1`` and ``x2`` on the
    n + 1 node coordinates and ``t`` on the n_t step times k * tau.  Each
    must return real, finite values, one per point or a scalar for all of
    them (``ValueError`` naming the factor otherwise).
    """

    x1: Callable
    x2: Callable
    t: Callable | None = None

    def __post_init__(self):
        for name in ("x1", "x2") if self.t is None else ("x1", "x2", "t"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be a function, got {getattr(self, name)!r}")

    def __call__(self, x1, x2, *t):
        if len(t) != (self.t is not None):
            wanted = "(x1, x2)" if self.t is None else "(x1, x2, t)"
            raise TypeError(f"this Separable is called as {wanted}, got {2 + len(t)} arguments")
        space = self.x1(x1) * self.x2(x2)
        return space if self.t is None else space * self.t(*t)


def _sine(x):
    """sin(2 pi x), one of the standing wave's two space factors."""
    return np.sin(2.0 * np.pi * x)


def _standing_time(t):
    """The standing wave's time factor sin(2 sqrt(2) pi t)."""
    return np.sin(2.0 * _SQRT2 * np.pi * t)


# Separable standing wave solving the wave equation on the unit square.  It
# vanishes on the boundary for all times and at t = 0 everywhere, so it
# doubles as a Dirichlet and a periodic benchmark.
exact_standing_wave = Separable(_sine, _sine, _standing_time)


def _zeros(x):
    """Zero at every point of ``x``."""
    return np.zeros(np.shape(x))


def _scaled_sine(x):
    """2 sqrt(2) pi sin(2 pi x): the standing wave's x1 factor times the
    slope of its time factor at t = 0."""
    return 2.0 * _SQRT2 * np.pi * np.sin(2.0 * np.pi * x)


standing_wave_initial_u = Separable(_zeros, _zeros)
"""Initial displacement of the standing-wave benchmark: zero everywhere.

A ``Separable`` of space, called as (x1, x2) like any initial field.
"""

standing_wave_initial_v = Separable(_scaled_sine, _sine)
"""Initial velocity of the standing-wave benchmark, the time derivative of
``exact_standing_wave`` at t = 0: (2 sqrt(2) pi sin(2 pi x1)) sin(2 pi x2).

A ``Separable`` of space, called as (x1, x2) like any initial field; on
any grid it has the bits of the whole expression evaluated left to right.
"""


def _check_int(value, name: str, least: int) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_grid(spec, n, lam, bc: str) -> float:
    """lam as a float; ``ValueError`` unless ``spec``, n, lam and ``bc`` can be stepped."""
    if not isinstance(spec, SchemeSpec):
        raise ValueError(f"scheme must be a SchemeSpec (see named_scheme), got {spec!r}")
    _check_int(n, "n", 2)
    lam = check_positive(lam, "lambda")
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
    return lam


@dataclass(frozen=True)
class SimConfig:
    """One simulation: scheme, grid, step count, Courant number, boundaries.

    The time step is always derived as tau = lam * h, as lam = c * tau / h
    carries the wave speed.  ``scheme`` is a ``SchemeSpec``, ``initial_u``
    and ``initial_v`` are ``Separable``s without ``t``, which ``run()`` forms
    straight into its buffers, and ``exact``, the reference solution used for
    the error metric, is one with ``t``.  Any other value of these four is a
    ``ValueError`` naming the field.  All three default to the standing-wave benchmark; ``run()``
    raises ``ValueError`` naming the factor if one gives a complex, nan or
    infinite value, or values of another shape, and naming the field if its
    product overflows.  ``lam`` is stored as a float.
    """

    scheme: SchemeSpec
    n: int
    n_t: int
    lam: float
    bc: str = "dirichlet"
    initial_u: Separable = standing_wave_initial_u
    initial_v: Separable = standing_wave_initial_v
    exact: Separable = exact_standing_wave

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_grid(self.scheme, self.n, self.lam, self.bc))
        _check_int(self.n_t, "n_t", 1)
        _check_separable(self.initial_u, "initial_u", timed=False)
        _check_separable(self.initial_v, "initial_v", timed=False)
        _check_separable(self.exact, "exact", timed=True)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def tau(self) -> float:
        return self.lam * self.h


@dataclass(frozen=True)
class SimReport:
    """Result of one simulation run.

    ``phases`` holds (name, wall seconds) for the phases of ``run()`` in
    order: "envelope", the stability envelope; "sample", the initial fields
    and the reference's two axis vectors and time factors; "march", the
    steps with their error sums.  Their sum is at most ``wall_time_s``.
    ``kernel`` names what marched: a compiled variant's instruction set
    ("avx512f", "avx2" or "baseline", see ``_kernel.ISAS``) or "numpy"; ""
    if not recorded.
    """

    error: float
    per_step_errors: tuple[float, ...]
    wall_time_s: float
    config: SimConfig = field(repr=False)
    phases: tuple[tuple[str, float], ...] = ()
    kernel: str = ""


def _real_finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` if complex, nan or infinite.

    Cast or summed, such values would end in a wrong or nan error without it.
    """
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got {np.asarray(values).dtype}")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got nan or infinity")
    return values


def _check_tau(tau) -> float:
    """``tau`` as a float; ``ValueError`` unless it is a finite number.

    A bool, Python's or numpy's, is not a number here, as for lambda.
    """
    if type(tau).__name__ in ("bool", "bool_"):
        raise ValueError(f"tau must be a number, got {tau!r}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    return float(tau)


def _grid_fields(fields: dict) -> tuple[int, list[np.ndarray]]:
    """n and the float arrays of ``fields``, a dict of name: values, in order.

    ``ValueError`` unless the fields lie on one square (n+1) x (n+1) grid,
    n >= 1, and are real and finite.
    """
    shape, *others = (np.shape(values) for values in fields.values())
    if any(other != shape for other in others):
        raise ValueError(f"need square 2-D fields of one shape, got {[shape, *others]}")
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ValueError(f"need square 2-D fields of at least 2 x 2 nodes, got {shape}")
    return shape[0] - 1, [_real_finite(values, name) for name, values in fields.items()]


def _check_separable(value, name: str, timed: bool) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a ``Separable``
    with a time factor if ``timed``, and without one otherwise."""
    if not isinstance(value, Separable):
        raise ValueError(f"{name} must be a Separable, got {value!r}")
    if timed and value.t is None:
        raise ValueError(f"{name} must be a Separable with a time factor t, got one without")
    if not timed and value.t is not None:
        raise ValueError(f"{name} must be a field of (x1, x2), got a Separable with t")


def _factor(func, name: str, points: np.ndarray) -> np.ndarray:
    """``func`` sampled at ``points`` in one call, as a C-contiguous vector.

    ``ValueError`` naming ``name`` unless the values are real, finite and
    either a scalar, which is broadcast, or of the shape of ``points``.
    """
    values = _real_finite(func(points), name)
    if values.shape == ():
        return np.full(points.shape, values)
    if values.shape != points.shape:
        raise ValueError(
            f"{name} must return a scalar or {points.size} values, got shape {values.shape}"
        )
    return np.ascontiguousarray(values)


def _factors(exact: Separable, coords: np.ndarray, tau: float, n_t: int):
    """The reference's (a, b, c) on the grid and at steps k = 1..n_t.

    a holds x1's factor per row and b x2's per column, each sampled in one
    call on the node coordinates ``coords``, and c the time factor of each
    step, from one call on the step times k * tau, so that (a_i * b_j) * c_k
    has the bits of ``exact`` itself.  Each is a C-contiguous vector.
    ``ValueError`` naming the factor if a value is complex, nan or infinite,
    or if a factor returns neither a scalar nor one value per point.
    """
    return (
        _factor(exact.x1, "exact.x1", coords),
        _factor(exact.x2, "exact.x2", coords),
        _factor(exact.t, "exact.t", np.arange(1, n_t + 1) * tau),
    )


def _error_sums(u, s, c, scratch) -> tuple[float, float]:
    """The sums of (u - r)^2 and of r^2 over the grid, r = s * c.

    Each is numpy's ``sum()`` of the flattened squares: pairwise, in runs
    of at most 128 values, an order that the compiled march replays with s
    formed per node from the reference's axis vectors (see ``_factors``).
    The products, differences and squares go into ``scratch``, a (2, *shape)
    array of two C-order fields, which the caller keeps across steps.
    """
    r, d = scratch
    np.multiply(s, c, out=r)
    np.subtract(u, r, out=d)
    return float(np.square(d, out=d).sum()), float(np.square(r, out=r).sum())


def _address(values: np.ndarray) -> int:
    """The address of a C-contiguous array's first value.

    ``ctypes`` reads a writable array's address in a third of the time that
    ``ndarray.ctypes.data`` takes; a read-only one falls back to the latter.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(values))
    except TypeError:  # a read-only buffer
        return values.ctypes.data


class _Stepper:
    """The stencil kernel of one scheme, Courant number, grid and boundary.

    A buffer holds the core that an update writes, field indices first ..
    n - 1 per axis, inside a ring of r = max(radius, 1) ghost cells, so that
    every offset of the stencil is a slice.  It is a (width x width) view,
    width = size + 2r, of its own allocation, with rows ``stride`` doubles
    apart: the least multiple of 8 above width, whole 64-byte lines.  Every
    core row starts on a line, so that the compiled march's 8-double loads
    at the offsets with q2 = 0, and its stores, each fill one line rather
    than straddling two.  One rule fills the ghosts: field
    index i reads index j = i mod p with sign +1 when j <= n, and index
    2n - j with sign -1 otherwise.  A periodic grid has first = 0 and p = n,
    so index n aliases index 0.  A Dirichlet grid has first = 1 and p = 2n:
    the odd extension of the field, whose mirror lines are the boundary ring
    i in {0, n}.  The rule maps the ring onto itself, and after every update
    it is pinned to +0.0.  The ghost lines, rows over the core columns and
    then columns over all rows, are listed once as (axis, ghost, source,
    sign); the numpy fill and the compiled plan write them in that order.

    At each node the stencil sum starts from 0.0 and adds coeff * value over
    the table's offsets in table order.  That order fixes the last bits of
    the published errors (table 3's E_P13 at n = 80), so offsets sharing a
    coefficient are not grouped and no multiply-add is fused.  The compiled
    kernel of ``_kernel`` makes one pass per node in that order; without it,
    the numpy path makes two passes (multiply, then add) per offset over
    blocks of rows, with the same bits.  Either way ``march`` is the only
    stepping routine, and it takes only buffers of this layout.  As the
    stride always exceeds width, a C-contiguous (width x width) array is
    refused by its strides alone.
    """

    def __init__(self, spec: SchemeSpec, lam: float, n: int, bc: str):
        lam = _check_grid(spec, n, lam, bc)
        first, period = (0, n) if bc == "periodic" else (1, 2 * n)
        r = max(spec.radius, 1)
        self.n, self.lo, self.size = n, r, n - first
        self.origin = r - first  # the buffer index of field index 0
        width = self.size + 2 * r
        self.shape = (width, width)
        self.stride = (width // 8 + 1) * 8
        self._strides = (8 * self.stride, 8)
        # Each buffer's allocation in doubles: the last row has no padding,
        # and up to 7 leading doubles align the core rows.
        self._length = (width - 1) * self.stride + width + 7
        # Per sign, zeros first since a source may lie on a mirror line: the
        # (ghost, source) buffer index pairs of one axis.
        pairs = {0: [], 1: [], -1: []}
        for b in [*range(r), *range(r + self.size, width)]:
            i = b - self.origin
            j = i % period
            source, sign = (j, 1) if j <= n else (2 * n - j, -1)
            pairs[0 if source == i else sign].append((b, source + self.origin))
        self._lines = [
            (axis, g, f, sign) for axis in (0, 1) for sign, p in pairs.items() for g, f in p
        ]
        # The tables at lam, evaluated once per (spec, lam) and shared.
        shared = stability.evaluated(spec, lam)
        self.first_u, self.first_v, self.two_step = shared.first_u, shared.first_v, shared.two_step
        self._lib = _kernel.load()
        if self._lib is None:
            rows = (min(_ROW_BLOCK, self.size), self.size)
            self._acc = np.empty(rows)
            self._term = np.empty(rows)
            self._scratch = np.empty((2, n + 1, n + 1))
        else:
            self._plan = _kernel.plan(self.stride, r, self.size, self.origin, n + 1,
                                      (self.first_u, self.first_v, self.two_step), self._lines)

    def field(self, buf: np.ndarray) -> np.ndarray:
        """The (n+1) x (n+1) field of a buffer, as a view."""
        o = self.origin
        return buf[o : o + self.n + 1, o : o + self.n + 1]

    def buffer(self, values: np.ndarray | None = None, axes=None) -> np.ndarray:
        """A new buffer, zero or holding a field with its ghosts filled.

        The field is ``values``, or with ``axes`` = (p, q), two vectors of
        n + 1 values, the product p[:, None] * q[None, :], formed in the
        buffer.  The boundary ring is not pinned: a Dirichlet field keeps its
        own for the first stencil application to read.  The buffer is a view
        of its own zeroed allocation (see the class docstring).
        """
        flat = np.zeros(self._length)
        skip = -(_address(flat) + 8 * self.lo) % 64 // 8  # doubles before the first row
        buf = np.ndarray(self.shape, float, flat, 8 * skip, self._strides)
        if axes is not None:
            p, q = axes
            np.multiply(p[:, None], q[None, :], out=self.field(buf))
        elif values is not None:
            self.field(buf)[...] = values
        else:
            return buf
        self._fill_ghosts(buf, pin=False)
        return buf

    def _buffer_address(self, buf: np.ndarray) -> int:
        """The address of a buffer's first value; ``ValueError`` unless it is
        a writable float64 view of this stepper's shape, stride and alignment."""
        if (buf.shape != self.shape or buf.strides != self._strides
                or buf.dtype != np.float64 or not buf.flags.writeable):
            raise ValueError(f"need a writable float64 buffer of shape {self.shape} "
                             f"with rows {self.stride} doubles apart")
        address = _address(buf[0])  # a contiguous row, read faster than the view
        if (address + 8 * self.lo) % 64:
            raise ValueError("need a buffer whose core rows start on 64-byte lines")
        return address

    def _fill_ghosts(self, buf: np.ndarray, pin: bool = True):
        """Copy or negate each ghost line's source, or, with ``pin``, zero it."""
        core = slice(self.lo, self.lo + self.size)
        for axis, ghost, source, sign in self._lines:
            g, f = ((ghost, core), (source, core)) if axis == 0 else ((..., ghost), (..., source))
            if sign > 0:
                buf[g] = buf[f]
            elif sign < 0:
                np.negative(buf[f], out=buf[g])
            elif pin:
                buf[g] = 0.0

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

    def march(self, prev, curr, steps: int, v=None, tau: float = 0.0, reference=None):
        """Advance the fields of buffers (prev, curr) by ``steps`` steps.

        With ``v``, the first step is curr = S_u prev + tau * S_v v; every
        other step is prev = S curr - prev, after which the two swap, so that
        ``curr`` holds the newest field.  Ghosts are filled after each step,
        and with ``reference`` = (a, b, factors, sums), row k of sums gets
        step k's error sums against (a[:, None] * b[None, :]) * factors[k]
        (see ``_factors`` and ``_error_sums``).  Returns the buffers as
        (prev, curr).  The compiled kernel runs all the steps in one call.
        The buffers must have the layout of this stepper's ``buffer()``, and
        the reference be four C-contiguous float64 arrays: a and b
        of n + 1 values, at least ``steps`` factors and ``steps`` rows of
        writable sums; ``ValueError`` otherwise.
        """
        at = [self._buffer_address(prev), self._buffer_address(curr),
              v if v is None else self._buffer_address(v)]
        vectors = []
        if reference is not None:
            try:
                a, b, factors, sums = reference
                vectors = [a, b, factors[:steps], sums[:steps]]
            except (TypeError, ValueError):
                raise ValueError("reference must be four arrays (a, b, factors, sums)") from None
        for values, shape in zip(vectors, [(self.n + 1,)] * 2 + [(steps,), (steps, 2)]):
            if (getattr(values, "shape", None) != shape or values.dtype != np.float64
                    or not values.flags.c_contiguous):
                raise ValueError(f"reference needs a C-contiguous float64 array of shape {shape}")
        if vectors and not sums.flags.writeable:
            raise ValueError("reference needs writable sums")
        swaps = steps - (v is not None)
        if self._lib is not None:
            addresses = [_address(x) for x in vectors] if vectors else [None] * 4
            self._lib.march(*map(_address, self._plan), *at, tau, steps, *addresses)
            return (prev, curr) if swaps % 2 == 0 else (curr, prev)
        space = _space(a, b) if vectors else None
        for k in range(steps):
            if k == 0 and v is not None:
                for a, b, core in self._blocks(curr):
                    acc = self._acc[: b - a]
                    self._sum(self.first_u, prev, a, b, core)
                    self._sum(self.first_v, v, a, b, acc)
                    acc *= tau
                    core += acc
            else:
                for a, b, core in self._blocks(prev):
                    acc = self._acc[: b - a]
                    self._sum(self.two_step, curr, a, b, acc)
                    np.subtract(acc, core, out=core)
                prev, curr = curr, prev
            self._fill_ghosts(curr)
            if vectors:
                sums[k] = _error_sums(self.field(curr), space, factors[k], self._scratch)
        return prev, curr


def first_step(
    u0: np.ndarray,
    v0: np.ndarray,
    spec: SchemeSpec,
    lam: float,
    tau: float,
    bc: str = "dirichlet",
) -> np.ndarray:
    """First update: combine initial displacement and velocity fields.

    Raises ``ValueError`` unless ``spec`` is a ``SchemeSpec``, ``tau`` is
    finite and ``u0`` and ``v0`` are real, finite fields on one grid.
    """
    tau = _check_tau(tau)
    n, (u0, v0) = _grid_fields({"u0": u0, "v0": v0})
    stepper = _Stepper(spec, lam, n, bc)
    out = stepper.buffer()
    stepper.march(stepper.buffer(u0), out, 1, v=stepper.buffer(v0), tau=tau)
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
    row and column repeat its first.  Raises ``ValueError`` unless ``spec``
    is a ``SchemeSpec`` and ``u_k`` and ``u_km1`` real, finite fields on one grid.
    """
    n, (u_k, u_km1) = _grid_fields({"u_k": u_k, "u_km1": u_km1})
    stepper = _Stepper(spec, lam, n, bc)
    out = stepper.buffer(u_km1)
    stepper.march(out, stepper.buffer(u_k), 1)  # out = S u_k - out, in place
    return stepper.field(out).copy()


def _initial(stepper: _Stepper, func: Separable, name: str, coords: np.ndarray) -> np.ndarray:
    """A buffer of ``stepper`` holding the initial field ``name``, ``func`` on the grid.

    The ``Separable`` ``func`` is formed in the buffer from its two factors,
    each sampled once on the node coordinates ``coords`` (see ``_factor``),
    with the bits of sampling it whole.  ``ValueError`` naming the field or
    its factor for complex, nan or infinite values, values of another shape,
    or a product that overflows.
    """
    p = _factor(func.x1, f"{name}.x1", coords)
    q = _factor(func.x2, f"{name}.x2", coords)
    # The largest |p_i * q_j| is this product, so it overflows iff a node does.
    if not math.isfinite(float(np.abs(p).max()) * float(np.abs(q).max())):
        raise ValueError(f"{name} must be finite, got an x1 * x2 that overflows")
    return stepper.buffer(axes=(p, q))


def _space(a, b) -> np.ndarray:
    """The reference's (n+1) x (n+1) space field from its axis vectors a and b."""
    return a[:, None] * b[None, :]


def _relative_error(sums, overflows: str) -> tuple[float, tuple[float, ...]]:
    """E and the per-step errors from each step's two error sums, in step order.

    A step whose reference vanishes has error nan; if all do, raise
    DegenerateNormError.  The fields are finite, so only overflowed sums
    make any other error not finite: then raise ``ValueError``, the message
    ``overflows`` followed by the first such step, or by all steps together
    when only E is not finite.
    """
    num = den = 0.0
    per_step = []
    for step_num, step_den in sums:
        num += step_num
        den += step_den
        per_step.append(math.sqrt(step_num / step_den) if step_den > 0.0 else math.nan)
    if den == 0.0:
        raise DegenerateNormError("exact solution vanishes at all sampled points")
    error = math.sqrt(num / den)
    steps = [k for k, ((_, step_den), e) in enumerate(zip(sums, per_step), start=1)
             if step_den > 0.0 and not math.isfinite(e)]
    if steps or not math.isfinite(error):
        where = f"step {steps[0]}" if steps else f"all {len(per_step)} steps together"
        raise ValueError(f"{overflows}: the error of {where} is not finite")
    return error, tuple(per_step)


def relative_l2_error(computed: Iterable[np.ndarray], exact: Separable, tau: float) -> float:
    """Space-time relative L2 error of fields for steps k = 1..n_t.

    The k-th item of ``computed`` is the field at time k*tau, all on one
    (n+1) x (n+1) grid; ``exact``, a ``Separable``, is sampled at the node
    coordinates, with ``tau`` taken as a float (a numpy float32 gives its
    float's bits).  Raises ``ValueError`` for no fields, fields of another
    shape, complex, nan or infinite fields or reference values, an ``exact``
    that is not a ``Separable``, a non-finite ``tau`` or fields whose error
    sums overflow, and :class:`DegenerateNormError` when the exact solution
    vanishes at every sampled point.  The sums are ``run()``'s, made in numpy.
    """
    named = {f"computed field {k}": u for k, u in enumerate(computed, start=1)}
    if not named:
        raise ValueError("need at least one computed field")
    tau = _check_tau(tau)
    _check_separable(exact, "exact", timed=True)
    n, fields = _grid_fields(named)
    a, b, factors = _factors(exact, np.arange(n + 1) / n, tau, len(fields))
    space, scratch = _space(a, b), np.empty((2, n + 1, n + 1))
    with np.errstate(over="ignore"):  # _relative_error refuses an overflow
        rows = [_error_sums(u, space, c, scratch) for u, c in zip(fields, factors)]
    return _relative_error(rows, "the computed fields overflow")[0]


def run(config: SimConfig, on_step: Callable | None = None) -> SimReport:
    """Run a full simulation and measure the benchmark error.

    Marches n_t steps and sums the space-time error against the reference;
    ``on_step(k, field)`` gets a copy of each step's field.  An unstable
    Courant number only warns; marginal (|symbol| = 1) values are silent.
    Raises ``ValueError`` if the fields overflow, so that E or a step's
    error is not finite, with no numpy warning; a step whose reference
    vanishes keeps error nan.

    Each factor of the reference is called once per run (see ``_factors``):
    the time factor once, with the n_t step times.  So is each factor of an
    initial field, whose product goes straight into its buffer.  The whole
    march is one ``_Stepper.march`` call, or one per step with ``on_step``,
    to the same bits.
    """
    started = time.perf_counter()
    env = stability.envelope(config.scheme, config.lam)
    if not env.stable:
        warnings.warn(
            f"lambda = {config.lam} is outside the stable range of scheme {config.scheme.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=2,
        )
    enveloped = time.perf_counter()
    n, n_t, tau = config.n, config.n_t, config.tau
    coords = np.arange(n + 1) / n
    stepper = _Stepper(config.scheme, config.lam, n, config.bc)
    prev = _initial(stepper, config.initial_u, "initial_u", coords)
    v = _initial(stepper, config.initial_v, "initial_v", coords)
    curr = stepper.buffer()
    a, b, factors = _factors(config.exact, coords, tau, n_t)
    sampled = time.perf_counter()
    sums = np.empty((n_t, 2))
    steps = n_t if on_step is None else 1
    for k in range(1, n_t + 1, steps):
        with np.errstate(over="ignore", invalid="ignore"):  # _relative_error refuses an overflow
            prev, curr = stepper.march(prev, curr, steps, v if k == 1 else None, tau,
                                       (a, b, factors[k - 1 :], sums[k - 1 :]))
        if on_step is not None:
            on_step(k, stepper.field(curr).copy())
    overflows = f"lambda = {config.lam} overflows scheme {config.scheme.name!r}"
    error, per_step = _relative_error(sums.tolist(), overflows)
    marched = time.perf_counter()
    return SimReport(
        error=error,
        per_step_errors=per_step,
        wall_time_s=time.perf_counter() - started,
        config=config,
        phases=(
            ("envelope", enveloped - started),
            ("sample", sampled - enveloped),
            ("march", marched - sampled),
        ),
        kernel="numpy" if stepper._lib is None else stepper._lib.isa,
    )


def dump_grid_csv(values: np.ndarray, path):
    """Write one field as row-major CSV with 17 significant digits."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
