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
axis and one in time, like the benchmark's standing wave, and the initial
fields are ``Separable``s of space alone, as the benchmark's two are.
``_sample`` turns ``Separable``s into vectors for ``run()`` and
``relative_l2_error`` alike, calling each factor once; (a_i * b_j) * c has
the bits of sampling the reference whole.  The compiled march forms it per
node, reading no (n+1)^2 reference field, and the numpy paths build that
field by one broadcast multiply.  ``run()`` forms each initial field's
product in its march buffer: a compiled run allocates three fresh (n+1)^2
fields, its buffers, and no others.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Iterable

import numpy as np

from . import _kernel, stability
from .quadrature import check_finite, check_positive
from .scheme import BOUNDARY_CONDITIONS, DegenerateNormError, SchemeSpec, _evaluated, check_scheme

_SQRT2 = math.sqrt(2.0)
_DOUBLE_MAX = np.finfo(float).max

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
    them (``ValueError`` naming the factor otherwise): floats, ints, bools,
    ``Fraction``s or ``Decimal``s, but no complex, str or datetime.  A bool
    is 0.0 or 1.0, so an indicator is a factor.
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
    check_scheme(spec)
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
    raises ``ValueError`` naming the factor if one gives a value that is
    not a real number, nan, infinite or beyond the doubles, or values of
    another shape, and naming the field if its product overflows.  ``lam``
    is stored as a float.
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
    order: "envelope", the stability envelope; "sample", the factor vectors
    of the initial fields and the reference; "setup", the march's buffers
    with their fields and, on the compiled kernel, its plan and addresses;
    "march", the steps with their ghost fills and error sums; "error", E,
    the per-step and the running errors from those sums.  Their sum is at
    most ``wall_time_s``.
    ``kernel`` names what marched: a compiled variant's instruction set
    ("avx512f", "avx2" or "baseline", see ``_kernel.ISAS``) or "numpy"; ""
    if not recorded.
    ``running_errors`` has n_t entries: entry k - 1 is the space-time E of
    steps 1..k, nan while their reference vanishes at every node.  An entry
    has the bits of ``error`` of the same run cut to k steps, and the last
    entry is ``error``; () if not recorded.
    """

    error: float
    per_step_errors: tuple[float, ...]
    wall_time_s: float
    config: SimConfig = field(repr=False)
    phases: tuple[tuple[str, float], ...] = ()
    kernel: str = ""
    running_errors: tuple[float, ...] = ()


def _real_finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` naming ``name`` unless
    they are real numbers that are finite as doubles.

    Real means of dtype bool, int, uint or float, or an object array of
    ``numbers.Real``s, ``Decimal``s and bools.  Cast or summed, a complex, a
    str, a datetime or a generator would raise an error naming no input or
    count as a number (days, for a datetime), and a nan, an infinity or an
    int or long double beyond the doubles would end in a wrong or nan error
    or a warning.
    """
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise ValueError(f"{name} must be real, got a ragged {type(values).__name__}") from None
    if values.dtype.kind == "O":
        other = [x for x in values.flat if not isinstance(x, (numbers.Real, Decimal, np.bool_))]
        if other:
            raise ValueError(f"{name} must be real, got {type(other[0]).__name__}")
    elif values.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got {values.dtype}")
    elif values.dtype.itemsize > 8 and (abs(values[np.isfinite(values)]) > _DOUBLE_MAX).any():
        # a long double beyond the doubles, which the cast would warn of
        raise ValueError(f"{name} must be finite, got a value beyond the doubles")
    try:
        values = values.astype(float, copy=False)
    except OverflowError:  # an int beyond the doubles
        raise ValueError(f"{name} must be finite, got a value beyond the doubles") from None
    except ValueError:  # a Decimal signaling nan
        values = np.full(values.shape, math.nan)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got nan or infinity")
    return values


def _grid_fields(fields: dict) -> tuple[int, list[np.ndarray]]:
    """n and the float arrays of ``fields``, a dict of name: values, in order.

    ``ValueError`` unless the fields lie on one square (n+1) x (n+1) grid,
    n >= 1, and are real and finite.
    """
    shape, *others = (_shape(values, name) for name, values in fields.items())
    if any(other != shape for other in others):
        raise ValueError(f"need square 2-D fields of one shape, got {[shape, *others]}")
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ValueError(f"need square 2-D fields of at least 2 x 2 nodes, got {shape}")
    return shape[0] - 1, [_real_finite(values, name) for name, values in fields.items()]


def _shape(values, name: str) -> tuple[int, ...]:
    """``np.shape(values)``; ``ValueError`` naming ``name`` for a ragged sequence."""
    try:
        return np.shape(values)
    except ValueError:
        raise ValueError(f"{name} must be real, got a ragged {type(values).__name__}") from None


def _check_separable(value, name: str, timed: bool) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a ``Separable``
    with a time factor if ``timed``, and without one otherwise."""
    if not isinstance(value, Separable):
        raise ValueError(f"{name} must be a Separable, got {value!r}")
    if timed and value.t is None:
        raise ValueError(f"{name} must be a Separable with a time factor t, got one without")
    if not timed and value.t is not None:
        raise ValueError(f"{name} must be a field of (x1, x2), got a Separable with t")


def _checked(values, name: str, points: np.ndarray) -> np.ndarray:
    """A factor's ``values`` at ``points`` as a C-contiguous copy.

    ``ValueError`` naming ``name`` unless the values are real, finite and
    either a scalar, which is broadcast, or of the shape of ``points``.
    """
    values = _real_finite(values, name)
    if values.shape == ():
        return np.full(points.shape, values)
    if values.shape != points.shape:
        raise ValueError(
            f"{name} must return a scalar or {points.size} values, got shape {values.shape}"
        )
    return values.copy()


def _error_sums(u, s, c, scratch) -> tuple[float, float]:
    """The sums of (u - r)^2 and of r^2 over the grid, r = s * c.

    Each is numpy's ``sum()`` of the flattened squares: pairwise, in runs
    of at most 128 values, an order that the compiled march replays with s
    formed per node from the reference's axis vectors (see ``_sample``).
    The products, differences and squares go into ``scratch``, a (2, *shape)
    array of two C-order fields, which the caller keeps across steps.
    """
    r, d = scratch
    np.multiply(s, c, out=r)
    np.subtract(u, r, out=d)
    return float(np.square(d, out=d).sum()), float(np.square(r, out=r).sum())


def _address(values) -> int:
    """The address of the first value of a writable C-contiguous array.

    ``ctypes`` reads it in a third of the time that ``ndarray.ctypes.data``
    takes.  Every array of a march is the stepper's own, so none is read-only.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(values))


@functools.lru_cache(maxsize=128)
def _layout(r: int, n: int, bc: str) -> tuple:
    """(lo, size, origin, shape, stride, strides, length, lines): the buffer
    layout of ``_Stepper`` with a ring of r ghost cells on one grid, formed
    once per (r, n, bc) and shared; length is an allocation in doubles and
    lines the ghost lines as (ghost, source, sign)."""
    first, period = (0, n) if bc == "periodic" else (1, 2 * n)
    size, origin = n - first, r - first  # origin: the buffer index of field index 0
    width = size + 2 * r
    stride = (width // 8 + 1) * 8
    # The last row has no padding, and up to 7 leading doubles align the core rows.
    length = (width - 1) * stride + width + 7
    lines = []
    for b in [*range(r), *range(r + size, width)]:
        i = b - origin
        j = i % period
        source, sign = (j, 1) if j <= n else (2 * n - j, -1)
        lines.append((b, source + origin, 0 if source == i else sign))
    lines.sort(key=lambda line: line[2] != 0)  # mirror lines first, as a source may lie on one
    return r, size, origin, (width, width), stride, (8 * stride, 8), length, tuple(lines)


@functools.lru_cache(maxsize=128)
def _plan(spec: SchemeSpec, lam: float, n: int, bc: str) -> tuple:
    """The (plan, coeffs) arrays of the compiled march and their addresses,
    formed once per (spec, lam, n, bc) and shared; no march writes them."""
    lo, size, origin, _, stride, _, _, lines = _layout(max(spec.radius, 1), n, bc)
    packed = _kernel.plan(stride, lo, size, origin, n + 1, _evaluated(spec, lam), lines)
    return packed, tuple(map(_address, packed))


class _Stepper:
    """One march: its fields, stencil kernel and, with a reference, error sums.

    The constructor forms the fields ``prev``, ``curr`` (zero if not given)
    and ``v``, the first step's velocity, each in a buffer of its own.  With
    ``reference``, the (a, b, c) vectors of a reference sampled for steps
    1..n_t (see ``_sample``), it allocates ``sums``, row k - 1 for step k's
    error sums; it only reads the vectors.  No array crosses
    ``march(steps)``: the compiled kernel reads addresses of the stepper's
    own arrays and of its plan (``_plan``, shared and held), taken here
    once, and ``step``, by which it alone finds step 0 and each step's
    rows.  The scheme, n, lam (a float) and bc come checked by
    ``_check_grid``, through ``SimConfig`` or the public steps.

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
    it is pinned to +0.0.  Each ghost line is one (ghost, source, sign),
    mirror lines first; both fills write every line as a whole row, then as
    a whole column, so ghost rows hold the extension across the ring too.
    Step 0 first fills the ghosts of the fields it reads, ring left as given.

    At each node the stencil sum starts from 0.0 and adds coeff * value over
    the table's offsets in table order.  That order fixes the last bits of
    the published errors (table 3's E_P13 at n = 80), so offsets sharing a
    coefficient are not grouped and no multiply-add is fused.  The compiled
    kernel of ``_kernel`` makes one pass per node in that order; without it,
    the numpy path makes two passes (multiply, then add) per offset over
    blocks of rows, with the same bits.  Either way ``march`` is the only
    stepping routine.
    """

    def __init__(self, spec: SchemeSpec, lam: float, n: int, bc: str, prev=None, curr=None,
                 v=None, tau: float = 0.0, reference=None):
        self.n = n
        (self.lo, self.size, self.origin, self.shape, self.stride, self._strides, self._length,
         self._lines) = _layout(max(spec.radius, 1), n, bc)
        # The tables at lam, shared per (spec, lam).
        self.first_u, self.first_v, self.two_step = _evaluated(spec, lam)
        self.prev = self.buffer(prev)
        self._v = None if v is None else self.buffer(v)
        self.curr = self.buffer(curr)
        self.tau, self.step = tau, 0
        # The steps that the reference covers, one row of sums each.
        self._last, self.sums = math.inf, None
        if reference is not None:
            self._reference = reference
            self._last = len(reference[2])
            self.sums = np.empty((self._last, 2))
        self._lib = _kernel.load()
        if self._lib is None:
            rows = (min(_ROW_BLOCK, self.size), self.size)
            self._acc = np.empty(rows)
            self._term = np.empty(rows)
            self._scratch = np.empty((2, n + 1, n + 1))
            if reference is not None:
                self._space = _space(*reference[:2])
        else:
            self._plan, self._plan_at = _plan(spec, lam, n, bc)
            self._at = [_address(buf[0]) for buf in (self.prev, self.curr)]
            self._v_at = None if v is None else _address(self._v[0])
            self._reference_at = [None] * 4 if reference is None else [
                *map(_address, (*reference, self.sums))]

    def field(self, buf: np.ndarray) -> np.ndarray:
        """The (n+1) x (n+1) field of a buffer, as a view."""
        o = self.origin
        return buf[o : o + self.n + 1, o : o + self.n + 1]

    def buffer(self, values=None) -> np.ndarray:
        """A new buffer, zero or holding a field, its ghosts zero.

        The field is ``values``, an (n+1) x (n+1) array, or for a pair (p, q)
        of n + 1 values each, p[:, None] * q[None, :] formed in the buffer.
        ``march`` fills the ghosts that step 0 reads, without pinning the
        boundary ring: a Dirichlet field keeps its own for the first stencil
        application to read, and the ghosts hold its odd extension, ring
        included.  The buffer is a view of its own zeroed allocation (see
        the class docstring).
        """
        flat = np.zeros(self._length)
        skip = -(_address(flat) + 8 * self.lo) % 64 // 8  # doubles before the first row
        buf = np.ndarray(self.shape, float, flat, 8 * skip, self._strides)
        if isinstance(values, tuple):
            p, q = values
            np.multiply(p[:, None], q[None, :], out=self.field(buf))
        elif values is not None:
            self.field(buf)[...] = values
        return buf

    def _fill_ghosts(self, buf: np.ndarray, pin: bool = True):
        """Copy or negate each line's source, or with ``pin`` zero it: as rows, then columns."""
        for lines in (buf, buf.T):
            for ghost, source, sign in self._lines:
                if sign > 0:
                    lines[ghost] = lines[source]
                elif sign < 0:
                    np.negative(lines[source], out=lines[ghost])
                elif pin:
                    lines[ghost] = 0.0

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

    def march(self, steps: int):
        """Advance the fields by ``steps`` steps; the compiled kernel makes them in one call.

        Step 0, after the ghost fill of the fields it reads, is the first
        step curr = S_u prev + tau * S_v v if ``v`` is given; every other
        step is prev = S curr - prev, then a swap, so that ``curr`` holds
        the newest field.  After each step come the ghost fill
        and the step's error sums.  ``ValueError`` unless 1 <= steps and the
        march ends within the n_t steps that the reference covers.
        """
        k = self.step
        if not 0 < steps <= self._last - k:
            raise ValueError(f"can march 1 to {self._last - k} more steps, got {steps}")
        if self._lib is not None:
            if self._lib.march(*self._plan_at, *self._at, self._v_at, self.tau, k, steps,
                               *self._reference_at):
                self.prev, self.curr = self.curr, self.prev
                self._at.reverse()
        else:
            # No warning: the callers refuse a field or an error that overflows.
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(k, k + steps):
                    if k == 0:
                        for buf in (self.curr,) if self._v is None else (self.prev, self._v):
                            self._fill_ghosts(buf, pin=False)
                    if k == 0 and self._v is not None:
                        for a, b, core in self._blocks(self.curr):
                            acc = self._acc[: b - a]
                            self._sum(self.first_u, self.prev, a, b, core)
                            self._sum(self.first_v, self._v, a, b, acc)
                            acc *= self.tau
                            core += acc
                    else:
                        for a, b, core in self._blocks(self.prev):
                            acc = self._acc[: b - a]
                            self._sum(self.two_step, self.curr, a, b, acc)
                            np.subtract(acc, core, out=core)
                        self.prev, self.curr = self.curr, self.prev
                    self._fill_ghosts(self.curr)
                    if self.sums is not None:
                        self.sums[k] = _error_sums(self.field(self.curr), self._space,
                                                   self._reference[2][k], self._scratch)
        self.step += steps


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
    finite and ``u0`` and ``v0`` are real, finite fields on one grid that
    step to a finite field.
    """
    tau = check_finite(tau, "tau")
    n, (u0, v0) = _grid_fields({"u0": u0, "v0": v0})
    lam = _check_grid(spec, n, lam, bc)
    return _one_step(_Stepper(spec, lam, n, bc, u0, v=v0, tau=tau), spec, lam)


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
    is a ``SchemeSpec`` and ``u_k`` and ``u_km1`` real, finite fields on one
    grid that step to a finite field.
    """
    n, (u_k, u_km1) = _grid_fields({"u_k": u_k, "u_km1": u_km1})
    lam = _check_grid(spec, n, lam, bc)
    return _one_step(_Stepper(spec, lam, n, bc, u_km1, u_k), spec, lam)


def _one_step(stepper: _Stepper, spec: SchemeSpec, lam: float) -> np.ndarray:
    """A copy of the field after one step; ``ValueError`` if it overflows."""
    stepper.march(1)
    out = stepper.field(stepper.curr).copy()
    if not np.isfinite(out).all():
        raise ValueError(f"lambda = {lam} and these fields overflow scheme {spec.name!r}")
    return out


def _sample(fields: dict, coords: np.ndarray, times: np.ndarray) -> list[tuple]:
    """Each ``Separable`` of ``fields``, a dict of name: field, as the tuple
    of its factors' vectors, in order: (x1, x2) for a field of space and
    (x1, x2, t) for a reference, as ``_Stepper`` takes them.

    Every factor is called once, in field order and x1, x2, t within a
    field: the space factors on the node coordinates ``coords``, the time
    factor on the step times ``times``.  When every value is a float vector
    of its points' shape, one pass finds them all finite and they become
    C-contiguous views of one copy.  Otherwise each is checked and copied
    in turn by ``_checked``: the first bad value raises the ``ValueError``
    that checking one factor at a time would.  Either way no factor's own
    array reaches a march.  A field of space is refused,
    right after its two factors, if its x1 * x2 overflows: the largest
    |x1_i * x2_j| is max |x1| * max |x2|, so it overflows iff a node does.
    """
    funcs, points = [], []
    for f in fields.values():
        funcs += (f.x1, f.x2) if f.t is None else (f.x1, f.x2, f.t)
        points += (coords, coords) if f.t is None else (coords, coords, times)
    values = [func(at) for func, at in zip(funcs, points)]
    highs = None  # each factor's max |value|, once all are checked together
    if all(type(x) is np.ndarray and x.dtype == float and x.shape == at.shape
           for x, at in zip(values, points)):
        block = np.concatenate(values)
        if np.isfinite(block).all():
            starts = [0]
            for at in points[:-1]:
                starts.append(starts[-1] + at.size)
            highs = np.maximum.reduceat(np.abs(block), starts).tolist()
            values = [block[i : i + at.size] for i, at in zip(starts, points)]
    sampled, i = [], 0
    for name, f in fields.items():
        end = i + (2 if f.t is None else 3)
        if highs is None:
            labels = (f"{name}.x1", f"{name}.x2", f"{name}.t")
            values[i:end] = map(_checked, values[i:end], labels, points[i:end])
        if f.t is None:
            p, q = highs[i:end] if highs else [float(np.abs(x).max()) for x in values[i:end]]
            if not math.isfinite(p * q):
                raise ValueError(f"{name} must be finite, got an x1 * x2 that overflows")
        sampled.append(tuple(values[i:end]))
        i = end
    return sampled


def _space(a, b) -> np.ndarray:
    """The reference's (n+1) x (n+1) space field from its axis vectors a and b."""
    return a[:, None] * b[None, :]


def _relative_error(sums, overflows: str) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """E, the per-step errors and the running errors from each step's two
    error sums, in step order.

    Entry k - 1 of the running errors is sqrt(num / den) over the sums of
    steps 1..k, added in step order as E's are, so that it has the bits of
    E over those steps alone; it is nan while that den is 0.  A step whose
    reference vanishes has error nan; if all do, raise DegenerateNormError.
    The fields are finite, so only overflowed sums make any other error not
    finite: then raise ``ValueError``, the message ``overflows`` followed by
    the first such step, or by all steps together when only E is not finite.
    """
    num = den = 0.0
    per_step, running = [], []
    for k, (step_num, step_den) in enumerate(sums, start=1):
        num += step_num
        den += step_den
        if step_den > 0.0:
            step_error = math.sqrt(step_num / step_den)
            if not math.isfinite(step_error):
                raise ValueError(f"{overflows}: the error of step {k} is not finite")
        else:
            step_error = math.nan
        per_step.append(step_error)
        running.append(math.sqrt(num / den) if den > 0.0 else math.nan)
    if den == 0.0:
        raise DegenerateNormError("exact solution vanishes at all sampled points")
    error = running[-1]
    if not math.isfinite(error):
        where = f"all {len(per_step)} steps together"
        raise ValueError(f"{overflows}: the error of {where} is not finite")
    return error, tuple(per_step), tuple(running)


def relative_l2_error(computed: Iterable[np.ndarray], exact: Separable, tau: float) -> float:
    """Space-time relative L2 error of fields for steps k = 1..n_t.

    The k-th item of ``computed`` is the field at time k*tau, all on one
    (n+1) x (n+1) grid; ``exact``, a ``Separable``, is sampled at the node
    coordinates, with ``tau`` taken as a float (a numpy float32 gives its
    float's bits).  Raises ``ValueError`` for no fields, fields of another
    shape, fields or reference values that are not real numbers, nan or
    infinite (see ``Separable``), an ``exact``
    that is not a ``Separable``, a non-finite ``tau`` or fields whose error
    sums overflow, and :class:`DegenerateNormError` when the exact solution
    vanishes at every sampled point.  The sums are ``run()``'s, made in numpy.
    """
    named = {f"computed field {k}": u for k, u in enumerate(computed, start=1)}
    if not named:
        raise ValueError("need at least one computed field")
    tau = check_finite(tau, "tau")
    _check_separable(exact, "exact", timed=True)
    n, fields = _grid_fields(named)
    times = np.arange(1, len(fields) + 1) * tau
    [(a, b, factors)] = _sample({"exact": exact}, np.arange(n + 1) / n, times)
    space, scratch = _space(a, b), np.empty((2, n + 1, n + 1))
    with np.errstate(over="ignore"):  # _relative_error refuses an overflow
        rows = [_error_sums(u, space, c, scratch) for u, c in zip(fields, factors)]
    return _relative_error(rows, "the computed fields overflow")[0]


def run(config: SimConfig, on_step: Callable | None = None) -> SimReport:
    """Run a full simulation and measure the benchmark error.

    Marches n_t steps and sums the space-time error against the reference;
    ``on_step(k, field)`` gets a copy of each step's field.  An unstable
    Courant number only warns; marginal (|symbol| = 1) values are silent.
    The warning needs the stability envelope, so a scheme outside the exact
    stability analysis, such as a two-step table with a (2, 1) offset, is
    refused with its ``ValueError``, although ``first_step`` and
    ``two_step`` march it.
    Raises ``ValueError`` if the fields overflow, so that E or a step's
    error is not finite, with no numpy warning; a step whose reference
    vanishes keeps error nan.

    Each factor of the initial fields and the reference is called once per
    run, the time factor with the n_t step times, and all seven are checked
    together by ``_sample``, which ``relative_l2_error`` shares.  Each initial field's product goes straight
    into its buffer.  The whole march is one ``_Stepper.march`` call, or one
    per step with ``on_step``, to the same bits.
    """
    return _run(config, on_step)


def _samples(config: SimConfig) -> list[tuple]:
    """The vectors (u, v, reference) of ``config``'s initial fields and
    reference, by ``_sample``: each factor called once."""
    n = config.n
    fields = {"initial_u": config.initial_u, "initial_v": config.initial_v, "exact": config.exact}
    return _sample(fields, np.arange(n + 1) / n, np.arange(1, config.n_t + 1) * config.tau)


def _run(config: SimConfig, on_step: Callable | None = None, vectors=None) -> SimReport:
    """``run(config, on_step)``, the one march path.

    ``run()`` returns its report, and ``benchmarks.run_table`` calls it
    itself, so that its rows read ``running_errors`` from a real march even
    where perfbench's trace has put its replay in place of ``run``.
    ``vectors`` is ``_samples(config)`` if given: ``run_table`` samples once
    per group of equal fields, n, n_t and lam, and each march only reads
    them.  The instability warning names the caller of the function that
    called this one: ``run()``'s caller, or ``run_table``'s.
    """
    started = time.perf_counter()
    env = stability._shared_envelope(config.scheme, config.lam)  # both checked by SimConfig
    if not env.stable:
        warnings.warn(
            f"lambda = {config.lam} is outside the stable range of scheme {config.scheme.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=3,
        )
    enveloped = time.perf_counter()
    u, v, reference = _samples(config) if vectors is None else vectors
    sampled = time.perf_counter()
    stepper = _Stepper(config.scheme, config.lam, config.n, config.bc, u, v=v, tau=config.tau,
                       reference=reference)
    set_up = time.perf_counter()
    steps = config.n_t if on_step is None else 1
    for k in range(1, config.n_t + 1, steps):
        stepper.march(steps)
        if on_step is not None:
            on_step(k, stepper.field(stepper.curr).copy())
    marched = time.perf_counter()
    overflows = f"lambda = {config.lam} overflows scheme {config.scheme.name!r}"
    error, per_step, running = _relative_error(stepper.sums.tolist(), overflows)
    summed = time.perf_counter()
    return SimReport(
        error=error,
        per_step_errors=per_step,
        running_errors=running,
        wall_time_s=time.perf_counter() - started,
        config=config,
        phases=(
            ("envelope", enveloped - started),
            ("sample", sampled - enveloped),
            ("setup", set_up - sampled),
            ("march", marched - set_up),
            ("error", summed - marched),
        ),
        kernel="numpy" if stepper._lib is None else stepper._lib.isa,
    )


def dump_grid_csv(values: np.ndarray, path):
    """Write one field as row-major CSV with 17 significant digits."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
