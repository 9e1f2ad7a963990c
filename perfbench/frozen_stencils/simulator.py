"""Time-marching driver on the unit square with the benchmark error metric.

Fields live on an (n+1) x (n+1) node grid with spacing h = 1/n; the value at
(i, j) sits at coordinates (i*h, j*h).  Dirichlet mode pins the boundary rows
to exact zeros and updates the interior (radius-1 schemes only); periodic
mode updates n independent nodes per axis and keeps index n as an alias of
index 0, so error sums over the full 0..n range never double-count a physical
node inside the update loop.

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
from .scheme import SchemeSpec

_SQRT2 = math.sqrt(2.0)

BOUNDARY_CONDITIONS = ("dirichlet", "periodic")


class RadiusUnsupportedError(Exception):
    """Dirichlet boundaries only support schemes of stencil radius 1."""


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
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {self.n_t}")
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.c <= 0:
            raise ValueError(f"wave speed must be positive, got {self.c}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")
        if self.bc == "dirichlet" and self.scheme.radius > 1:
            raise RadiusUnsupportedError(
                f"scheme {self.scheme.name!r} has radius {self.scheme.radius}; "
                "Dirichlet boundaries support radius 1 only"
            )

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


def _check_radius(spec: SchemeSpec, bc: str):
    if bc == "dirichlet" and spec.radius > 1:
        raise RadiusUnsupportedError(
            f"scheme {spec.name!r} has radius {spec.radius}; "
            "Dirichlet boundaries support radius 1 only"
        )


def _evaluate_table(table, lam: float):
    return [(offset, poly(lam)) for offset, poly in table.items()]


def _alias_edges(values: np.ndarray):
    """Copy the periodic core onto the aliased last row and column."""
    values[:-1, -1] = values[:-1, 0]
    values[-1, :] = values[0, :]


def _sample(func, x1: np.ndarray, x2: np.ndarray, *args) -> np.ndarray:
    """Evaluate a field function on the grid, accepting scalar-valued callables."""
    values = np.asarray(func(x1, x2, *args), dtype=float)
    return np.broadcast_to(values, x1.shape).copy()


def _apply_evaluated(pairs, values: np.ndarray, bc: str) -> np.ndarray:
    """Sum of coefficient * shifted-field over the stencil, honoring boundaries."""
    n = values.shape[0] - 1
    out = np.zeros_like(values)
    if bc == "dirichlet":
        acc = np.zeros((n - 1, n - 1))
        for (q1, q2), coeff in pairs:
            acc += coeff * values[1 + q1 : n + q1, 1 + q2 : n + q2]
        out[1:n, 1:n] = acc
    else:
        core = values[:n, :n]
        acc = np.zeros((n, n))
        for (q1, q2), coeff in pairs:
            acc += coeff * np.roll(core, (-q1, -q2), axis=(0, 1))
        out[:n, :n] = acc
        _alias_edges(out)
    return out


def first_step(
    u0: np.ndarray,
    v0: np.ndarray,
    spec: SchemeSpec,
    lam: float,
    tau: float,
    bc: str = "dirichlet",
) -> np.ndarray:
    """First update: combine initial displacement and velocity fields."""
    _check_radius(spec, bc)
    if u0.shape != v0.shape:
        raise ValueError(f"field shapes differ: {u0.shape} vs {v0.shape}")
    out = _apply_evaluated(_evaluate_table(spec.first_u, lam), u0, bc)
    out += tau * _apply_evaluated(_evaluate_table(spec.first_v, lam), v0, bc)
    return out


def _two_step_evaluated(pairs_two, u_k: np.ndarray, u_km1: np.ndarray, bc: str) -> np.ndarray:
    out = _apply_evaluated(pairs_two, u_k, bc) - u_km1
    if bc == "dirichlet":
        # The subtraction runs over the full array; re-pin the boundary.
        out[0, :] = 0.0
        out[-1, :] = 0.0
        out[:, 0] = 0.0
        out[:, -1] = 0.0
    return out


def two_step(
    u_k: np.ndarray,
    u_km1: np.ndarray,
    spec: SchemeSpec,
    lam: float,
    bc: str = "dirichlet",
) -> np.ndarray:
    """Two-step update: weighted current field minus the previous field."""
    _check_radius(spec, bc)
    if u_k.shape != u_km1.shape:
        raise ValueError(f"field shapes differ: {u_k.shape} vs {u_km1.shape}")
    return _two_step_evaluated(_evaluate_table(spec.two_step, lam), u_k, u_km1, bc)


def relative_l2_error(computed: Sequence[np.ndarray], exact: Callable, tau: float) -> float:
    """Space-time relative L2 error of fields for steps k = 1..n_t.

    ``computed[k-1]`` is the field at time k*tau; ``exact`` is sampled at the
    node coordinates.  Raises :class:`DegenerateNormError` when the exact
    solution vanishes at every sampled point.
    """
    if not computed:
        raise ValueError("need at least one computed field")
    n = computed[0].shape[0] - 1
    coords = np.arange(n + 1) / n
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    num = 0.0
    den = 0.0
    for k, field_k in enumerate(computed, start=1):
        reference = _sample(exact, x1, x2, k * tau)
        num += float(((field_k - reference) ** 2).sum())
        den += float((reference**2).sum())
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

    env = stability.envelope(spec, lam, grid=128)
    if not env.stable:
        warnings.warn(
            f"lambda = {lam} is outside the stable range of scheme {spec.name!r} "
            f"(symbol range [{env.low.value:.6f}, {env.high.value:.6f}])",
            stacklevel=2,
        )

    coords = np.arange(n + 1) / n
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    u_prev = _sample(config.initial_u, x1, x2)
    v0 = _sample(initial_v, x1, x2)
    if config.bc == "periodic":
        _alias_edges(u_prev)
        _alias_edges(v0)

    pairs_u = _evaluate_table(spec.first_u, lam)
    pairs_v = _evaluate_table(spec.first_v, lam)
    pairs_two = _evaluate_table(spec.two_step, lam)

    num = 0.0
    den = 0.0
    per_step = []
    u_curr = _apply_evaluated(pairs_u, u_prev, config.bc)
    u_curr += tau * _apply_evaluated(pairs_v, v0, config.bc)
    for k in range(1, config.n_t + 1):
        if k > 1:
            u_next = _two_step_evaluated(pairs_two, u_curr, u_prev, config.bc)
            u_prev, u_curr = u_curr, u_next
        reference = _sample(exact, x1, x2, k * tau)
        step_num = float(((u_curr - reference) ** 2).sum())
        step_den = float((reference**2).sum())
        num += step_num
        den += step_den
        per_step.append(math.sqrt(step_num / step_den) if step_den > 0.0 else math.nan)
        if on_step is not None:
            on_step(k, u_curr.copy())
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
