"""Von Neumann analysis of two-step stencil tables.

Substituting a plane wave into the two-step recurrence u^{k+1} = S u^k -
u^{k-1} gives a scalar three-term recursion whose solutions stay bounded
exactly when the one-step symbol a(theta) = S(theta)/2 lies in [-1, 1].  The
symbol is real exactly when the two-step table is symmetric under q -> -q,
which is checked on the exact rational table; stability then reduces to a
min/max search over phase angles, and the maximal stable Courant number to
a bisection in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import check_positive
from .scheme import SchemeSpec, evaluate_table

_BOUND_SLACK = 1e-12
_CONSTANT_MODE_TOL = 1e-8  # phase distance from 0 (mod 2pi) of the constant mode
_POLISH_TOL = 1e-7  # smallest step of the coordinate-descent polish
_POLISH_MAX_MOVES = 400


class NeverStableError(Exception):
    """No positive Courant number keeps the amplification bounded."""


@dataclass(frozen=True)
class SymbolSample:
    """Symbol value at one pair of phase angles."""

    theta1: float
    theta2: float
    value: float


@dataclass(frozen=True)
class Envelope:
    """Extremes of the symbol over phase angles at a fixed Courant number.

    ``marginal`` flags a nontrivial mode with |value| touching 1 (within
    slack): the recurrence then has a double root and grows linearly in the
    step count, which is still classified stable.  The constant mode always
    sits at exactly +1 and does not count.
    """

    low: SymbolSample
    high: SymbolSample
    marginal: bool

    @property
    def stable(self) -> bool:
        return self.low.value >= -1.0 - _BOUND_SLACK and self.high.value <= 1.0 + _BOUND_SLACK


def _is_constant_mode(sample: SymbolSample) -> bool:
    tau = 2.0 * np.pi
    d1 = min(sample.theta1 % tau, tau - sample.theta1 % tau)
    d2 = min(sample.theta2 % tau, tau - sample.theta2 % tau)
    return max(d1, d2) <= _CONSTANT_MODE_TOL


def _two_step_at(spec: SchemeSpec, lam: float):
    check_positive(lam, "lambda")
    return evaluate_table(spec.two_step, lam)


def _symbol_at(pairs, theta1: float, theta2: float) -> float:
    total = 0.0
    for (q1, q2), coeff in pairs:
        total += coeff * math.cos(q1 * theta1 + q2 * theta2)
    return 0.5 * total


def symbol(spec: SchemeSpec, lam: float, theta1: float, theta2: float) -> float:
    """One-step amplification symbol a(theta) of the scheme's two-step table."""
    return _symbol_at(_two_step_at(spec, lam), theta1, theta2)


class _SymbolScan:
    """Per-power phase-grid tables so the symbol is cheap to re-evaluate in lambda.

    The two-step coefficients are polynomials in lambda, so the symbol on a
    fixed theta grid is a short power series whose grid-valued coefficients
    are computed once.  The grid size is even, which puts the (pi, pi) corner
    mode exactly on a grid point.
    """

    def __init__(self, spec: SchemeSpec, grid: int = 512):
        table = spec.two_step
        if not table:
            raise ValueError(f"scheme {spec.name!r} has an empty two-step table")
        # The sine parts cancel, and the symbol is the real cosine sum below,
        # exactly when every offset q has a partner -q with an equal polynomial.
        if any(poly != table.get((-q1, -q2)) for (q1, q2), poly in table.items()):
            raise ValueError(
                f"scheme {spec.name!r} has a non-real symbol "
                "(its two-step table is not symmetric under q -> -q)"
            )
        self.spec = spec
        self.grid = grid
        thetas = 2.0 * np.pi * np.arange(grid) / grid
        t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
        self.thetas = thetas
        tables: dict[int, np.ndarray] = {}
        for (q1, q2), poly in table.items():
            cos_part = np.cos(q1 * t1 + q2 * t2)
            for power, coeff in poly.coeffs.items():
                weight = 0.5 * float(coeff)
                if power in tables:
                    tables[power] += weight * cos_part
                else:
                    tables[power] = weight * cos_part
        self.tables = sorted(tables.items())

    def values(self, lam: float) -> np.ndarray:
        out = None
        for power, table in self.tables:
            term = table if power == 0 else table * lam**power
            out = term.copy() if out is None else out + term
        return out

    def envelope(self, lam: float) -> Envelope:
        pairs = _two_step_at(self.spec, lam)
        values = self.values(lam)
        step = 2.0 * np.pi / self.grid
        i_min, j_min = np.unravel_index(np.argmin(values), values.shape)
        i_max, j_max = np.unravel_index(np.argmax(values), values.shape)
        low = _polish(pairs, self.thetas[i_min], self.thetas[j_min], step, minimize=True)
        high = _polish(pairs, self.thetas[i_max], self.thetas[j_max], step, minimize=False)
        marginal = abs(low.value + 1.0) <= _BOUND_SLACK or (
            abs(high.value - 1.0) <= _BOUND_SLACK and not _is_constant_mode(high)
        )
        return Envelope(low=low, high=high, marginal=marginal)


def _polish(pairs, t1, t2, step, minimize):
    """Coordinate descent on a shrinking stencil, starting from a grid extremum.

    ``pairs`` is the two-step table evaluated at the Courant number.
    """
    sign = 1.0 if minimize else -1.0
    best = sign * _symbol_at(pairs, t1, t2)
    moves = 0
    while step > _POLISH_TOL and moves < _POLISH_MAX_MOVES:
        candidates = (
            (t1 + step, t2),
            (t1 - step, t2),
            (t1, t2 + step),
            (t1, t2 - step),
        )
        scored = [(sign * _symbol_at(pairs, c1, c2), c1, c2) for c1, c2 in candidates]
        value, c1, c2 = min(scored)
        if value < best:
            best, t1, t2 = value, c1, c2
            moves += 1
        else:
            step *= 0.5
    tau = 2.0 * np.pi
    return SymbolSample(theta1=t1 % tau, theta2=t2 % tau, value=sign * best)


def envelope(spec: SchemeSpec, lam: float, grid: int = 512) -> Envelope:
    """Symbol extremes over a theta grid with local refinement."""
    return _SymbolScan(spec, grid).envelope(lam)


def lambda_max(spec: SchemeSpec, tol: float = 1e-6) -> float:
    """Largest stable Courant number, to within tol, by bisection on (0, 2].

    Stability is inclusive: |symbol| = 1 (the marginal double-root case) still
    counts as stable.  Raises :class:`NeverStableError` when even lambda =
    tol violates the bound.
    """
    check_positive(tol, "tol")
    scan = _SymbolScan(spec)
    if not scan.envelope(tol).stable:
        raise NeverStableError(
            f"scheme {spec.name!r} amplifies even at lambda = {tol}"
        )
    lo, hi = tol, 2.0
    if scan.envelope(hi).stable:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if scan.envelope(mid).stable:
            lo = mid
        else:
            hi = mid
    return lo
