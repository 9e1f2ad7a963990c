"""Von Neumann analysis of two-step stencil tables.

Substituting a plane wave into the two-step recurrence u^{k+1} = S u^k -
u^{k-1} gives a scalar three-term recursion whose solutions stay bounded
exactly when the one-step symbol a(theta) = S(theta)/2 lies in [-1, 1].  For
a two-step table unchanged by q1 -> -q1 and by q2 -> -q2 separately, with
|q1| + |q2| <= 2 on every offset, the symbol is the quadratic
a = 1/2 sum_q c_q(lam) T_|q1|(X) T_|q2|(Y) in X = cos theta1, Y = cos theta2
(T_k the Chebyshev polynomials).  Its extremes over [-1, 1]^2 lie among at
most nine points, found in exact rationals at the Courant number; the
maximal stable Courant number is a bisection in lambda on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadrature import LambdaPoly, check_positive
from .scheme import SchemeSpec, evaluate_table

_BOUND_SLACK = 1e-12

# (|q1|, |q2|) of the offsets the Chebyshev form covers: |q1| + |q2| <= 2.
_CLASSES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


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
    step count, which is still classified stable.  The constant mode
    (theta1 = theta2 = 0) always sits at exactly +1 and does not count.
    """

    low: SymbolSample
    high: SymbolSample
    marginal: bool

    @property
    def stable(self) -> bool:
        return self.low.value >= -1.0 - _BOUND_SLACK and self.high.value <= 1.0 + _BOUND_SLACK


def symbol(spec: SchemeSpec, lam: float, theta1: float, theta2: float) -> float:
    """One-step amplification symbol a(theta) of the scheme's two-step table.

    Evaluated as the cosine sum 1/2 sum_q c_q cos(q1 theta1 + q2 theta2),
    independently of the Chebyshev form that :func:`envelope` uses.  Raises
    ``ValueError`` for a table whose symbol is not real.
    """
    check_positive(lam, "lambda")
    _check_real(spec)
    total = 0.0
    for (q1, q2), coeff in evaluate_table(spec.two_step, lam):
        total += coeff * math.cos(q1 * theta1 + q2 * theta2)
    return 0.5 * total


def _check_real(spec: SchemeSpec):
    """Raise ``ValueError`` unless the scheme's symbol is real.

    The sine parts cancel, and the symbol is the real cosine sum, exactly
    when every offset q has a partner -q with an equal polynomial.
    """
    table = spec.two_step
    if any(poly != table.get((-q1, -q2)) for (q1, q2), poly in table.items()):
        raise ValueError(
            f"scheme {spec.name!r} has a non-real symbol "
            "(its two-step table is not symmetric under q -> -q)"
        )


def _symbol_coefficients(spec: SchemeSpec) -> tuple[LambdaPoly, ...]:
    """Exact coefficients of 1, X, Y, XY, X^2, Y^2 in the symbol a(X, Y).

    Raises ``ValueError`` for a table whose symbol is not real, or is real
    but not a quadratic in the cosines.
    """
    table = spec.two_step
    if not table:
        raise ValueError(f"scheme {spec.name!r} has an empty two-step table")
    _check_real(spec)
    # Given that, q1 -> -q1 symmetry implies q2 -> -q2 symmetry too.
    if any(
        (abs(q1), abs(q2)) not in _CLASSES or poly != table.get((-q1, q2))
        for (q1, q2), poly in table.items()
    ):
        raise ValueError(
            f"scheme {spec.name!r} is outside the exact stability analysis, which "
            "needs a two-step table unchanged by q1 -> -q1 and by q2 -> -q2 "
            "separately, with |q1| + |q2| <= 2 on every offset"
        )
    sums = dict.fromkeys(_CLASSES, LambdaPoly.zero())
    for (q1, q2), poly in table.items():
        sums[abs(q1), abs(q2)] += poly
    s00, s10, s01, s11, s20, s02 = (sums[k] for k in _CLASSES)
    half = Fraction(1, 2)
    # 1/2 (s00 + s10 X + s01 Y + s11 XY + s20 T_2(X) + s02 T_2(Y)), T_2(X) = 2X^2 - 1
    return ((s00 - s20 - s02) * half, s10 * half, s01 * half, s11 * half, s20, s02)


def _exact_value(poly: LambdaPoly, lam: Fraction) -> Fraction:
    return sum((c * lam**p for p, c in poly.items()), Fraction(0))


def _envelope(coeffs: tuple[LambdaPoly, ...], lam: float) -> Envelope:
    """Exact extremes of the quadratic symbol over [-1, 1]^2 at ``lam``."""
    exact_lam = Fraction(lam)
    c0, cx, cy, cxy, cxx, cyy = (_exact_value(poly, exact_lam) for poly in coeffs)
    points = [(x, y) for x in (1, -1) for y in (1, -1)]
    for x in (1, -1):  # edge X = x: a quadratic in Y
        if cyy:
            points.append((x, -(cy + cxy * x) / (2 * cyy)))
    for y in (1, -1):
        if cxx:
            points.append((-(cx + cxy * y) / (2 * cxx), y))
    det = 4 * cxx * cyy - cxy * cxy
    if det:  # the one critical point of the gradient's 2x2 linear system
        points.append(((cxy * cy - 2 * cyy * cx) / det, (cxy * cx - 2 * cxx * cy) / det))
    scored = [
        (c0 + x * (cx + cxx * x + cxy * y) + y * (cy + cyy * y), x, y)
        for x, y in points
        if -1 <= x <= 1 and -1 <= y <= 1
    ]
    low, high = min(scored), max(scored)
    # (X, Y) = (1, 1) is the constant mode, at exactly +1 for any consistent table.
    marginal = abs(float(low[0]) + 1.0) <= _BOUND_SLACK or any(
        abs(float(value) - 1.0) <= _BOUND_SLACK and (x, y) != (1, 1) for value, x, y in scored
    )
    return Envelope(low=_sample(*low), high=_sample(*high), marginal=marginal)


def _sample(value: Fraction, x: Fraction, y: Fraction) -> SymbolSample:
    return SymbolSample(theta1=math.acos(x), theta2=math.acos(y), value=float(value))


def envelope(spec: SchemeSpec, lam: float, grid: int | None = None) -> Envelope:
    """Exact extremes of the symbol over all phase angles, with theta in [0, pi].

    ``grid`` is accepted for callers of the former phase-grid scan and
    ignored.  Raises ``ValueError`` for a two-step table outside the
    precondition of the module docstring.
    """
    coeffs = _symbol_coefficients(spec)
    check_positive(lam, "lambda")
    return _envelope(coeffs, lam)


def lambda_max(spec: SchemeSpec, tol: float = 1e-6) -> float:
    """Largest stable Courant number, to within tol, by bisection on (0, 2].

    Stability is inclusive: |symbol| = 1 (the marginal double-root case) still
    counts as stable.  A tol below the spacing of doubles near the limit
    stops at adjacent doubles.  Raises ``ValueError`` unless 0 < tol < 2,
    and :class:`NeverStableError` when even lambda = tol violates the bound.
    """
    check_positive(tol, "tol")
    if tol >= 2.0:
        raise ValueError(f"tol must be below 2, the top of the search range, got {tol}")
    coeffs = _symbol_coefficients(spec)
    if not _envelope(coeffs, tol).stable:
        raise NeverStableError(
            f"scheme {spec.name!r} amplifies even at lambda = {tol}"
        )
    lo, hi = tol, 2.0
    if _envelope(coeffs, hi).stable:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent doubles
            break
        if _envelope(coeffs, mid).stable:
            lo = mid
        else:
            hi = mid
    return lo
