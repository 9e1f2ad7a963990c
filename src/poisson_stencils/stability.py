"""Von Neumann analysis of two-step stencil tables.

Substituting a plane wave into the two-step recurrence u^{k+1} = S u^k -
u^{k-1} gives a scalar three-term recursion whose solutions stay bounded
exactly when the one-step symbol a(theta) = S(theta)/2 lies in [-1, 1].  For
a two-step table unchanged by q1 -> -q1 and by q2 -> -q2 separately, with
|q1| + |q2| <= 2 on every offset, the symbol is the quadratic
a = 1/2 sum_q c_q(lam) T_|q1|(X) T_|q2|(Y) in X = cos theta1, Y = cos theta2
(T_k the Chebyshev polynomials).  Its extremes over [-1, 1]^2 lie among at
most nine points; the maximal stable Courant number is a bisection in lambda
on them.

The extremes are exact and found in integers.  Once per spec, the six
coefficient polynomials go over one common denominator D as integer rows.
At lambda = m/k a homogeneous Horner pass gives integers N_i with
c_i = N_i / (D k^deg).  That scale cancels in every candidate point, and
every score is an integer over one positive denominator, so the least and
the largest (value, x, y) are found by comparing integer tuples.  Their
floats come from integer true division, correctly rounded as ``float()`` of
a ``Fraction`` is.

:func:`lambda_max` bisects on the envelope's verdicts.  From a spec's
second call on, it decides most of them by comparison with the spec's
exact limits, which ``_limits`` builds once per spec: the roots in (0, 2]
of every candidate point's "value = +-1" and "value = +-(1 + 2**-38)"
polynomials are isolated by Sturm sequences over the integers, and each
gap between them is probed exactly.  That gives the exact limit, below
which every lambda is stable, and a widened one about 1e-12 above it,
above which none is stable even with the envelope's slack; only a lambda
between the two takes an exact envelope.  The gaps also show whether the
stable lambdas form the one interval (0, lambda*] that the bisection
assumes.

A spec's symbol coefficients as integer rows, its limits and its
:func:`envelope` at one lambda are computed once per process and shared,
in bounded caches keyed by the spec (its tables in order, not only its
name).  Every check runs first: lambda becomes a float where it is
checked, so any real type gives its float's bits, 1 and 1.0 share an
entry, and a bool never reaches one.  :func:`symbol` sums the float tables of
:func:`~poisson_stencils.scheme.evaluated`, which is also importable here.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .quadrature import LambdaPoly, check_finite, check_positive, finite_at, not_a_double
from .scheme import SchemeSpec, _evaluated, check_scheme, evaluated  # evaluated: re-exported

_BOUND_SLACK = 1e-12
_FLOAT_MAX = int(sys.float_info.max)

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
    ``ValueError`` for a ``spec`` that is not a ``SchemeSpec``, a table
    whose symbol is not real, one naming the angle for a ``theta1`` or
    ``theta2`` that is a bool or not finite, and one naming both when a
    phase q1 theta1 + q2 theta2 overflows.
    """
    check_scheme(spec)
    lam = check_positive(lam, "lambda")
    theta1, theta2 = check_finite(theta1, "theta1"), check_finite(theta2, "theta2")
    _check_real(spec)
    total = 0.0
    for (q1, q2), coeff in _evaluated(spec, lam)[2]:
        phase = q1 * theta1 + q2 * theta2
        if not math.isfinite(phase):
            raise ValueError(
                f"theta1 = {theta1!r} and theta2 = {theta2!r} give offset ({q1}, {q2}) "
                f"a phase q1 * theta1 + q2 * theta2 that is not finite"
            )
        total += coeff * math.cos(phase)
    return finite_at(0.5 * total, lam)


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


@dataclass(frozen=True)
class _ScaledSymbol:
    """The six symbol coefficients as integer rows over one common denominator.

    c_i = sum_j rows[i][j] lam^(high - j) / denominator: row entry j holds
    the power high - j, from ``high`` down to ``low``, and low <= 0 <= high.
    """

    denominator: int
    low: int
    high: int
    rows: tuple[tuple[int, ...], ...]

    def at(self, lam: float) -> tuple[int, list[int]]:
        """(S, [N_i]) with c_i(lam) = N_i / S exactly and S > 0.

        For lam = m/k, S = denominator k^high m^-low, and a homogeneous
        Horner pass in (m, k) gives each N_i.
        """
        m, k = Fraction(lam).as_integer_ratio()
        k_powers = [1]
        for _ in range(self.high - self.low):
            k_powers.append(k_powers[-1] * k)
        numerators = []
        for row in self.rows:
            total = 0
            for a, k_power in zip(row, k_powers):
                total = total * m + a * k_power
            numerators.append(total)
        return self.denominator * k**self.high * m**-self.low, numerators


@functools.lru_cache(maxsize=32)
def _scaled_symbol(spec: SchemeSpec) -> _ScaledSymbol:
    """:func:`_symbol_coefficients` as a :class:`_ScaledSymbol`, once per spec."""
    coeffs = [poly.coeffs for poly in _symbol_coefficients(spec)]
    powers = {0}.union(*coeffs)
    low, high = min(powers), max(powers)
    denominator = math.lcm(*(c.denominator for poly in coeffs for c in poly.values()))
    rows = tuple(
        tuple(int(poly.get(power, 0) * denominator) for power in range(high, low - 1, -1))
        for poly in coeffs
    )
    return _ScaledSymbol(denominator, low, high, rows)


def _scored(symbol: _ScaledSymbol, lam: float) -> tuple[list[tuple[int, int, int]], int, int]:
    """(scored, common, denominator): the candidate points of the quadratic
    symbol in [-1, 1]^2 at ``lam``, each (value, x, y) standing for the
    value value / denominator at (x / common, y / common).

    All arithmetic is on integers.  A candidate point is (x/q, y/q) with
    q > 0, as the common scale S of the coefficients cancels in it; a score
    is an integer over S q^2.  Over the common denominator of all points,
    the (value, x, y) tuples compare as the rationals they stand for.
    """
    scale, (c0, cx, cy, cxy, cxx, cyy) = symbol.at(lam)
    points = [(x, y, 1) for x in (1, -1) for y in (1, -1)]
    if cyy:  # edge X = x: a quadratic in Y, with its vertex at -(cy + cxy x) / (2 cyy)
        points += ((x * 2 * cyy, -(cy + cxy * x), 2 * cyy) for x in (1, -1))
    if cxx:
        points += ((-(cx + cxy * y), y * 2 * cxx, 2 * cxx) for y in (1, -1))
    det = 4 * cxx * cyy - cxy * cxy
    if det:  # the one critical point of the gradient's 2x2 linear system
        points.append((cxy * cy - 2 * cyy * cx, cxy * cx - 2 * cxx * cy, det))
    inside = []
    for x, y, q in points:
        if q < 0:
            x, y, q = -x, -y, -q
        if -q <= x <= q and -q <= y <= q:
            inside.append((x, y, q))
    common = math.lcm(*(q for _, _, q in inside))
    scored = []
    for x, y, q in inside:
        value = c0 * q * q + x * (cx * q + cxx * x + cxy * y) + y * (cy * q + cyy * y)
        r = common // q
        scored.append((value * r * r, x * r, y * r))
    return scored, common, scale * common * common


def _envelope(symbol: _ScaledSymbol, lam: float) -> Envelope:
    """Exact extremes of the quadratic symbol over [-1, 1]^2 at ``lam``, from
    the least and the largest of :func:`_scored`."""
    scored, common, denominator = _scored(symbol, lam)
    low, high = min(scored), max(scored)
    # Exactly |value| <= the largest double, for every scored value.
    if max(-low[0], high[0]) > _FLOAT_MAX * denominator:
        raise not_a_double(lam)
    # (X, Y) = (1, 1) is the constant mode, at exactly +1 for any consistent table.
    # Integer true division rounds correctly, as float() of a Fraction does.
    marginal = abs(low[0] / denominator + 1.0) <= _BOUND_SLACK or any(
        abs(value / denominator - 1.0) <= _BOUND_SLACK and (x, y) != (common, common)
        for value, x, y in scored
    )
    return Envelope(
        low=_sample(low, common, denominator), high=_sample(high, common, denominator),
        marginal=marginal,
    )


def _sample(scored: tuple[int, int, int], common: int, denominator: int) -> SymbolSample:
    value, x, y = scored
    return SymbolSample(
        theta1=math.acos(x / common), theta2=math.acos(y / common), value=value / denominator
    )


def envelope(spec: SchemeSpec, lam: float, grid: int | None = None) -> Envelope:
    """Exact extremes of the symbol over all phase angles, with theta in [0, pi].

    ``grid`` is accepted for callers of the former phase-grid scan and
    ignored.  Raises ``ValueError`` for a ``spec`` that is not a
    ``SchemeSpec``, a two-step table outside the precondition of the module
    docstring, or a ``lam`` at which a float coefficient or the symbol's
    range is beyond the doubles.
    """
    check_scheme(spec)
    _scaled_symbol(spec)  # a table outside the analysis is refused whatever lam is
    return _shared_envelope(spec, check_positive(lam, "lambda"))


@functools.lru_cache(maxsize=128)
def _shared_envelope(spec: SchemeSpec, lam: float) -> Envelope:
    """:func:`envelope` for a checked spec and float lam, as ``run()`` has them,
    once per pair: a table outside the analysis is refused first, then a lam
    where a float coefficient overflows, even where the symbol's range is a double."""
    symbol = _scaled_symbol(spec)
    _evaluated(spec, lam)
    return _envelope(symbol, lam)


@functools.lru_cache(maxsize=32)
def _calls(spec: SchemeSpec) -> itertools.count:
    """The count of :func:`lambda_max`'s calls for a spec in the analysis,
    once per spec: ``next`` of it is 0 on the first call."""
    return itertools.count()


def lambda_max(spec: SchemeSpec, tol: float = 1e-6) -> float:
    """Largest stable Courant number, to within tol, by bisection on (0, 2].

    Stability is inclusive: |symbol| = 1 (the marginal double-root case) still
    counts as stable, and :attr:`Envelope.stable` admits |symbol| up to
    1 + 1e-12.  So for a tol below about 1e-12 the result can lie up to
    about 3e-13 above the exact limit: C9 at tol 1e-12 ends 2.1e-13 above
    sqrt(3)/2, and all six named schemes at tol 1e-15 end 1.8e-13 to 2.7e-13
    above theirs.  A tol below the spacing of doubles near the limit
    stops at adjacent doubles.  A tol above the limit halves lambda = tol
    until it is stable, which is then within tol of the limit.  Raises
    ``ValueError`` unless ``spec`` is a ``SchemeSpec`` and 0 < tol < 2, and
    :class:`NeverStableError` when every halving down to the smallest
    double violates the bound.

    Every lambda tried is decided as :attr:`Envelope.stable` decides it.
    A spec's first call takes an exact envelope for each.  From its second
    call on, the spec's exact limits (see the module docstring) decide
    where they suffice: a lambda at or below the exact limit's lower bound
    is stable, one at or above the widened limit's upper bound is not, and
    only one in between, a band of about 1e-12, takes an exact envelope.
    Building the limits costs about one bisection, and a fresh process
    also compiles their module, so a spec asked for once never pays for
    them.  For each named scheme the stable lambdas form the one interval
    (0, lambda*], and a tol of 1e-6 takes at most two envelopes.  A spec
    whose stable lambdas are not one interval has every lambda between its
    first exact limit and its last widened one decided by the envelope, so
    the result is the bisection's either way.
    """
    check_scheme(spec)
    tol = check_positive(tol, "tol")
    if tol >= 2.0:
        raise ValueError(f"tol must be below 2, the top of the search range, got {tol}")
    symbol = _scaled_symbol(spec)
    stable_to, unstable_from = 0.0, math.inf
    if next(_calls(spec)):
        from ._limits import limits  # compiled only where a limit is asked for again

        known = limits(spec)
        stable_to, unstable_from = known.exact[0], known.widened[1]

    def stable(lam: float) -> bool:
        if lam <= stable_to:
            return True
        return lam < unstable_from and _envelope(symbol, lam).stable

    lo, hi = tol, 2.0
    while not stable(lo):  # a tol above the limit: halve it
        lo *= 0.5
        if lo == 0.0:
            raise NeverStableError(f"scheme {spec.name!r} amplifies at all lambda = {tol} / 2**k")
    if stable(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent doubles
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
