"""Exact unit-disc averages of scaled monomials for the wave-update operators.

Poisson's formula writes the solution of the 2D wave equation through one
weighted disc mean M_t: u(t) = d/dt(t M_t[phi]) + t M_t[psi].  The velocity
operator B is that mean (per unit time-step); the displacement operator is
A = d/dlam(lam B), Poisson's identity.  On a monomial in grid-scaled
coordinates the mean collapses to a single power of the Courant number with a
rational double-factorial coefficient, which is what :func:`b_on_monomial`
returns; :func:`a_on_monomial` and :func:`a_on_polynomial` apply the identity
to it.  A direct numerical quadrature of the defining integrals is provided
as an independent oracle.
"""

from __future__ import annotations

import math
import numbers
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping

from .interpolation import Monomial

_DISC_START_ORDER = 64  # Gauss-Legendre order of the first disc-quadrature rule
_DISC_AGREE_TOL = 1e-13


def check_finite(value: float, what: str, rule: str = "finite") -> float:
    """``value`` as a float; ``ValueError`` ("``what`` must be ``rule``") unless finite.

    Only a ``numbers.Real`` or a ``Decimal`` is a number here: anything else,
    a bool or a complex included, is a ``ValueError`` before anything casts it.
    """
    # float and int come first, so that they skip the slower numbers.Real check.
    if isinstance(value, bool) or not isinstance(value, (float, int, Decimal, numbers.Real)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except (OverflowError, ValueError):  # an int beyond the doubles, a Decimal sNaN
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{what} must be {rule}, got {_shown(value, number)}")
    return number


def check_positive(value: float, what: str) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite and above zero.

    Callers keep the float, so that no other numeric type reaches a table.
    """
    number = check_finite(value, what, "positive and finite")
    if not number > 0:
        raise ValueError(f"{what} must be positive and finite, got {_shown(value, number)}")
    return number


def _shown(value, number: float) -> str:
    """``value`` in a refusal: an int or ``Fraction`` past 64 bits, or a
    finite ``Decimal`` of more than 20 digits, by its type, not its digits."""
    if isinstance(value, numbers.Rational):
        wide = max(abs(value.numerator), value.denominator) >> 64
    else:
        wide = isinstance(value, Decimal) and value.is_finite() and len(value.as_tuple().digits) > 20
    if wide:
        kind = "an int" if isinstance(value, int) else f"a {type(value).__name__}"
        fate = f"that rounds to {number}" if math.isfinite(number) else "beyond the doubles"
        return f"{kind} {fate}"
    return str(value)


def finite_at(value, lam: float) -> float:
    """``value``, a number reached at Courant number ``lam``, as a finite double.

    Raises ``ValueError`` naming ``lam`` when it is nan or beyond the
    doubles, as a coefficient or a symbol value can be at a huge ``lam``.
    """
    if not abs(value) <= sys.float_info.max:
        raise not_a_double(lam)
    return float(value)


def not_a_double(lam: float) -> ValueError:
    """The error of :func:`finite_at` for a value that is nan or beyond the doubles."""
    return ValueError(f"lambda = {lam} gives a scheme value that is not a finite double")


class LambdaPoly:
    """Univariate polynomial in the Courant number with exact rational coefficients.

    Immutable; zero coefficients are never stored.  Supports addition,
    subtraction, scaling by integers or Fractions, evaluation at a float (a
    ``ValueError`` unless the value is a finite double), and exact
    comparison (also against bare numbers, read as constants).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for power, value in coeffs.items():
                value = Fraction(value)
                if value:
                    clean[int(power)] = value
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaPoly is immutable")

    def __reduce__(self):
        return LambdaPoly, (self._coeffs,)

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "LambdaPoly":
        return cls({0: Fraction(value)})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def powers(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._coeffs)
        for p, c in other._coeffs.items():
            merged[p] = merged.get(p, Fraction(0)) + c
        return LambdaPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly({p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return LambdaPoly({p: c * scalar for p, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __call__(self, lam: float) -> float:
        try:
            value = sum(float(c) * lam**p for p, c in sorted(self._coeffs.items()))
        except OverflowError:  # lam**p beyond the doubles
            value = math.inf
        return finite_at(value, lam)

    def __repr__(self):
        if not self._coeffs:
            return "LambdaPoly(0)"
        terms = " + ".join(
            f"({c})*lam**{p}" if p else f"({c})" for p, c in sorted(self._coeffs.items())
        )
        return f"LambdaPoly({terms})"


def _as_poly(value) -> "LambdaPoly":
    if isinstance(value, LambdaPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LambdaPoly({0: value})
    return NotImplemented


def double_factorial(k: int) -> int:
    """k!! with the conventions (-1)!! = 1 and 0!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial requires k >= -1, got {k}")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def b_on_monomial(mu: Monomial) -> LambdaPoly:
    """Exact velocity-operator value (the weighted disc mean) on a scaled monomial.

    Zero when either exponent is odd; otherwise (a1-1)!!(a2-1)!!/(a1+a2+1)!!
    times lam**(a1+a2).
    """
    a1, a2 = mu
    if a1 < 0 or a2 < 0:
        raise ValueError(f"exponents must be nonnegative, got {mu}")
    if a1 % 2 or a2 % 2:
        return LambdaPoly.zero()
    coeff = Fraction(
        double_factorial(a1 - 1) * double_factorial(a2 - 1),
        double_factorial(a1 + a2 + 1),
    )
    return LambdaPoly({a1 + a2: coeff})


def b_on_polynomial(poly: Mapping[Monomial, Fraction]) -> LambdaPoly:
    """Linear extension of :func:`b_on_monomial` to a sparse polynomial."""
    total = LambdaPoly.zero()
    for mu, coeff in poly.items():
        total = total + b_on_monomial(mu) * Fraction(coeff)
    return total


def poisson_identity(velocity: LambdaPoly) -> LambdaPoly:
    """Displacement weight d/dlam(lam * B) of a velocity weight B."""
    return LambdaPoly({p: c * (p + 1) for p, c in velocity.items()})


def a_on_monomial(mu: Monomial) -> LambdaPoly:
    """Exact displacement-operator value on a scaled monomial."""
    return poisson_identity(b_on_monomial(mu))


def a_on_polynomial(poly: Mapping[Monomial, Fraction]) -> LambdaPoly:
    """Exact displacement-operator value on a sparse polynomial."""
    return poisson_identity(b_on_polynomial(poly))


def _disc_average(integrand) -> float:
    """Weighted unit-disc average (1/2pi) * integral of f(z)/sqrt(1-|z|^2).

    Polar coordinates with r = sin(phi) remove the boundary singularity:
    the weight and the Jacobian combine into a plain sin(phi) factor, leaving
    a smooth integrand on [0, pi/2] x [0, 2pi).  Tensor Gauss-Legendre rules
    are doubled until two successive refinements agree to ``_DISC_AGREE_TOL``.
    The oracle alone uses numpy, so it imports it here: the exact operators
    never load it.
    """
    import numpy as np

    previous = None
    order = _DISC_START_ORDER
    for _ in range(6):
        x, w = np.polynomial.legendre.leggauss(order)
        phi = (x + 1.0) * (np.pi / 4.0)
        w_phi = w * (np.pi / 4.0)
        theta = (x + 1.0) * np.pi
        w_theta = w * np.pi
        p, t = np.meshgrid(phi, theta, indexing="ij")
        r = np.sin(p)
        values = integrand(r * np.cos(t), r * np.sin(t)) * np.sin(p)
        total = float((w_phi[:, None] * w_theta[None, :] * values).sum() / (2.0 * np.pi))
        if previous is not None and abs(total - previous) <= _DISC_AGREE_TOL:
            return total
        previous = total
        order *= 2
    return previous


def quad_oracle(mu: Monomial, lam: float) -> float:
    """Numerical disc quadrature of the displacement operator on a monomial.

    Evaluates the defining integral directly, including the gradient term,
    which is formed by differentiating the monomial analytically.  Intended
    as an independent check of :func:`a_on_monomial`; absolute accuracy is at
    quadrature level (~1e-12).
    """
    lam = check_positive(lam, "lambda")
    a1, a2 = mu

    def integrand(z1, z2):
        u = lam * z1
        v = lam * z2
        total = u**a1 * v**a2
        if a1:
            total = total + a1 * lam * z1 * u ** (a1 - 1) * v**a2
        if a2:
            total = total + a2 * lam * z2 * u**a1 * v ** (a2 - 1)
        return total

    return _disc_average(integrand)


def quad_oracle_b(mu: Monomial, lam: float) -> float:
    """Numerical disc quadrature of the velocity operator (per unit time-step).

    Same weight as :func:`quad_oracle` but without the gradient term; checks
    :func:`b_on_monomial`.
    """
    lam = check_positive(lam, "lambda")
    a1, a2 = mu

    def integrand(z1, z2):
        return (lam * z1) ** a1 * (lam * z2) ** a2

    return _disc_average(integrand)
