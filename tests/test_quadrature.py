import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils.quadrature import (
    LambdaPoly,
    a_on_monomial,
    a_on_polynomial,
    b_on_monomial,
    b_on_polynomial,
    double_factorial,
    quad_oracle,
    quad_oracle_b,
)

ORACLE_LAMBDAS = (0.25, 0.5, 0.707, 0.796)
EVEN_PAIRS = [
    (a1, a2)
    for a1 in range(0, 9, 2)
    for a2 in range(0, 9, 2)
    if a1 + a2 <= 8
]


@pytest.mark.parametrize("k,expected", [(-1, 1), (0, 1), (5, 15), (6, 48), (7, 105)])
def test_double_factorial(k, expected):
    assert double_factorial(k) == expected


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


class TestLambdaPoly:
    def test_zero_coefficients_are_dropped(self):
        poly = LambdaPoly({2: Fraction(0), 4: Fraction(1, 3)})
        assert poly.coeffs == {4: Fraction(1, 3)}

    def test_arithmetic_and_evaluation(self):
        p = LambdaPoly({0: 1, 2: -2})
        q = LambdaPoly({2: 2, 4: Fraction(1, 3)})
        assert (p + q) == LambdaPoly({0: 1, 4: Fraction(1, 3)})
        assert (p - p) == LambdaPoly.zero()
        assert 2 * p == LambdaPoly({0: 2, 2: -4})
        assert p * Fraction(1, 2) == LambdaPoly({0: Fraction(1, 2), 2: -1})
        assert p(0.5) == pytest.approx(1 - 2 * 0.25)

    def test_scalar_comparison_and_sum(self):
        assert LambdaPoly({0: 1}) == 1
        assert sum([LambdaPoly({2: 1}), LambdaPoly({2: -1})]) == 0

    def test_is_immutable(self):
        poly = LambdaPoly({2: 1})
        with pytest.raises(AttributeError, match="immutable"):
            poly._coeffs = {}
        with pytest.raises(AttributeError, match="immutable"):
            poly.extra = 1
        assert poly == LambdaPoly({2: 1})

    def test_evaluation_beyond_the_doubles_is_a_value_error(self):
        # lam**p raised OverflowError, and a product past the doubles gave inf.
        cases = [({4: 1}, 1e100), ({2: 1}, 1e200), ({0: 1, 2: 10**300}, 1e10), ({2: 1}, math.nan)]
        for coeffs, lam in cases:
            message = re.escape(f"lambda = {lam} gives a scheme value")
            with pytest.raises(ValueError, match=message):
                LambdaPoly(coeffs)(lam)
        assert LambdaPoly({2: 1})(1e150) == 1e150**2

    def test_stored_zeros_do_not_change_equality_or_hash(self):
        third = LambdaPoly({2: Fraction(1, 3), 0: 0})
        assert third == LambdaPoly({2: Fraction(1, 3)})
        assert hash(third) == hash(LambdaPoly({2: Fraction(1, 3)}))
        zero = LambdaPoly({1: 0})
        assert zero == 0 and not zero


def test_b_on_monomial_rejects_negative_exponents():
    for mu in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            b_on_monomial(mu)


def test_a_on_monomial_known_values():
    assert a_on_monomial((0, 0)) == 1
    assert a_on_monomial((1, 1)) == 0
    assert a_on_monomial((2, 2)) == LambdaPoly({4: Fraction(1, 3)})
    assert a_on_monomial((2, 0)) == LambdaPoly({2: 1})
    assert a_on_monomial((4, 2)) == LambdaPoly({6: Fraction(1, 5)})


def test_b_on_monomial_known_values():
    assert b_on_monomial((0, 0)) == 1
    assert b_on_monomial((2, 0)) == LambdaPoly({2: Fraction(1, 3)})
    assert b_on_monomial((2, 2)) == LambdaPoly({4: Fraction(1, 15)})


def test_odd_exponents_annihilate():
    for a1 in range(7):
        for a2 in range(7):
            if a1 % 2 or a2 % 2:
                assert a_on_monomial((a1, a2)) == 0
                assert b_on_monomial((a1, a2)) == 0


def test_velocity_value_is_scaled_displacement_value():
    # B/tau = A / (a1 + a2 + 1) on even monomials, zero wherever A is zero
    for a1 in range(0, 9):
        for a2 in range(0, 9):
            expected = a_on_monomial((a1, a2)) * Fraction(1, a1 + a2 + 1)
            assert b_on_monomial((a1, a2)) == expected


def test_displacement_value_keeps_its_closed_form():
    # Poisson's identity reproduces (a1-1)!!(a2-1)!!/(a1+a2-1)!! lam^(a1+a2)
    for a1, a2 in EVEN_PAIRS:
        coeff = Fraction(
            double_factorial(a1 - 1) * double_factorial(a2 - 1), double_factorial(a1 + a2 - 1)
        )
        assert a_on_monomial((a1, a2)) == LambdaPoly({a1 + a2: coeff})


def test_produced_polynomials_have_even_powers_only():
    for mu in EVEN_PAIRS:
        for poly in (a_on_monomial(mu), b_on_monomial(mu)):
            assert all(p % 2 == 0 for p in poly.powers())


def test_a_on_polynomial_five_point_center():
    # even part of the five-point center basis function
    phi = {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 0): Fraction(-1), (0, 2): Fraction(-1)}
    assert a_on_polynomial(phi) == LambdaPoly({0: 1, 2: -2})
    assert b_on_polynomial(phi) == LambdaPoly({0: 1, 2: Fraction(-2, 3)})


def test_a_on_polynomial_nine_point_center():
    phi = {(0, 0): Fraction(1), (2, 0): Fraction(-1), (0, 2): Fraction(-1), (2, 2): Fraction(1)}
    assert a_on_polynomial(phi) == LambdaPoly({0: 1, 2: -2, 4: Fraction(1, 3)})


def test_nine_point_corner_velocity_value():
    corner = {(2, 2): Fraction(1, 4)}
    assert b_on_polynomial(corner) == LambdaPoly({4: Fraction(1, 60)})


def test_on_polynomial_of_zero_is_zero():
    assert a_on_polynomial({}) == 0
    assert b_on_polynomial({}) == 0


def test_oracle_normalization_and_odd_symmetry():
    for lam in (0.3, 0.707, 1.0):
        assert quad_oracle((0, 0), lam) == pytest.approx(1.0, abs=1e-12)
        assert quad_oracle_b((0, 0), lam) == pytest.approx(1.0, abs=1e-12)
    assert quad_oracle((1, 0), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_closed_form_for_square_monomial():
    lam = 0.707
    assert quad_oracle((2, 2), lam) == pytest.approx(lam**4 / 3, abs=1e-10)


def test_oracle_rejects_nonpositive_lambda():
    for oracle in (quad_oracle, quad_oracle_b):
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be positive"):
                oracle((0, 0), lam)


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_oracle_agreement_even_pairs(lam):
    for mu in EVEN_PAIRS:
        assert abs(a_on_monomial(mu)(lam) - quad_oracle(mu, lam)) <= 1e-9
        assert abs(b_on_monomial(mu)(lam) - quad_oracle_b(mu, lam)) <= 1e-9


fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
polynomials = st.dictionaries(monomials, fractions, max_size=4)


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_linearity(p, q):
    merged = dict(p)
    for mu, c in q.items():
        merged[mu] = merged.get(mu, Fraction(0)) + c
    assert a_on_polynomial(merged) == a_on_polynomial(p) + a_on_polynomial(q)
    assert b_on_polynomial(merged) == b_on_polynomial(p) + b_on_polynomial(q)
