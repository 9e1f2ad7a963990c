import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import SchemeSpec, evaluate_table, generate_scheme, named_scheme
from poisson_stencils.simulator import SimConfig, run
from poisson_stencils.stability import (
    NeverStableError,
    _symbol_coefficients,
    envelope,
    lambda_max,
    symbol,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def schemes():
    return {name: named_scheme(name) for name in ("P5", "P9", "C9", "P13")}


def test_symbol_is_one_at_zero_phase(schemes):
    for spec in schemes.values():
        for lam in (0.1, 0.5, 0.707):
            assert symbol(spec, lam, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_five_point_symbol_at_corner_mode(schemes):
    lam = 1.0 / SQRT2
    assert symbol(schemes["P5"], lam, math.pi, math.pi) == pytest.approx(-1.0, abs=1e-12)
    # a = 1 - lam^2 * (2 - cos t1 - cos t2) for the five-point table
    for lam in (0.3, 0.6):
        for t1, t2 in [(0.7, 1.9), (2.2, 0.1)]:
            expected = 1 - lam**2 * (2 - math.cos(t1) - math.cos(t2))
            assert symbol(schemes["P5"], lam, t1, t2) == pytest.approx(expected, abs=1e-12)


def test_nine_point_symbol_at_corner_mode(schemes):
    for lam in (0.4, 0.707, 0.796):
        expected = 1 - 4 * lam**2 + (4.0 / 3.0) * lam**4
        assert symbol(schemes["P9"], lam, math.pi, math.pi) == pytest.approx(
            expected, abs=1e-12
        )


def test_symbol_symmetry_under_swap_and_negation(schemes):
    rng = np.random.default_rng(7)
    for spec in schemes.values():
        for t1, t2 in rng.uniform(0, 2 * math.pi, size=(8, 2)):
            base = symbol(spec, 0.6, t1, t2)
            assert symbol(spec, 0.6, t2, t1) == pytest.approx(base, abs=1e-12)
            assert symbol(spec, 0.6, -t1, -t2) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize(
    "name,expected,tol",
    [
        ("P5", 0.7071067811865476, 1e-4),
        ("P9", math.sqrt((3 - math.sqrt(3)) / 2), 1e-3),
        ("C9", math.sqrt(3) / 2, 1e-4),
        ("P13", 0.7071067811865476, 1e-4),
    ],
)
def test_lambda_max(name, expected, tol, schemes):
    assert lambda_max(schemes[name]) == pytest.approx(expected, abs=tol)


def test_lambda_max_rejects_bad_tolerance(schemes):
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            lambda_max(schemes["P5"], tol=tol)
    # 2 is the top of the search range: a larger tol once blamed the scheme
    # ("amplifies even at lambda = 2.0") or overflowed.
    for tol in (2.0, 3.0, 1e300):
        with pytest.raises(ValueError, match="tol must be below 2"):
            lambda_max(schemes["P5"], tol=tol)


def test_min_symbol_envelope_is_monotone_in_lambda(schemes):
    for name in ("P5", "P9", "C9", "P13"):
        spec = schemes[name]
        lows = [envelope(spec, lam).low.value for lam in np.linspace(0.05, 1.0, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))


def test_envelope_flags_marginal_double_root(schemes):
    env = envelope(schemes["P5"], 1.0 / SQRT2)
    assert env.stable
    assert env.marginal
    env_inside = envelope(schemes["P5"], 0.5)
    assert env_inside.stable and not env_inside.marginal


def test_never_stable_scheme_is_reported():
    bad = SchemeSpec(
        name="amplifier",
        first_u={(0, 0): LambdaPoly({0: 3})},
        first_v={(0, 0): LambdaPoly({0: 1})},
        two_step={(0, 0): LambdaPoly({0: 3})},
    )
    with pytest.raises(NeverStableError):
        lambda_max(bad)


# A lone off-center offset leaves an uncancelled sine part.
LOPSIDED = SchemeSpec(
    name="lopsided",
    first_u={(0, 0): LambdaPoly({0: 1})},
    first_v={(0, 0): LambdaPoly({0: 1})},
    two_step={(0, 0): LambdaPoly({0: 1}), (1, 0): LambdaPoly({0: 1})},
)


def test_asymmetric_table_rejected_by_real_symbol_formula():
    with pytest.raises(ValueError, match="non-real symbol"):
        envelope(LOPSIDED, 0.5)
    with pytest.raises(ValueError, match="non-real symbol"):
        symbol(LOPSIDED, 0.5, 1.0, 0.0)


def test_table_asymmetric_below_float_resolution_is_rejected():
    # The (-1, 0) and (1, 0) entries differ by far less than a float sine
    # residual could show; realness is decided on the exact table.
    p5 = named_scheme("P5")
    nearly = dict(p5.two_step)
    nearly[(-1, 0)] = nearly[(-1, 0)] + LambdaPoly({2: Fraction(1, 10**20)})
    skewed = SchemeSpec(
        name="nearly-p5", first_u=p5.first_u, first_v=p5.first_v, two_step=nearly
    )
    for check in (lambda: envelope(skewed, 0.5), lambda: lambda_max(skewed)):
        with pytest.raises(ValueError, match="non-real symbol"):
            check()


def test_envelope_rejects_nonpositive_lambda(schemes):
    for lam in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be positive"):
            envelope(schemes["P5"], lam)
        with pytest.raises(ValueError, match="lambda must be positive"):
            symbol(schemes["P5"], lam, 0.1, 0.2)


ORACLE_SCHEMES = ("P5", "C5", "P9", "C9", "P13", "C13", 6, 11, 14, 15)


@functools.cache
def oracle_spec(key):
    return named_scheme(key) if isinstance(key, str) else generate_scheme(key)


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(ORACLE_SCHEMES),
    lam=st.floats(min_value=0.0, max_value=1.2, exclude_min=True),
    theta1=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
    theta2=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)
def test_envelope_bounds_the_cosine_sum(key, lam, theta1, theta2):
    # symbol() is the cosine sum over the table, independent of the
    # Chebyshev quadratic behind envelope().
    spec = oracle_spec(key)
    env = envelope(spec, lam)
    assert env.low.value - 1e-12 <= symbol(spec, lam, theta1, theta2) <= env.high.value + 1e-12
    for extreme in (env.low, env.high):
        assert 0.0 <= extreme.theta1 <= math.pi and 0.0 <= extreme.theta2 <= math.pi
        at_angles = symbol(spec, lam, extreme.theta1, extreme.theta2)
        assert at_angles == pytest.approx(extreme.value, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=6, max_size=6),
    lam=st.sampled_from((0.25, 0.5, 1.0)),
)
def test_envelope_of_random_quadratic_symbols(weights, lam):
    # Random tables of the supported form, whose extremes may sit at an edge
    # vertex or in the interior, against the cosine sum on a phase grid.
    two_step = {}
    for (q1, q2), (c0, c2) in zip(((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)), weights):
        poly = LambdaPoly({0: Fraction(c0, 4), 2: Fraction(c2, 4)})
        if poly:
            two_step.update({(s1 * q1, s2 * q2): poly for s1 in (1, -1) for s2 in (1, -1)})
    assume(two_step)
    spec = SchemeSpec(name="random", first_u={}, first_v={}, two_step=two_step)
    thetas = np.linspace(0.0, math.pi, 97)
    t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
    values = 0.5 * sum(
        coeff * np.cos(q1 * t1 + q2 * t2) for (q1, q2), coeff in evaluate_table(two_step, lam)
    )
    env = envelope(spec, lam)
    assert env.low.value <= values.min() + 1e-12
    assert env.high.value >= values.max() - 1e-12
    for extreme in (env.low, env.high):
        at_angles = symbol(spec, lam, extreme.theta1, extreme.theta2)
        assert at_angles == pytest.approx(extreme.value, abs=1e-12)


@pytest.mark.parametrize(
    "name,limit",
    [
        ("P5", 1 / SQRT2),
        ("C5", 1 / SQRT2),
        ("P13", 1 / SQRT2),
        ("C13", 1 / SQRT2),
        ("P9", math.sqrt((3 - math.sqrt(3)) / 2)),
        ("C9", math.sqrt(3) / 2),
    ],
)
def test_envelope_is_sharp_at_the_closed_form_limit(name, limit):
    spec = named_scheme(name)
    assert envelope(spec, limit * (1 - 1e-9)).stable
    assert not envelope(spec, limit * (1 + 1e-9)).stable


def _p5_with(extra):
    p5 = named_scheme("P5")
    table = dict(p5.two_step)
    table.update(extra)
    return SchemeSpec(name="extended", first_u=p5.first_u, first_v=p5.first_v, two_step=table)


def test_table_outside_the_chebyshev_form_is_rejected():
    # Real symbols (q -> -q symmetric) that are not a quadratic in the cosines:
    # one diagonal only, and an offset with |q1| + |q2| = 3.
    diagonal = _p5_with({(1, 1): LambdaPoly({2: 1}), (-1, -1): LambdaPoly({2: 1})})
    knight = LambdaPoly({4: Fraction(1, 12)})
    wide = _p5_with({(2, 1): knight, (-2, 1): knight, (2, -1): knight, (-2, -1): knight})
    requirement = r"unchanged by q1 -> -q1 and by q2 -> -q2 separately, with \|q1\| \+ \|q2\| <= 2"
    for spec in (diagonal, wide):
        with pytest.raises(ValueError, match=requirement):
            envelope(spec, 0.5)
        with pytest.raises(ValueError, match=requirement):
            lambda_max(spec)
    with pytest.raises(ValueError, match=requirement):
        run(SimConfig(scheme=diagonal, n=8, n_t=2, lam=0.5, bc="periodic"))
    # symbol() is the cosine sum and needs a real symbol only.
    p5_value = symbol(named_scheme("P5"), 0.5, 0.3, 0.2)
    assert symbol(diagonal, 0.5, 0.3, 0.2) == pytest.approx(p5_value + 0.25 * math.cos(0.5))


def _at_half_lambda_squared(poly):
    """A LambdaPoly, even in lambda, at lambda^2 = 1/2, exactly."""
    assert all(power % 2 == 0 for power in poly.powers())
    return sum((c * Fraction(1, 2) ** (p // 2) for p, c in poly.items()), Fraction(0))


@pytest.mark.parametrize(
    "name,constant",
    [
        ("P5", 0),
        ("C5", 0),
        ("P13", 0),
        ("C13", 0),
        ("P9", Fraction(1, 12)),
        ("C9", Fraction(1, 6)),
    ],
)
def test_diagonal_symbol_at_half_lambda_squared(name, constant):
    # On theta1 = theta2 at lambda^2 = 1/2 the exact symbol is cos(theta),
    # a(X, X) = X as a polynomial, for P5, C5, P13 and C13: the benchmark's
    # diagonal mode then only accumulates roundoff.  P9 and C9 miss it.
    coefficients = _symbol_coefficients(named_scheme(name))
    c1, cx, cy, cxy, cxx, cyy = map(_at_half_lambda_squared, coefficients)
    diagonal = (c1, cx + cy, cxy + cxx + cyy)  # a(X, X) = c1 + (cx + cy) X + (...) X^2
    assert c1 == constant
    assert (diagonal == (0, 1, 0)) == (constant == 0)
