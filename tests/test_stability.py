import math
from fractions import Fraction

import numpy as np
import pytest

from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import SchemeSpec, named_scheme
from poisson_stencils.stability import NeverStableError, envelope, lambda_max, symbol

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


def test_min_symbol_envelope_is_monotone_in_lambda(schemes):
    for name in ("P5", "P9", "C9", "P13"):
        spec = schemes[name]
        lows = [envelope(spec, lam, grid=128).low.value for lam in np.linspace(0.05, 1.0, 12)]
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


def test_asymmetric_table_rejected_by_real_symbol_formula():
    # a lone off-center offset leaves an uncancelled sine part
    lopsided = SchemeSpec(
        name="lopsided",
        first_u={(0, 0): LambdaPoly({0: 1})},
        first_v={(0, 0): LambdaPoly({0: 1})},
        two_step={(0, 0): LambdaPoly({0: 1}), (1, 0): LambdaPoly({0: 1})},
    )
    with pytest.raises(ValueError, match="non-real symbol"):
        envelope(lopsided, 0.5)


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
