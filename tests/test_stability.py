import dataclasses
import functools
import math
import re
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import (
    NAMED_SCHEMES,
    SchemeSpec,
    _evaluated,
    generate_scheme,
    named_scheme,
    serialize_tables,
)
from poisson_stencils.simulator import SimConfig, run
from poisson_stencils.quadrature import finite_at
from poisson_stencils import scheme, stability
from poisson_stencils._limits import _UNKNOWN, limits
from poisson_stencils.stability import (
    _BOUND_SLACK,
    _CLASSES,
    Envelope,
    NeverStableError,
    SymbolSample,
    _envelope,
    _scaled_symbol,
    _shared_envelope,
    _symbol_coefficients,
    envelope,
    evaluated,
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


def test_never_stable_search_ends_within_a_second():
    # A tol above the limit halves lambda down to the smallest double before
    # the scheme is blamed; that search stays short, also for a table whose
    # exact values grow with the powers of a tiny lambda.
    for table in ({(0, 0): LambdaPoly({0: 3})}, {(0, 0): LambdaPoly({0: 3, 2: 1})}):
        bad = SchemeSpec(name="amplifier", first_u={}, first_v={}, two_step=table)
        started = time.perf_counter()
        with pytest.raises(NeverStableError, match="amplifies at all lambda"):
            lambda_max(bad)
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("tol", [0.8, 1.5, 1.99])
def test_lambda_max_with_a_tolerance_above_the_limit(schemes, tol):
    # lambda = tol is unstable here; this raised NeverStableError, blaming
    # P5, which is stable for every lambda <= 1/sqrt(2).
    value = lambda_max(schemes["P5"], tol=tol)
    assert envelope(schemes["P5"], value).stable
    assert abs(value - 1 / SQRT2) <= tol


def test_lambda_max_of_a_scheme_stable_on_the_whole_range():
    # The symbol is 1 at every phase and lambda: the search range's top.
    flat = SchemeSpec(name="flat", first_u={}, first_v={}, two_step={(0, 0): LambdaPoly({0: 2})})
    assert lambda_max(flat) == 2.0


def test_empty_two_step_table_is_rejected():
    empty = SchemeSpec(name="empty", first_u={}, first_v={}, two_step={})
    for check in (lambda: envelope(empty, 0.5), lambda: lambda_max(empty)):
        with pytest.raises(ValueError, match="empty two-step table"):
            check()


# The smallest tested lambda at which the exact symbol range leaves the doubles.
FIRST_OVERFLOW = {"P5": 1e154, "C5": 1e154, "C9": 1e154, "P9": 1e103, "P13": 1e77, "C13": 1e77}


def test_envelope_refuses_a_lambda_where_a_float_coefficient_overflows(cold_caches):
    # Near 7.6e153 a float coefficient of C9 overflows while the exact range
    # of its symbol is still a double: envelope refuses that lambda as the
    # march does, cold and warm.
    c9, lam = named_scheme("C9"), 7.6e153
    assert math.isfinite(_envelope(_scaled_symbol(c9), lam).low.value)
    for _ in range(2):
        for check in (envelope, evaluated):
            with pytest.raises(ValueError, match="is not a finite double$"):
                check(c9, lam)


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_huge_lambda_is_a_value_error(name):
    # float() of an exact symbol value, or lam**p, used to end in an
    # OverflowError.  Below that overflow an unstable lambda still marches,
    # and run() refuses the march once its fields overflow: it used to
    # return E = inf or nan.
    spec = named_scheme(name)
    for lam in (1e77, 1e103, 1e154, 1e200, 1e300):
        config = SimConfig(scheme=spec, n=4, n_t=2, lam=lam)
        calls = {
            "envelope": lambda: envelope(spec, lam),
            "symbol": lambda: symbol(spec, lam, 1.0, 0.5),
            "run": lambda: run(config),
        }
        raised = {}
        for what, call in calls.items():
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                try:
                    call()
                except ValueError as exc:
                    raised[what] = str(exc)
        overflows = lam >= FIRST_OVERFLOW[name]
        not_a_double = f"lambda = {lam} gives a scheme value that is not a finite double"
        assert all(raised[what] == not_a_double for what in raised if what != "run")
        assert ("envelope" in raised) == overflows
        assert "symbol" in raised or lam < 1e154
        if overflows:
            assert raised["run"] == not_a_double
        else:
            assert raised["run"].startswith(f"lambda = {lam} overflows scheme {name!r}: ")


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


def test_symbol_checks_realness_before_evaluating_the_table():
    # At lambda = 1e200 the table has no finite coefficients, but a non-real
    # table is refused for that first: lambda, then realness, then the table.
    p5 = named_scheme("P5")
    table = dict(p5.two_step)
    del table[(1, 0)]
    lopsided_p5 = dataclasses.replace(p5, name="P5-1", two_step=table)
    with pytest.raises(ValueError, match="non-real symbol"):
        symbol(lopsided_p5, 1e200, 0.1, 0.2)
    with pytest.raises(ValueError, match="not a finite double"):
        symbol(p5, 1e200, 0.1, 0.2)
    with pytest.raises(ValueError, match="lambda must be positive"):
        symbol(lopsided_p5, math.nan, 0.1, 0.2)


def test_symbol_names_a_non_finite_angle(schemes):
    # A nan angle was blamed on lambda ("lambda = 0.5 gives a scheme value
    # that is not a finite double"), and an infinite one was a bare "math
    # domain error".
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^theta1 must be finite"):
            symbol(schemes["P5"], 0.5, angle, 0.0)
        with pytest.raises(ValueError, match="^theta2 must be finite"):
            symbol(schemes["P5"], 0.5, 0.3, angle)


def test_symbol_refuses_a_bool_angle(schemes):
    # A bool is not a number here, as for lambda and tau: True was taken
    # as the angle 1.0.
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="^theta1 must be a number, got "):
            symbol(schemes["P5"], 0.5, flag, 0.0)
        with pytest.raises(ValueError, match="^theta2 must be a number, got "):
            symbol(schemes["P5"], 0.5, 0.3, flag)


def test_symbol_takes_its_angles_as_their_floats(schemes):
    # The phases were formed from the angles as given, so one numpy float32
    # angle made them float32: 16777217.0 + float32(0) rounds to 16777216.
    for theta1 in (16777217.0, 3.4028235677973366e38):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert symbol(schemes["P5"], 1, theta1, np.float32(0.0)) == symbol(
                schemes["P5"], 1, theta1, 0.0)


@pytest.mark.parametrize("spec", ["P5", None])
@pytest.mark.parametrize("entry", [
    lambda spec: envelope(spec, 0.5),
    lambda spec: lambda_max(spec),
    lambda spec: symbol(spec, 0.5, 0.1, 0.2),
    lambda spec: evaluated(spec, 0.5),
    lambda spec: serialize_tables(spec),
], ids=["envelope", "lambda_max", "symbol", "evaluated", "serialize_tables"])
def test_a_scheme_that_is_not_a_spec_is_refused_by_name(entry, spec):
    # A scheme's name in place of its spec ended in an AttributeError deep
    # inside ("'str' object has no attribute 'two_step'"); each entry point
    # refuses it as SimConfig does.
    with pytest.raises(ValueError, match="^scheme must be a SchemeSpec") as refused:
        SimConfig(scheme=spec, n=4, n_t=2, lam=0.5)
    with pytest.raises(ValueError) as got:
        entry(spec)
    assert str(got.value) == str(refused.value)


def test_symbol_names_angles_whose_phase_overflows(schemes):
    # Finite angles whose phase at the (1, 1) offset overflows to infinity
    # ended in a bare "math domain error" from math.cos.
    for theta1, theta2 in ((1e308, 1e308), (-1e308, -1e308)):
        named = re.escape(f"theta1 = {theta1!r} and theta2 = {theta2!r} give offset (")
        with pytest.raises(ValueError, match=rf"^{named}-?1, -?1\) a phase"):
            symbol(schemes["P9"], 0.5, theta1, theta2)
    # Large angles whose phases stay finite still give a value.
    assert math.isfinite(symbol(schemes["P9"], 0.5, 1e308, -5e307))


def test_lambda_that_rounds_to_zero_is_refused(schemes):
    # lambda is checked as the float it becomes, which here is 0.0.
    for lam in (Fraction(1, 10**400), Decimal("1e-400")):
        for check in (lambda: envelope(schemes["P5"], lam),
                      lambda: symbol(schemes["P5"], lam, 0.1, 0.2),
                      lambda: evaluated(schemes["P5"], lam)):
            with pytest.raises(ValueError, match="lambda must be positive"):
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


# Two small integers per class of offsets (_CLASSES order), which the tests
# turn into coefficient polynomials of the supported quadratic form.
QUADRATIC_WEIGHTS = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=6, max_size=6
)


def quarter_table(weights):
    """The two-step table with (c0 + c2 lam^2) / 4 on each offset of a class
    for its weights (c0, c2), leaving out zero polynomials."""
    two_step = {}
    for (q1, q2), (c0, c2) in zip(_CLASSES, weights):
        poly = LambdaPoly({0: Fraction(c0, 4), 2: Fraction(c2, 4)})
        if poly:
            two_step.update({(s1 * q1, s2 * q2): poly for s1 in (1, -1) for s2 in (1, -1)})
    return two_step


@settings(max_examples=200, deadline=None)
@given(weights=QUADRATIC_WEIGHTS, lam=st.sampled_from((0.25, 0.5, 1.0)))
def test_envelope_of_random_quadratic_symbols(weights, lam):
    # Random tables of the supported form, whose extremes may sit at an edge
    # vertex or in the interior, against the cosine sum on a phase grid.
    two_step = quarter_table(weights)
    assume(two_step)
    spec = SchemeSpec(name="random", first_u={}, first_v={}, two_step=two_step)
    thetas = np.linspace(0.0, math.pi, 97)
    t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
    values = 0.5 * sum(
        poly(lam) * np.cos(q1 * t1 + q2 * t2) for (q1, q2), poly in two_step.items()
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


def test_specs_sharing_a_name_never_share_an_entry(cold_caches):
    # SchemeSpec hashes by name alone, so two P5 tables collide in every
    # cache; equality compares the tables, which keeps their entries apart.
    p5 = named_scheme("P5")
    table = dict(p5.two_step)
    table[(0, 0)] = table[(0, 0)] + LambdaPoly({4: Fraction(1, 7)})
    other = dataclasses.replace(p5, two_step=table)
    assert other.name == p5.name and hash(other) == hash(p5) and other != p5
    for _ in range(2):  # cold, then warm
        for spec in (p5, other):
            fresh = fraction_envelope(_symbol_coefficients(spec), 0.5)
            assert envelope(spec, 0.5) == fresh
            assert evaluated(spec, 0.5)[2] == tuple(
                (offset, poly(0.5)) for offset, poly in spec.two_step.items()
            )
        assert envelope(p5, 0.5) != envelope(other, 0.5)
        assert _symbol_coefficients(p5) != _symbol_coefficients(other)
        assert _scaled_symbol(p5) != _scaled_symbol(other)
        assert evaluated(p5, 0.5) is not evaluated(other, 0.5)
        assert symbol(p5, 0.5, 0.3, 0.2) != symbol(other, 0.5, 0.3, 0.2)


# The caches of (scheme, lambda) values: the float tables and the envelope.
SHARED = (_evaluated, _shared_envelope)


def test_caches_stay_bounded(cold_caches):
    p5 = named_scheme("P5")
    size = max(cache.cache_info().maxsize for cache in SHARED)
    for k in range(size + 50):
        envelope(p5, 0.25 + k / 1024)
    # The caches once per spec.
    per_spec = (_scaled_symbol, limits, scheme._serialized)
    size = max(cache.cache_info().maxsize for cache in per_spec)
    for k in range(size + 50):
        spec = dataclasses.replace(p5, name=f"P5-{k}")
        envelope(spec, 0.5)
        lambda_max(spec)
        serialize_tables(spec)
    for cache in (*per_spec, *SHARED):
        assert cache.cache_info().currsize <= cache.cache_info().maxsize


def test_lambda_max_leaves_the_evaluations_alone(cold_caches):
    # The bisection's one-off lambdas go to _envelope directly: they neither
    # evict nor add (scheme, lambda) entries.
    p5 = named_scheme("P5")
    kept = (evaluated(p5, 0.707), envelope(p5, 0.707))
    before = [cache.cache_info() for cache in SHARED]
    lambda_max(p5)
    assert [cache.cache_info() for cache in SHARED] == before
    assert evaluated(p5, 0.707) is kept[0] and envelope(p5, 0.707) is kept[1]


def test_shared_evaluation_is_immutable(schemes):
    shared = evaluated(schemes["P13"], 0.707)
    assert len(shared) == 3 and isinstance(shared, tuple)
    assert all(isinstance(table, tuple) for table in shared)
    assert all(isinstance(pair, tuple) for table in shared for pair in table)
    env = envelope(schemes["P13"], 0.707)
    for target in (shared, shared[2]):
        with pytest.raises(TypeError):
            target[0] = ((0, 0), 0.0)
    for name, value in (("low", None), ("marginal", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(env, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.low.value = 0.0
    assert evaluated(schemes["P13"], 0.707) is shared
    assert envelope(schemes["P13"], 0.707) is env


def test_refusals_are_never_cached(cold_caches, schemes):
    p5 = schemes["P5"]
    for _ in range(2):
        for lam in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="lambda must be positive"):
                evaluated(p5, lam)
        for check in (evaluated, envelope):
            with pytest.raises(ValueError, match="not a finite double"):
                check(p5, 1e200)
        with pytest.raises(ValueError, match="non-real symbol"):
            envelope(LOPSIDED, 0.5)
    assert [cache.cache_info().currsize for cache in SHARED] == [0, 0]
    assert _scaled_symbol.cache_info().currsize == 1  # P5's, never LOPSIDED's refusal
    # A table outside the exact analysis still has its tables; its envelope
    # raises on every use.
    for _ in range(2):
        assert evaluated(LOPSIDED, 0.5)[2] == tuple(
            (offset, poly(0.5)) for offset, poly in LOPSIDED.two_step.items()
        )
        with pytest.raises(ValueError, match="non-real symbol"):
            envelope(LOPSIDED, 0.5)


@pytest.mark.parametrize("one", [1, 1.0], ids=repr)
def test_a_bool_is_refused_after_its_value_is_cached(cold_caches, one):
    # The checks once ran inside the (scheme, lambda) cache, so after a
    # call at lambda = 1 a True or np.True_ hit the entry and was taken as 1.
    p5 = named_scheme("P5")
    envelope(p5, one)
    evaluated(p5, one)
    symbol(p5, one, 0.3, 1.1)
    for flag in (True, np.True_):
        for check in (lambda: envelope(p5, flag), lambda: evaluated(p5, flag),
                      lambda: symbol(p5, flag, 0.3, 1.1)):
            with pytest.raises(ValueError, match="^lambda must be a number, got "):
                check()


def _exact_value(poly, lam):
    return sum((c * lam**p for p, c in poly.items()), Fraction(0))


def fraction_envelope(coeffs, lam):
    """The envelope in Fraction arithmetic: the oracle of the integer one.

    ``coeffs`` are :func:`_symbol_coefficients`; each candidate point and
    score is a reduced rational, and the extremes are the least and the
    largest (value, x, y).
    """
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
    finite_at(max(-low[0], high[0]), lam)  # it bounds |value| for every scored value
    # (X, Y) = (1, 1) is the constant mode, at exactly +1 for any consistent table.
    marginal = abs(float(low[0]) + 1.0) <= _BOUND_SLACK or any(
        abs(float(value) - 1.0) <= _BOUND_SLACK and (x, y) != (1, 1) for value, x, y in scored
    )
    return Envelope(low=_fraction_sample(*low), high=_fraction_sample(*high), marginal=marginal)


def _fraction_sample(value, x, y):
    return SymbolSample(theta1=math.acos(x), theta2=math.acos(y), value=float(value))


def _outcome(envelope_at, lam):
    """repr of the envelope at lam, which tells -0.0 from 0.0, or the
    type and message of what it raised."""
    try:
        return repr(envelope_at(lam))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def oracle_lambda_max(coeffs, tol):
    """lambda_max's bisection on the Fraction envelope: (limit, each lambda tried)."""
    tried = []

    def stable(lam):
        tried.append(lam)
        return fraction_envelope(coeffs, lam).stable

    lo, hi = tol, 2.0
    while not stable(lo):
        lo *= 0.5
        assert lo > 0.0
    if stable(hi):
        return hi, tried
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo, tried


BISECTION_TOLS = (0.5, 1.9, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17)


@pytest.mark.parametrize("tol", BISECTION_TOLS)
@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_integer_envelope_equals_the_fraction_oracle_on_the_bisection(name, tol):
    spec = named_scheme(name)
    coeffs = _symbol_coefficients(spec)
    limit, tried = oracle_lambda_max(coeffs, tol)
    for lam in tried:
        assert _outcome(functools.partial(_envelope, _scaled_symbol(spec)), lam) == _outcome(
            functools.partial(fraction_envelope, coeffs), lam
        )
    assert lambda_max(spec, tol).hex() == limit.hex()


# Log-uniform over the positive doubles up to 1e300: 2**-1074 is the least.
LOG_UNIFORM_LAMBDA = st.floats(min_value=-1074.0, max_value=math.log2(1e300)).map(
    lambda e: 2.0**e
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(ORACLE_SCHEMES), lam=LOG_UNIFORM_LAMBDA)
def test_integer_envelope_equals_the_fraction_oracle(key, lam):
    # Past about 1e77 the symbol's range leaves the doubles: both raise the
    # same "not a finite double" ValueError.
    spec = oracle_spec(key)
    assert _outcome(functools.partial(_envelope, _scaled_symbol(spec)), lam) == _outcome(
        functools.partial(fraction_envelope, _symbol_coefficients(spec)), lam
    )


RANDOM_POLY = st.dictionaries(
    st.integers(-3, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    max_size=3,
).map(LambdaPoly)


@settings(max_examples=300, deadline=None)
@given(
    polys=st.lists(RANDOM_POLY, min_size=6, max_size=6),
    lam=st.one_of(st.sampled_from((0.25, 0.5, 1.0, 2.0)), LOG_UNIFORM_LAMBDA),
)
def test_integer_envelope_equals_the_fraction_oracle_on_random_tables(polys, lam):
    # Odd, negative and missing powers, signs that put the candidate points
    # anywhere, and the zero coefficients that drop them.
    two_step = {}
    for (q1, q2), poly in zip(((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)), polys):
        if poly:
            two_step.update({(s1 * q1, s2 * q2): poly for s1 in (1, -1) for s2 in (1, -1)})
    assume(two_step)
    spec = SchemeSpec(name="random", first_u={}, first_v={}, two_step=two_step)
    assert _outcome(functools.partial(_envelope, _scaled_symbol.__wrapped__(spec)), lam) == (
        _outcome(functools.partial(fraction_envelope, _symbol_coefficients(spec)), lam)
    )


@pytest.mark.parametrize("excess", [0, 1])
def test_integer_envelope_at_the_largest_double(excess):
    # The symbol is the constant M + excess, M the largest double: the
    # finite check is exact at that edge, as it was on Fractions.
    value = int(sys.float_info.max) + excess
    table = {(0, 0): LambdaPoly({0: 2 * value})}
    spec = SchemeSpec(name="edge", first_u={}, first_v={}, two_step=table)
    outcome = _outcome(functools.partial(_envelope, _scaled_symbol.__wrapped__(spec)), 0.5)
    assert outcome == _outcome(
        functools.partial(fraction_envelope, _symbol_coefficients(spec)), 0.5
    )
    assert isinstance(outcome, tuple) == bool(excess)


def _below_p9_limit(s):
    """s < (3 - sqrt(3)) / 2 for a rational s, decided exactly.

    That is 3 - 2s > sqrt(3): 3 - 2s positive and its square above 3.
    """
    return 3 - 2 * s > 0 and (3 - 2 * s) ** 2 > 3


# below(s) for a rational s: s < lambda*^2.  Every lambda* is irrational, so
# no double lambda has lambda^2 equal to it.
BELOW_THE_LIMIT = {
    "P5": lambda s: s < Fraction(1, 2),
    "C5": lambda s: s < Fraction(1, 2),
    "P13": lambda s: s < Fraction(1, 2),
    "C13": lambda s: s < Fraction(1, 2),
    "C9": lambda s: s < Fraction(3, 4),
    "P9": _below_p9_limit,
}


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_lambda_max_brackets_the_exact_limit(name, tol):
    # lo <= lambda* < lo + tol, decided on exact squares, never in floats.
    # Envelope.stable admits |symbol| up to 1 + 1e-12, so a bisection that
    # fine may end just above lambda*: C9 at tol 1e-12 ends 2.1e-13 above
    # it, where the symbol's least value is -1 - 9.6e-13.
    lo = Fraction(lambda_max(named_scheme(name), tol))
    below = BELOW_THE_LIMIT[name]
    assert below(lo**2) == ((name, tol) != ("C9", 1e-12))
    assert not below((lo + Fraction(tol)) ** 2)


# The six named schemes, then generate_scheme(m) for these m.
INTERVAL_SCHEMES = (*NAMED_SCHEMES, 6, 11, 14, 15)


@pytest.mark.parametrize("key", INTERVAL_SCHEMES)
def test_stable_lambdas_are_one_interval(key):
    # lambda_max bisects as if the stable lambdas were (0, lambda*]: the
    # Sturm counts and the exact probes between the roots show it.
    found = limits(oracle_spec(key))
    assert found.interval
    (a, b), (wide_a, wide_b) = found.exact, found.widened
    assert 0.0 < a < b <= wide_a < wide_b < 2.0


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_exact_limit_lies_between_its_bounds(name):
    # a < lambda* < b, decided on exact squares; a and b are adjacent doubles
    # and the widened limit lies less than 1e-12 above them.
    (a, b), (_, wide_b) = limits(named_scheme(name)).exact, limits(named_scheme(name)).widened
    below = BELOW_THE_LIMIT[name]
    assert below(Fraction(a) ** 2) and not below(Fraction(b) ** 2)
    assert math.nextafter(a, 2.0) == b
    assert wide_b - a < 1e-12


@pytest.fixture
def envelope_calls(monkeypatch):
    """The lambda of each exact envelope that lambda_max takes, in order."""
    calls = []

    def counted(symbol, lam):
        calls.append(lam)
        return _envelope(symbol, lam)

    monkeypatch.setattr(stability, "_envelope", counted)
    return calls


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_lambda_max_calls_the_envelope_only_near_the_limit(name, cold_caches, envelope_calls):
    # The exact limits decide every midpoint outside a band of about 1e-12,
    # which a bisection to 1e-6 enters at most twice: on a cold call, which
    # builds the limits, and on a warm one alike.
    spec = named_scheme(name)
    cold = lambda_max(spec, 1e-6)
    assert len(envelope_calls) <= 2
    envelope_calls.clear()
    assert lambda_max(spec, 1e-6) == cold
    assert len(envelope_calls) <= 2


# Weights that test_envelope_of_random_quadratic_symbols draws, whose
# tables are never stable.
NEVER_STABLE_WEIGHTS = (
    ((2, -4), (4, -7), (-6, -5), (3, -7), (8, -2), (-7, -6)),
    ((5, 5), (-6, -1), (-6, 5), (-7, -5), (-1, -7), (4, -7)),
    ((-1, -7), (-4, 1), (5, -4), (-5, 1), (-3, -5), (-2, 3)),
)


@pytest.mark.parametrize("table", [
    {(0, 0): LambdaPoly({0: 3, 2: 1})},
    *(quarter_table(weights) for weights in NEVER_STABLE_WEIGHTS),
], ids=["amplifier", "random-0", "random-1", "random-2"])
def test_a_never_stable_table_takes_no_envelope_on_its_first_call(table, cold_caches,
                                                                   envelope_calls):
    # Its limits call every lambda in (0, 2] unstable, so the halving from
    # tol down to the smallest double is decided by comparison alone.
    spec = SchemeSpec(name="never", first_u={}, first_v={}, two_step=table)
    with pytest.raises(NeverStableError, match="amplifies at all lambda"):
        lambda_max(spec)
    assert envelope_calls == []


# The corner value of ISLAND is 1 - 10 s + 10 s^2 (s = lambda^2): stable up to
# s = (5 - sqrt(5)) / 10, unstable above, stable again from
# s = (5 + sqrt(5)) / 10 up to s = 1.
ISLAND_WEIGHT = LambdaPoly({2: Fraction(5, 2), 4: Fraction(-5, 2)})
ISLAND = SchemeSpec(
    name="island", first_u={}, first_v={},
    two_step={(0, 0): LambdaPoly({0: 2, 2: -10, 4: 10}),
              **{offset: ISLAND_WEIGHT for offset in ((1, 0), (-1, 0), (0, 1), (0, -1))}},
)


@pytest.mark.parametrize("tol,limit", [
    (1e-3, "0x1.0ce0b43958106p-1"),
    (1e-6, "0x1.0d2c98bbf0dc8p-1"),
    (1e-12, "0x1.0d2ca0da159f0p-1"),
    (1e-15, "0x1.00000000000dep+0"),
    (0.9, "0x1.ccccccccccccdp-1"),
    (0.5, "0x1.c000000000000p-1"),
    (0.3, "0x1.0666666666666p-1"),
])
def test_a_stable_island_keeps_the_bisections_bits(tol, limit):
    # Not one interval, so the envelope decides every midpoint between the
    # first limit and the island's end, and the bisection lands where it did.
    found = limits(ISLAND)
    assert not found.interval
    assert found.exact[0] < 0.5258 and found.widened[1] > 1.0
    for _ in range(2):  # the same on every call
        assert lambda_max(ISLAND, tol).hex() == limit


def plain_lambda_max(spec, tol):
    """lambda_max's bisection as it was before the exact limits: every
    lambda tried is decided by the envelope."""
    symbol = _scaled_symbol(spec)
    lo, hi = tol, 2.0
    while not _envelope(symbol, lo).stable:
        lo *= 0.5
        if lo == 0.0:
            raise NeverStableError(f"scheme {spec.name!r} amplifies at all lambda = {tol} / 2**k")
    if _envelope(symbol, hi).stable:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _envelope(symbol, mid).stable:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=150, deadline=None)
@given(weights=QUADRATIC_WEIGHTS, tol=st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.9)))
def test_lambda_max_keeps_the_plain_bisections_bits(weights, tol):
    # Consistent tables of the supported form: the symbol is
    # 1 + sum_k w_k (T_k - 1) with w_k = (|a_k| + 1)/4 lam^2 + b_k/4 lam^4, so
    # it is stable at small lambda; the centre's pair is not used.
    two_step = {}
    centre = LambdaPoly({0: 2})
    for (q1, q2), (a, b) in zip(_CLASSES[1:], weights[1:]):
        weight = LambdaPoly({2: Fraction(abs(a) + 1, 4), 4: Fraction(b, 4)})
        poly = weight * Fraction(1, 2) if (q1, q2) == (1, 1) else weight
        two_step.update({(s1 * q1, s2 * q2): poly for s1 in (1, -1) for s2 in (1, -1)})
        centre = centre - weight * 2
    two_step[(0, 0)] = centre
    spec = SchemeSpec(name="random", first_u={}, first_v={}, two_step=two_step)
    outcomes = []
    for search in (plain_lambda_max, lambda_max, lambda_max):  # the oracle, then twice on the limits
        try:
            outcomes.append(search(spec, tol).hex())
        except NeverStableError as exc:
            outcomes.append(str(exc))
    assert outcomes[1] == outcomes[2] == outcomes[0]


# The corner values of GOLDEN are s^2 - 3 s -+ s (s^2 - 3 s + 1) / 2 (s =
# lambda^2), and each plus 1 is (s^2 - 3 s + 1)(1 -+ s / 2): both corners
# reach -1 at lambda = (sqrt(5) -+ 1) / 2, irrational roots of two
# polynomials that halving never separates.  Below the first, no value
# reaches -1; past it they leave [-1, 1], and at the second come back to -1.
GOLDEN_EDGE = LambdaPoly({2: Fraction(1, 2), 4: Fraction(-3, 2), 6: Fraction(1, 2)})
GOLDEN = SchemeSpec(
    name="golden", first_u={}, first_v={},
    two_step={(0, 0): LambdaPoly({2: -6, 4: 2}), (1, 0): GOLDEN_EDGE, (-1, 0): GOLDEN_EDGE},
)


def _below_golden_limit(s):
    """s < ((sqrt(5) - 1) / 2)^2 = (3 - sqrt(5)) / 2 for a rational s, decided exactly."""
    return 3 - 2 * s > 0 and (3 - 2 * s) ** 2 > 5


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-12, 1e-15, 0.9])
def test_a_root_that_two_candidates_share_leaves_the_limits_known(tol):
    # The gcd of the two corners' polynomials has one root where their
    # intervals overlap, so they are one root, and the limits are known:
    # the exact one lies between adjacent doubles around (sqrt(5) - 1) / 2,
    # and they bracket where the plain bisection ends, from the envelopes
    # alone and from the limits alike.
    found = limits(GOLDEN)
    (a, b), (_, wide_b) = found.exact, found.widened
    assert _below_golden_limit(Fraction(a) ** 2) and not _below_golden_limit(Fraction(b) ** 2)
    assert math.nextafter(a, 2.0) == b and not found.interval
    results = {search(GOLDEN, tol) for search in (plain_lambda_max, lambda_max, lambda_max)}
    assert len(results) == 1
    assert a - tol < results.pop() < wide_b


# Two distinct roots of the widened family near lambda = 2.9e-13, whose
# polynomials have a constant gcd, lie closer than the grid, so the limits
# stay unknown and the envelope decides every lambda.
NEAR = SchemeSpec(
    name="near", first_u={}, first_v={},
    two_step={
        (0, 0): LambdaPoly({0: 2, 1: 15, 2: -16, 5: Fraction(-5, 2)}),
        **{(q1, 0): LambdaPoly({5: Fraction(5, 4)}) for q1 in (1, -1)},
        **{(q1, q2): LambdaPoly({1: Fraction(-5, 4), 2: 4}) for q1 in (1, -1) for q2 in (1, -1)},
        **{(0, q2): LambdaPoly({1: -5}) for q2 in (2, -2)},
    },
)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-12, 0.9])
def test_unknown_limits_keep_the_bisections_bits(tol, cold_caches):
    cold, warm = lambda_max(NEAR, tol), lambda_max(NEAR, tol)
    assert limits(NEAR) == _UNKNOWN
    assert cold.hex() == warm.hex() == plain_lambda_max(NEAR, tol).hex()


def test_roots_of_two_polynomials_that_share_two_irrational_ones():
    # (z + 2)(z^2 - 3 z + 1) and (2 - z)(z^2 - 3 z + 1): each of
    # (3 -+ sqrt(5)) / 2 is one root, between the root 2 of the second.
    from poisson_stencils._limits import _BITS, _roots

    def quadratic(n):
        z = Fraction(n, 2**_BITS)
        return z * z - 3 * z + 1

    low, two, high = _roots({(2, -5, -1, 1), (-2, 7, -5, 1)}, 0, 4 << _BITS)
    assert two[:2] == (2 << _BITS, 2 << _BITS)
    for lo, hi, _, _ in (low, high):
        assert quadratic(lo) * quadratic(hi) < 0


@pytest.mark.parametrize("table,lam", [
    ({(0, 0): LambdaPoly({0: 2, 2: 10**400})}, "1e-06"),
    ({(0, 0): LambdaPoly({0: 2, -2: 1})}, "3.910318545279494e-155"),
])
def test_lambda_max_refuses_a_symbol_beyond_the_doubles_on_every_call(table, lam):
    # Never stable, so the limits alone would call every lambda unstable and
    # end in NeverStableError; the envelope refuses the lambda where the
    # symbol leaves the doubles, and still decides there.
    spec = SchemeSpec(name="huge", first_u={}, first_v={}, two_step=table)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^lambda = {lam} gives a scheme value that"):
            lambda_max(spec)


@pytest.mark.parametrize("polys,others", [
    # 16 (z - 1/2)(z - 5/8) and 2 (z - 1/2)(z + 7): both find 1/2 exactly.
    ({(5, -18, 16), (-7, 13, 2)}, Fraction(5, 8)),
    # 40 (z - 3/8)(z - 2/5) finds 3/8 exactly, inside the interval of
    # 8 (z - 3/8)(z + 7) around it.
    ({(6, -31, 40), (-21, 53, 8)}, Fraction(2, 5)),
], ids=["two-points", "point-inside"])
def test_roots_of_two_polynomials_that_share_one(polys, others):
    # One root, not two that never separate, which would leave the limits
    # unknown.
    from poisson_stencils._limits import _BITS, _roots

    shared = Fraction(1, 2) if others == Fraction(5, 8) else Fraction(3, 8)
    first, second = _roots(polys, 0, 4 << _BITS)
    assert first[0] == first[1] == shared * 2**_BITS
    assert second[0] <= others * 2**_BITS <= second[1]


def test_double_at_most_is_the_largest():
    # The largest double x with x**g <= z: 0.5 at z = 1/4 and g = 2, the
    # double below it just under 1/4.
    from poisson_stencils._limits import _BITS, _double_at_most

    assert _double_at_most(1 << _BITS - 2, 2) == 0.5
    assert _double_at_most((1 << _BITS - 2) - 1, 2) == math.nextafter(0.5, 0.0)
    assert _double_at_most(3 << _BITS - 2, 1) == 0.75
