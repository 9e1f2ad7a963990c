"""The contract of the public numeric inputs, stated as properties.

Every scalar that the library reads as a real number (lambda, tau, tol and
the phase angles) and the grid sizes of ``SimConfig`` are drawn from ints,
bools, numpy scalars of every kind, ``Fraction``, ``Decimal``, strings,
``None``, nan, infinities, subnormals and huge values.  Then:

- a bool, a complex, a string or ``None`` for a real number is refused with
  a ``ValueError``, one saying it must be a number when nothing else is
  refused;
- any other call returns a finite result or raises ``ValueError``,
  ``DegenerateNormError`` or ``NeverStableError``, and a real number of any
  type gives what its float gives, whatever ran before: each call is made
  first with the floats and then with the values drawn, so a bool meets
  caches warmed at its value;
- no warning appears but ``run()``'s documented one for a Courant number
  outside the stable range.

Random tables, on 1 to 13 offsets within radius 3 and with small rational
polynomials in lambda for coefficients, step any real fields to the bytes
of the reference steps of ``conftest.py``, on every kernel and with no
warning.

Each of the seven ``Separable`` factors of a run returns a value drawn
from every kind a function can return: float64 vectors, scalars of five
types, vectors of other dtypes, read-only, reversed and strided views,
lists and object arrays, arrays that change during the run, and values
that must be refused (wrong shapes; complex, nan or infinite values; str,
datetime and complex object arrays; ints beyond the doubles; generators).
``run()`` on every kernel, and ``relative_l2_error`` for the reference's
factors, then give the bits of the same values as owned float64 vectors,
or a ``ValueError`` naming the first bad factor in field order.

Grids stay at most 7 x 7 and runs at most 4 steps, so the module takes a
few seconds.
"""

import math
import numbers
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import DegenerateNormError, SchemeSpec, named_scheme
from poisson_stencils.simulator import (
    Separable, SimConfig, first_step, relative_l2_error, run, two_step,
)
from poisson_stencils.stability import NeverStableError, envelope, lambda_max, symbol

DOCUMENTED = (ValueError, DegenerateNormError, NeverStableError)

EDGES = (
    0, 1, 1.0, 0.5, -0.0, 5e-324, 1e-3, 1.9, 1e150, 1e308, 10**400, Fraction(10**400, 3),
    Decimal("1e400"), Decimal("snan"), Decimal("nan"), math.nan, math.inf, -math.inf,
    True, False, np.True_, np.False_, np.complex128(0.5 + 3j), 0.5 + 0j, "0.5", None,
)

SCALARS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-10, max_value=10**6),
    st.integers(min_value=-10, max_value=10**6).map(np.int64),
    st.fractions(),
    st.decimals(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.complex_numbers(allow_infinity=False, allow_nan=False).map(np.complex128),
    st.text(max_size=3),
    st.none(),
)

# Grid sizes: any small int, or any scalar that is not an int (so never a
# grid too large to march in a test).
SIZES = st.one_of(
    st.integers(min_value=-1, max_value=6),
    SCALARS.filter(lambda x: isinstance(x, bool) or not isinstance(x, numbers.Integral)),
)

P5 = named_scheme("P5")
# A table outside the exact stability analysis, which the steps still march.
WIDE = SchemeSpec(
    name="wide", first_u=P5.first_u, first_v=P5.first_v,
    two_step={**P5.two_step, **dict.fromkeys(
        [(2, 1), (-2, 1), (2, -1), (-2, -1)], LambdaPoly({4: Fraction(1, 12)}))},
)
SPECS = st.sampled_from([P5, named_scheme("C9"), named_scheme("P13"), WIDE, "P5"])
BCS = st.sampled_from(["dirichlet", "periodic"])


# Offsets within radius 3, and those of one half-plane for the symmetric tables.
OFFSETS = [(q1, q2) for q1 in range(-3, 4) for q2 in range(-3, 4)]
HALF = [q for q in OFFSETS if q > (0, 0)]
# Polynomials of degree at most 2 in lambda, with nonzero coefficients p / q,
# |p| <= 4 and 1 <= q <= 6.
RATIONALS = sorted({Fraction(p, q) for p in range(-4, 5) if p for q in range(1, 7)})
POLYS = st.dictionaries(st.integers(min_value=0, max_value=2), st.sampled_from(RATIONALS),
                        min_size=1, max_size=3).map(LambdaPoly)


@st.composite
def stencil_tables(draw):
    """A table of 1 to 13 distinct offsets, unchanged by q -> -q or not."""
    if draw(st.booleans()):
        table = {}
        for q1, q2 in draw(st.lists(st.sampled_from(HALF), min_size=1, max_size=6, unique=True)):
            table[q1, q2] = table[-q1, -q2] = draw(POLYS)
        if draw(st.booleans()):
            table[0, 0] = draw(POLYS)
        return table
    offsets = draw(st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=13, unique=True))
    return {offset: draw(POLYS) for offset in offsets}


def is_number(x) -> bool:
    """The library's rule: a real number is a ``numbers.Real`` or a ``Decimal``, not a bool."""
    return not isinstance(x, (bool, np.bool_)) and isinstance(x, (numbers.Real, Decimal))


def as_float(x):
    """``x``'s float where it has one (a bool's or a number's), else ``x``."""
    if isinstance(x, (bool, np.bool_)) or is_number(x):
        try:
            return float(x)
        except (OverflowError, ValueError):
            return math.nan
    return x


def fingerprint(result):
    """The bits of a result, after checking that it is finite."""
    if isinstance(result, np.ndarray):
        assert np.isfinite(result).all(), result
        return result.tobytes()
    if isinstance(result, float):
        assert math.isfinite(result), result
        return result.hex()
    if hasattr(result, "per_step_errors"):  # a SimReport
        assert math.isfinite(result.error), result.error
        assert all(math.isfinite(e) or math.isnan(e) for e in result.per_step_errors)
        return [e.hex() for e in (result.error, *result.per_step_errors)]
    low, high = result.low.value, result.high.value  # an Envelope
    assert math.isfinite(low) and math.isfinite(high), result
    return repr(result)


def outcome(call, *args):
    """('ok', fingerprint) or (exception type, message), with no warning but
    ``run()``'s stable-range one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("ok", fingerprint(call(*args)))
        except DOCUMENTED as error:
            got = (type(error), str(error))
    for warning in caught:
        assert call is run_config and issubclass(warning.category, UserWarning), warning
        assert "outside the stable range" in str(warning.message), warning
    return got


def check_contract(call, reals, *rest):
    """Call with the floats of ``reals``, then with ``reals``; ``rest`` as is."""
    warm = outcome(call, *map(as_float, reals), *rest)
    got = outcome(call, *reals, *rest)
    if not all(is_number(x) for x in reals):
        assert got[0] is ValueError, got
        if warm[0] == "ok":  # nothing else is refused
            assert " must be a number, got " in got[1], got
    elif got[0] == "ok" or warm[0] == "ok":
        assert got == warm
    else:
        assert got[0] is warm[0]


def run_config(lam, spec, n, n_t, bc):
    return run(SimConfig(scheme=spec, n=n, n_t=n_t, lam=lam, bc=bc))


@settings(max_examples=150, deadline=None)
@given(lam=SCALARS, spec=SPECS, n=SIZES, n_t=SIZES, bc=BCS)
def test_simconfig_and_run(lam, spec, n, n_t, bc):
    check_contract(run_config, [lam], spec, n, n_t, bc)


@settings(max_examples=150, deadline=None)
@given(lam=SCALARS, tau=SCALARS, spec=SPECS, bc=BCS, data=st.data())
def test_first_step_and_two_step(lam, tau, spec, bc, data):
    size = data.draw(st.integers(min_value=3, max_value=7))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    fields = [data.draw(arrays(np.float64, (size, size), elements=finite)) for _ in range(2)]

    def first(lam, tau):
        return first_step(*fields, spec, lam, tau, bc)

    check_contract(first, [lam, tau])
    check_contract(lambda lam: two_step(*fields, spec, lam, bc), [lam])


@settings(max_examples=200, deadline=None)
@given(lam=SCALARS, theta1=SCALARS, theta2=SCALARS, spec=SPECS)
def test_envelope_and_symbol(lam, theta1, theta2, spec):
    check_contract(lambda lam: envelope(spec, lam), [lam])
    check_contract(lambda *reals: symbol(spec, *reals), [lam, theta1, theta2])


@settings(max_examples=100, deadline=None)
@given(tol=SCALARS.filter(lambda x: not (is_number(x) and 0.0 < as_float(x) < 1e-3)),
       spec=SPECS)
def test_lambda_max(tol, spec):
    check_contract(lambda tol: lambda_max(spec, tol), [tol])


@settings(max_examples=100, deadline=None)
@given(tables=st.tuples(*[stencil_tables()] * 3),
       lam=st.floats(min_value=1e-3, max_value=2.0), tau=st.floats(min_value=-2.0, max_value=2.0),
       n=st.integers(min_value=2, max_value=7), bc=BCS, data=st.data())
def test_random_tables_step_to_the_reference_bytes(kernels, reference_step, tables, lam, tau, n,
                                                   bc, data):
    spec = SchemeSpec("random", *tables)
    finite = st.floats(min_value=-1e3, max_value=1e3)
    u, w = (data.draw(arrays(np.float64, (n + 1, n + 1), elements=finite)) for _ in range(2))
    isa, path = data.draw(st.sampled_from(kernels))
    with warnings.catch_warnings(record=True) as caught, path():
        warnings.simplefilter("always")
        first, two = first_step(u, w, spec, lam, tau, bc), two_step(u, w, spec, lam, bc)
    assert not caught, [str(warning.message) for warning in caught]
    assert first.tobytes() == reference_step(spec, lam, bc, u, w, tau).tobytes(), isa
    assert two.tobytes() == reference_step(spec, lam, bc, u, w).tobytes(), isa


# The factors of a run in field order, the order in which they are checked.
FACTORS = ("initial_u.x1", "initial_u.x2", "initial_v.x1", "initial_v.x2",
           "exact.x1", "exact.x2", "exact.t")


def _shared(value):
    """A function that returns one object, ``value``, at every call."""
    return lambda: value


def _read_only(values):
    values = values.copy()
    values.flags.writeable = False
    return _shared(values)


def _scalar(draw, base):
    x = draw(st.one_of(st.floats(-2, 2), st.floats(-2, 2).map(np.float64), st.integers(-3, 3),
                       st.fractions(-2, 2, max_denominator=8), st.booleans()))
    return _shared(x), np.full(len(base), float(x))


def _not_finite(draw, base):
    values = base.copy()
    values[draw(st.integers(0, len(base) - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                         -math.inf]))
    return _shared(values), None


# kind: (draw, base) -> (returns, want).  returns() gives what the factor
# returns at the len(base) points, and want is the owned float64 vector of
# its values (REAL), or None for a value that must be refused (REFUSED).
# base is a float64 vector with |values| <= 2, so that no product or error
# sum overflows.
REAL = {
    "float64": lambda draw, base: (base.copy, base),
    "scalar": _scalar,
    "float32": lambda draw, base: (_shared(base.astype(np.float32)),
                                   base.astype(np.float32).astype(float)),
    "int": lambda draw, base: (_shared(np.rint(base).astype(np.int64)), np.rint(base)),
    "bool": lambda draw, base: (_shared(base > 0), (base > 0).astype(float)),
    "read-only": lambda draw, base: (_read_only(base), base),
    "reversed": lambda draw, base: (lambda: base[::-1].copy()[::-1], base),
    "strided": lambda draw, base: (lambda: np.repeat(base, 2)[::2], base),
    "list": lambda draw, base: (base.tolist, base),
    "object": lambda draw, base: (lambda: np.array([Fraction(x) for x in base]), base),
    "changing": lambda draw, base: (_shared(base.copy()), base),  # on_step doubles it
}
REFUSED = {
    "wrong shape": lambda draw, base: (
        _shared(draw(st.sampled_from([base[:, None], np.append(base, 0.5), base[:-1]]))), None),
    "complex": lambda draw, base: (
        _shared(draw(st.sampled_from([base + 0j, base * 1j, 0.5 + 0j, np.complex128(1j)]))),
        None),
    "not finite": _not_finite,
    "str": lambda draw, base: (_shared(base.astype(str)), None),
    "datetime": lambda draw, base: (_shared(np.zeros(len(base), "datetime64[D]")), None),
    "complex object": lambda draw, base: (
        lambda: np.array([complex(x, 1) for x in base], dtype=object), None),
    "huge int": lambda draw, base: (
        _shared(draw(st.sampled_from([10**400, [10**400] * len(base)]))), None),
    "generator": lambda draw, base: (lambda: (x for x in base), None),
}
RETURNS = REAL | REFUSED


@st.composite
def factor_returns(draw, size, kinds):
    """(kind, returns, want) of ``RETURNS`` for a factor of ``size`` points."""
    kind = draw(st.sampled_from(kinds))
    base = draw(arrays(np.float64, size, elements=st.floats(-2, 2)))
    return (kind, *RETURNS[kind](draw, base))


def separable_outcome(call, *args):
    """('ok', fingerprint) or (exception type, message), with no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("ok", fingerprint(call(*args)))
        except (ValueError, DegenerateNormError) as error:
            got = (type(error), str(error))
    assert not caught, [str(warning.message) for warning in caught]
    return got


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), n_t=st.integers(min_value=1, max_value=4),
       bc=BCS, data=st.data())
def test_separable_factors_give_the_bits_of_owned_vectors(kernels, n, n_t, bc, data):
    kinds = data.draw(st.sampled_from([list(REAL), list(RETURNS)]))  # REAL alone in half the runs
    drawn = {name: data.draw(factor_returns(n_t if name == "exact.t" else n + 1, kinds),
                             label=name)
             for name in FACTORS}
    bad = [name for name in FACTORS if drawn[name][2] is None]
    exact_bad = [name for name in bad if name.startswith("exact.")]
    changing = [(returns(), want) for kind, returns, want in drawn.values() if kind == "changing"]

    def double(k, field):
        for values, _ in changing:
            values *= 2.0

    def fields(factor):
        """The three fields of a run, ``factor(name)`` for each factor."""
        return {
            "initial_u": Separable(factor("initial_u.x1"), factor("initial_u.x2")),
            "initial_v": Separable(factor("initial_v.x1"), factor("initial_v.x2")),
            "exact": Separable(factor("exact.x1"), factor("exact.x2"), factor("exact.t")),
        }

    def sampled(call, *args):
        """The outcome of ``call(*args)`` with each changing array at its drawn values."""
        for values, want in changing:
            values[...] = want
        return separable_outcome(call, *args)

    got = fields(lambda name: lambda points, returns=drawn[name][1]: returns())
    owned = fields(lambda name: lambda points, want=drawn[name][2]: np.array(want))
    config = SimConfig(scheme=P5, n=n, n_t=n_t, lam=0.5, bc=bc, **got)
    computed = [np.ones((n + 1, n + 1))] * n_t
    for isa, path in kernels:
        with path():
            ran = sampled(run, config, double)
            if not bad:
                assert ran == sampled(run, replace(config, **owned)), isa
        if bad:
            assert ran[0] is ValueError and ran[1].startswith(f"{bad[0]} must "), (isa, ran)
    error = sampled(relative_l2_error, computed, got["exact"], config.tau)
    if exact_bad:
        assert error[0] is ValueError and error[1].startswith(f"{exact_bad[0]} must "), error
    else:
        assert error == sampled(relative_l2_error, computed, owned["exact"], config.tau)
