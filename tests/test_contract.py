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

Grids stay at most 7 x 7 and runs at most 4 steps, so the module takes a
few seconds.
"""

import math
import numbers
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import DegenerateNormError, SchemeSpec, named_scheme
from poisson_stencils.simulator import SimConfig, first_step, run, two_step
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

