"""Symmetry and constant preservation of the public steps, for every scheme.

Every bundled table is unchanged by swapping q1 and q2, so a transposed
periodic field steps to the transposed result, and every table's
consistency sums make a constant periodic field stay constant.  The stencil
sums its offsets in table order, which the transpose permutes, so these hold
to roundoff, not bit for bit.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme
from poisson_stencils.simulator import first_step, two_step

ROUNDOFF = 1e-13


@functools.cache
def spec_of(name):
    return named_scheme(name)


def periodic_field(rng, n):
    core = rng.standard_normal((n, n))
    return np.pad(core, ((0, 1), (0, 1)), mode="wrap")


@st.composite
def periodic_cases(draw):
    """A scheme, n, lambda in (0, 1] and three random periodic fields."""
    spec = spec_of(draw(st.sampled_from(NAMED_SCHEMES)))
    n = draw(st.integers(min_value=5, max_value=12))
    lam = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return spec, n, lam, [periodic_field(rng, n) for _ in range(3)]


@settings(max_examples=100, deadline=None)
@given(periodic_cases())
def test_transposed_field_steps_to_transposed_result(case):
    spec, n, lam, (u0, v0, u1) = case
    tau = lam / n
    np.testing.assert_allclose(
        first_step(u0.T, v0.T, spec, lam, tau, "periodic"),
        first_step(u0, v0, spec, lam, tau, "periodic").T,
        rtol=0.0,
        atol=ROUNDOFF,
    )
    np.testing.assert_allclose(
        two_step(u1.T, u0.T, spec, lam, "periodic"),
        two_step(u1, u0, spec, lam, "periodic").T,
        rtol=0.0,
        atol=ROUNDOFF,
    )


@settings(max_examples=100, deadline=None)
@given(periodic_cases(), st.floats(min_value=-10.0, max_value=10.0))
def test_constant_field_stays_constant(case, value):
    spec, n, lam, _ = case
    constant = np.full((n + 1, n + 1), value)
    still = np.zeros((n + 1, n + 1))
    tol = ROUNDOFF * max(1.0, abs(value))
    np.testing.assert_allclose(
        first_step(constant, still, spec, lam, lam / n, "periodic"), constant, rtol=0.0, atol=tol
    )
    np.testing.assert_allclose(
        two_step(constant, constant, spec, lam, "periodic"), constant, rtol=0.0, atol=tol
    )
