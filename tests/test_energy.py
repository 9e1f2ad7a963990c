"""Conservation of the discrete energy of the two-step update.

On a periodic grid, u^{k+1} = S u^k - u^{k-1} with a table symmetric under
q -> -q (a self-adjoint S) conserves

    E_k = ||u^k||^2 - <u^{k+1}, u^{k-1}>

exactly: E_{k+1} - E_k = <u^{k+1} - u^{k-1}, u^{k+1} + u^{k-1} - S u^k> = 0.
The stability analysis checks that symmetry on the exact tables, so every
bundled scheme must keep E_k constant up to roundoff for any field.  A
Dirichlet grid is the odd extension of a periodic one, on which S stays
self-adjoint, so E_k summed over the interior is conserved too.

Its sign is the stability bound: per Fourier mode E_k is the form
|x|^2 + |y|^2 - 2 a Re(x conj(y)) in the mode's amplitudes x, y, with a the
symbol, so E_k >= 0 for every field exactly when |a| <= 1.  (Trefethen,
*Finite Difference and Spectral Methods for ODEs and PDEs*, ch. 4.)
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme
from poisson_stencils.simulator import two_step
from poisson_stencils.stability import lambda_max

STEPS = 24


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(NAMED_SCHEMES),
    n=st.integers(min_value=5, max_value=12),
    lam=st.floats(min_value=0.0, max_value=0.7, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bc=st.sampled_from(("dirichlet", "periodic")),
)
def test_discrete_energy_is_conserved(name, n, lam, seed, bc):
    spec = named_scheme(name)
    rng = np.random.default_rng(seed)
    fields = list(rng.standard_normal((2, n + 1, n + 1)))
    first = 0
    if bc == "dirichlet":  # a zero ring, and E_k over the interior
        first = 1
        for u in fields:
            u[[0, -1], :] = 0.0
            u[:, [0, -1]] = 0.0
    for _ in range(STEPS):
        fields.append(two_step(fields[-1], fields[-2], spec, lam, bc))
    core = [u[first:n, first:n].ravel() for u in fields]
    energies = [
        core[k] @ core[k] - core[k + 1] @ core[k - 1] for k in range(1, len(core) - 1)
    ]
    scale = max(u @ u for u in core)
    # Each step adds a few roundoffs of the largest squared norm.
    assert np.ptp(energies) <= 64 * STEPS * np.finfo(float).eps * scale


@functools.cache
def limit_of(name):
    return lambda_max(named_scheme(name))


def checkerboard(n):
    """(-1)^(i+j) on a periodic grid of even n, the (pi, pi) mode."""
    i = np.arange(n + 1)
    return (-1.0) ** np.add.outer(i, i)


def energy(spec, lam, u_k, u_km1):
    """E_k = ||u^k||^2 - <u^{k+1}, u^{k-1}> over a periodic field's core."""
    n = u_k.shape[0] - 1
    core = [u[:n, :n].ravel() for u in (u_k, two_step(u_k, u_km1, spec, lam, "periodic"), u_km1)]
    return core[0] @ core[0] - core[1] @ core[2], max(u @ u for u in core)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(NAMED_SCHEMES),
    half_n=st.integers(min_value=2, max_value=6),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_energy_is_nonnegative_up_to_the_stability_limit(name, half_n, fraction, seed):
    spec, n = named_scheme(name), 2 * half_n
    lam = fraction * limit_of(name)
    cores = np.random.default_rng(seed).standard_normal((2, n, n))
    u_k, u_km1 = np.pad(cores, ((0, 0), (0, 1), (0, 1)), mode="wrap")
    value, scale = energy(spec, lam, u_k, u_km1)
    assert value >= -64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_checkerboard_energy_is_negative_past_the_stability_limit(name):
    # Every scheme's symbol minimum sits at (pi, pi) just past its limit,
    # where the pair (chi, -chi) gives E_k = 2 n^2 (1 + a) < 0.
    spec, chi = named_scheme(name), checkerboard(8)
    limit = limit_of(name)
    assert energy(spec, 0.999 * limit, chi, -chi)[0] > 0.0
    assert energy(spec, 1.01 * limit, chi, -chi)[0] < 0.0
