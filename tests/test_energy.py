"""Conservation of the discrete energy of the two-step update.

On a periodic grid, u^{k+1} = S u^k - u^{k-1} with a table symmetric under
q -> -q (a self-adjoint S) conserves

    E_k = ||u^k||^2 - <u^{k+1}, u^{k-1}>

exactly: E_{k+1} - E_k = <u^{k+1} - u^{k-1}, u^{k+1} + u^{k-1} - S u^k> = 0.
The stability analysis checks that symmetry on the exact tables, so every
bundled scheme must keep E_k constant up to roundoff for any field.  A
Dirichlet grid is the odd extension of a periodic one, on which S stays
self-adjoint, so E_k summed over the interior is conserved too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme
from poisson_stencils.simulator import two_step

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
