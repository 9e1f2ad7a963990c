"""Shared test set-up for ``tests`` and ``perfbench``.

The compiled stencil kernel caches its library under ``$XDG_CACHE_HOME``.
A test session points that at a throwaway directory, so it builds the kernel
once from cold, exercising the compile path, and never writes to the user's
own cache.  Subprocesses started by tests inherit the setting.
"""

import os
import shutil
import tempfile
from unittest import mock

import pytest

# (the session's cache directory, the XDG_CACHE_HOME it replaced or None)
_CACHE = pytest.StashKey[tuple]()


def pytest_configure(config):
    scratch = tempfile.mkdtemp(prefix="poisson-stencils-cache-")
    config.stash[_CACHE] = (scratch, os.environ.get("XDG_CACHE_HOME"))
    os.environ["XDG_CACHE_HOME"] = scratch


def pytest_unconfigure(config):
    scratch, previous = config.stash.get(_CACHE, (None, None))
    if scratch is None:
        return
    shutil.rmtree(scratch, ignore_errors=True)
    if previous is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(scope="session")
def kernels():
    """(name, context factory) per stencil kernel to test: each compiled
    variant this host runs (``_kernel.variants()``, widest first), then numpy.

    Inside a factory's context, ``simulator._Stepper`` runs that kernel, as
    the loader is patched to return it, or None for the numpy path.  The
    compiled variants are left out only where no C compiler is installed.
    """
    from poisson_stencils import _kernel

    def using(kernel):
        return lambda: mock.patch.object(_kernel, "load", lambda: kernel)

    compiled = _kernel.variants()
    if not compiled and shutil.which(_kernel.COMMAND[0]):
        pytest.fail(f"{_kernel.COMMAND[0]} is installed but the compiled kernel did not load")
    return (*((kernel.isa, using(kernel)) for kernel in compiled), ("numpy", using(None)))


def _extended(u, bc: str, radius: int):
    """The field u at indices -radius .. n + radius on each axis: index i
    reads i mod n on a periodic grid; on a Dirichlet grid, j = i mod 2n, it
    reads j with sign +1 if j <= n, else 2n - j with sign -1."""
    import numpy as np

    n = len(u) - 1
    i = np.arange(-radius, n + radius + 1)
    if bc == "periodic":
        source, sign = i % n, np.ones(i.shape)
    else:
        j = i % (2 * n)
        source, sign = np.where(j <= n, j, 2 * n - j), np.where(j <= n, 1.0, -1.0)
    return sign[:, None] * sign[None, :] * u[np.ix_(source, source)]


def _reference_step(spec, lam, bc: str, u, w, tau=None):
    """``first_step(u, w, spec, lam, tau, bc)`` if ``tau`` is given, else
    ``two_step(u, w, spec, lam, bc)``, from the ghost rule alone.

    Each table of ``scheme.evaluated`` is summed at every node of the core
    in table order from 0.0, one multiply and one add per offset, over the
    extended fields.  The Dirichlet ring stays +0.0, and the periodic alias
    row and column copy the first.
    """
    import numpy as np
    from poisson_stencils.scheme import evaluated

    n, radius = len(u) - 1, spec.radius
    first = 0 if bc == "periodic" else 1
    lo, hi = radius + first, radius + n  # the core's indices in an extended field

    def stencil_sum(table, field):
        extended, total = _extended(field, bc, radius), np.zeros((hi - lo, hi - lo))
        for (q1, q2), coeff in table:
            total = total + coeff * extended[lo + q1 : hi + q1, lo + q2 : hi + q2]
        return total

    first_u, first_v, two = evaluated(spec, lam)
    if tau is None:
        inner = stencil_sum(two, u) - w[first:n, first:n]
    else:
        inner = stencil_sum(first_u, u) + stencil_sum(first_v, w) * tau
    out = np.zeros((n + 1, n + 1))
    out[first:n, first:n] = inner
    if bc == "periodic":
        out[n], out[:, n] = out[0], out[:, 0]
    return out


@pytest.fixture(scope="session")
def reference_step():
    """``first_step`` and ``two_step`` by an independent rule, one function
    (see ``_reference_step``): the method of images on Dirichlet grids and
    the wrap mod n on periodic ones, with the tables' floats summed in
    table order, so that a kernel's result must equal its bytes."""
    return _reference_step


@pytest.fixture(scope="session")
def rewrapped_wave():
    """The standing wave as a new ``Separable`` whose three factors are new
    functions that call the default's, so that it has the default's values
    but is not the default object."""
    from poisson_stencils.simulator import Separable, exact_standing_wave

    wave = exact_standing_wave
    return Separable(lambda x: wave.x1(x), lambda x: wave.x2(x), lambda t: wave.t(t))


@pytest.fixture
def cold_caches():
    """Empty the library's shared caches of named schemes, serialized
    tables, symbol coefficients (as integer rows) and stability limits per
    scheme, float tables and envelopes at one (scheme, lambda), buffer
    layouts per grid and compiled plans per (scheme, lambda, grid), as in a
    fresh process."""
    from poisson_stencils import _limits, scheme, simulator, stability

    caches = (scheme._named_scheme, scheme._serialized, scheme._evaluated,
              stability._scaled_symbol, _limits.limits,
              stability._shared_envelope, simulator._layout, simulator._plan)
    for cache in caches:
        cache.cache_clear()
    return caches
