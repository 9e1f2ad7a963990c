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


@pytest.fixture
def cold_caches():
    """Empty the library's shared caches of named schemes, symbol
    coefficients (as integer rows) and (scheme, lambda) evaluations, as in a
    fresh process."""
    from poisson_stencils import scheme, stability

    caches = (scheme._named_scheme, stability._scaled_symbol, stability._evaluated)
    for cache in caches:
        cache.cache_clear()
    return caches
