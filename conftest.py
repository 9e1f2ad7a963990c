"""Shared test set-up for ``tests`` and ``perfbench``.

The compiled stencil kernel caches its library under ``$XDG_CACHE_HOME``.
A test session points that at a throwaway directory, so it builds the kernel
once from cold, exercising the compile path, and never writes to the user's
own cache.  Subprocesses started by tests inherit the setting.
"""

import contextlib
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
    """(name, context factory) per stencil kernel to test: compiled, then numpy.

    Inside a factory's context, ``simulator._Stepper`` runs that kernel; the
    numpy path is chosen by patching the loader to return None.  The compiled
    kernel is left out only where no C compiler is installed.
    """
    from poisson_stencils import _kernel

    numpy_path = ("numpy", lambda: mock.patch.object(_kernel, "load", lambda: None))
    if _kernel.load() is not None:
        return ("compiled", contextlib.nullcontext), numpy_path
    if shutil.which(_kernel.COMMAND[0]):
        pytest.fail(f"{_kernel.COMMAND[0]} is installed but the compiled kernel did not load")
    return (numpy_path,)
