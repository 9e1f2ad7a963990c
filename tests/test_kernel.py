"""The loader of the compiled stencil kernel: cache, fallback and safety.

Each test here loads into its own empty cache directory and clears the
loader's in-process memo before and after, so the rest of the session keeps
the session's kernel.
"""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poisson_stencils
from poisson_stencils import _kernel, simulator
from poisson_stencils.scheme import named_scheme

needs_cc = pytest.mark.skipif(
    shutil.which(_kernel.COMMAND[0]) is None, reason="no C compiler to build the kernel"
)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty XDG cache home for a fresh load; returns the kernel's directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "poisson_stencils"
    _kernel.load.cache_clear()


def errors(config):
    report = simulator.run(config)
    return report.error, report.per_step_errors


@needs_cc
def test_failed_compile_falls_back_to_the_same_errors(cache, monkeypatch, capfd):
    configs = [
        simulator.SimConfig(scheme=named_scheme(name), n=20, n_t=9, lam=0.6, bc=bc)
        for name, bc in (("P5", "dirichlet"), ("P13", "periodic"), ("C9", "dirichlet"))
    ]
    assert _kernel.load() is not None
    built = _kernel.library_name()
    compiled = [errors(config) for config in configs]
    _kernel.load.cache_clear()
    monkeypatch.setattr(_kernel, "COMMAND", (*_kernel.COMMAND, "-no-such-compiler-flag"))
    assert _kernel.load() is None
    assert simulator._Stepper(named_scheme("P5"), 0.6, 20, "dirichlet")._lib is None
    assert [errors(config) for config in configs] == compiled
    assert capfd.readouterr().err == ""
    # The failed build left no partial file beside the first build's library.
    assert [path.name for path in cache.iterdir()] == [built]


def test_missing_compiler_falls_back(cache, monkeypatch, capfd):
    monkeypatch.setattr(_kernel, "COMMAND", ("no-such-cc-on-this-path", *_kernel.COMMAND[1:]))
    assert _kernel.load() is None
    assert capfd.readouterr().err == ""
    assert list(cache.iterdir()) == []


@needs_cc
def test_second_load_starts_no_compiler(cache, monkeypatch):
    assert _kernel.load() is not None
    _kernel.load.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"started {args[0]}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _kernel.load() is not None


@needs_cc
def test_corrupt_cached_library_is_rebuilt(cache):
    cache.mkdir(mode=0o700)
    library = cache / _kernel.library_name()
    library.write_bytes(b"not a shared library")
    assert _kernel.load() is not None
    assert library.stat().st_size > 1000


@needs_cc
def test_cache_directory_is_private(cache):
    assert _kernel.load() is not None
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [path.suffix for path in cache.iterdir()] == [".so"]


@needs_cc
def test_cache_directory_others_can_write_is_refused(cache):
    cache.mkdir()
    cache.chmod(0o777)
    assert _kernel.load() is not None  # built privately for this process
    assert list(cache.iterdir()) == []


@needs_cc
def test_concurrent_builds_leave_one_library(cache):
    # Four processes build into one empty cache at once: each loads a whole
    # library, and only the finished file remains.
    src = str(Path(poisson_stencils.__file__).parent.parent)
    env = dict(os.environ, XDG_CACHE_HOME=str(cache.parent), PYTHONPATH=src)
    code = "from poisson_stencils import _kernel; print(_kernel.load() is not None)"
    workers = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(4)
    ]
    try:
        outputs = [worker.communicate(timeout=120)[0] for worker in workers]
    finally:
        for worker in workers:
            worker.kill()
    assert outputs == ["True\n"] * 4
    assert [path.name for path in cache.iterdir()] == [_kernel.library_name()]


@needs_cc
def test_kernel_takes_only_whole_buffers_of_its_stepper():
    stepper = simulator._Stepper(named_scheme("P13"), 0.5, 8, "periodic")
    assert stepper._lib is not None
    buf = stepper.buffer()
    for wrong in (np.zeros((5, 5)), stepper.buffer()[:, ::-1], stepper.buffer().astype(np.float32)):
        with pytest.raises(ValueError):
            stepper.two(wrong, buf)
        with pytest.raises(ValueError):
            stepper.two(buf, wrong)
