"""The loader of the compiled stencil kernel: cache, fallback and safety.

Each test here loads into its own empty cache directory and clears the
loader's in-process memo before and after, so the rest of the session keeps
the session's kernel.
"""

import contextlib
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

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
    # The error sums read a whole field, two factors and two rows of sums.
    field, factors, sums = np.zeros((9, 9)), np.ones(2), np.empty((2, 2))
    for space in (np.zeros((8, 8)), np.zeros((9, 10))[:, :9], field.astype(np.float32)):
        with pytest.raises(ValueError):
            stepper.march(buf, stepper.buffer(), 2, space=space, factors=factors, sums=sums)
    for factors, sums in ((np.ones(1), sums), (factors, np.empty((1, 2)))):
        with pytest.raises(ValueError):
            stepper.march(buf, stepper.buffer(), 2, space=field, factors=factors, sums=sums)


@needs_cc
@pytest.mark.parametrize("n_t", [1, 2, 40])
def test_default_run_is_one_compiled_call(n_t):
    # The whole default run (first step, two-steps, ghost fills and error
    # sums) is one call of the compiled march; with on_step it is one call
    # per step.  No other compiled routine is called from Python, and the
    # stencil loops are not exported at all.
    lib = _kernel.load()
    assert lib is not None
    config = simulator.SimConfig(scheme=named_scheme("P13"), n=10, n_t=n_t, lam=0.7, bc="periodic")
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(mock.patch.object(lib, name, wraps=getattr(lib, name)))
            for name in _kernel._SIGNATURES
        }
        simulator.run(config)
        assert {name: spy.call_count for name, spy in spies.items()} == {"march": 1, "error_sums": 0}
        simulator.run(config, on_step=lambda k, field: None)
        assert {name: spy.call_count for name, spy in spies.items()} == {
            "march": 1 + n_t,
            "error_sums": 0,
        }
    for name in ("stencil_first", "stencil_two", "fill_ghosts"):
        assert not hasattr(lib, name)


@needs_cc
@pytest.mark.parametrize("name, bc", [("P5", "dirichlet"), ("P13", "periodic")])
def test_relative_l2_error_makes_no_compiled_call(name, bc):
    # The march owns the compiled error sums; relative_l2_error sums the
    # same fields in numpy, to run()'s bits.
    lib = _kernel.load()
    assert lib is not None
    config = simulator.SimConfig(scheme=named_scheme(name), n=12, n_t=5, lam=0.6, bc=bc)
    fields = []
    report = simulator.run(config, on_step=lambda k, field: fields.append(field))
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(lib, export, wraps=getattr(lib, export)))
            for export in _kernel._SIGNATURES
        ]
        error = simulator.relative_l2_error(fields, simulator.exact_standing_wave, config.tau)
        assert [spy.call_count for spy in spies] == [0] * len(spies)
    assert error.hex() == report.error.hex()


@needs_cc
def test_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [*_kernel.COMMAND, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"),
         "-x", "c", "-"],
        input=_kernel.SOURCE.encode(),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


# Prints the float.hex of E and of every per-step error of run() for all six
# schemes, both boundaries and n in {2, 3, 7, 16}, with n_t = 3, on the
# compiled kernel: the library named by argv[1], else the one load() builds.
_EVERY_SCHEME_RUN = """
import sys
from pathlib import Path
from poisson_stencils import _kernel, simulator
from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme

lib = _kernel._bind(Path(sys.argv[1])) if len(sys.argv) > 1 else _kernel.load()
assert lib is not None, "the compiled kernel did not load"
_kernel.load = lambda: lib
for name in NAMED_SCHEMES:
    for bc in simulator.BOUNDARY_CONDITIONS:
        for n in (2, 3, 7, 16):
            config = simulator.SimConfig(named_scheme(name), n=n, n_t=3, lam=0.5, bc=bc)
            report = simulator.run(config)
            print(name, bc, n, report.error.hex(), *(e.hex() for e in report.per_step_errors))
"""


@needs_cc
def test_kernel_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # An out-of-bounds read or write, or undefined behaviour, in the march,
    # the ghost fill or the error sums aborts the instrumented run with a
    # report; clean, it gives the plain library's bits.
    cc = _kernel.COMMAND[0]
    asan = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True, text=True)
    runtime = asan.stdout.strip()
    if asan.returncode != 0 or not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no AddressSanitizer runtime for the C compiler")
    library = tmp_path / "kernel-sanitized.so"
    built = subprocess.run(
        [*_kernel.COMMAND, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-o", str(library), "-x", "c", "-"],
        input=_kernel.SOURCE.encode(),
        capture_output=True,
        timeout=120,
    )
    assert built.returncode == 0, built.stderr.decode()
    src = str(Path(poisson_stencils.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    sanitized = subprocess.run(
        [sys.executable, "-c", _EVERY_SCHEME_RUN, str(library)],
        env=dict(env, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert sanitized.returncode == 0, sanitized.stderr
    assert "Sanitizer" not in sanitized.stderr and "runtime error" not in sanitized.stderr
    plain = subprocess.run([sys.executable, "-c", _EVERY_SCHEME_RUN], env=env,
                           capture_output=True, text=True, timeout=300)
    assert plain.returncode == 0, plain.stderr
    assert len(plain.stdout.splitlines()) == 48
    assert sanitized.stdout == plain.stdout
