"""The loader of the compiled stencil kernel: cache, fallback and safety.

Each test here loads into its own empty cache directory and clears the
loader's in-process memo before and after, so the rest of the session keeps
the session's kernel.
"""

import contextlib
import ctypes
import os
import platform
import re
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
    _kernel.variants.cache_clear()
    yield tmp_path / "poisson_stencils"
    _kernel.variants.cache_clear()


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
    _kernel.variants.cache_clear()
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
    _kernel.variants.cache_clear()

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
def test_fresh_build_removes_only_stale_libraries(cache):
    # Libraries of other sources or flags go once a new build loads; files
    # of any other name stay.  A load that finds its library deletes nothing.
    cache.mkdir(mode=0o700)
    stale = ["stencil-0000abcd.so", "stencil-deadbeef.so"]
    kept = ["stencil-12345.so", "stencil-deadbeef.so.txt", "tmpab12cd34.so", "notes-00000000.so"]
    for name in stale + kept:
        (cache / name).write_bytes(b"x")
    assert _kernel.load() is not None
    built = _kernel.library_name()
    assert sorted(path.name for path in cache.iterdir()) == sorted([built, *kept])
    _kernel.variants.cache_clear()
    (cache / stale[0]).write_bytes(b"x")
    assert _kernel.load() is not None
    assert sorted(path.name for path in cache.iterdir()) == sorted([built, stale[0], *kept])


@needs_cc
def test_kernel_takes_only_whole_buffers_of_its_stepper():
    stepper = simulator._Stepper(named_scheme("P13"), 0.5, 8, "periodic")
    assert stepper._lib is not None
    buf = stepper.buffer()
    for wrong in (np.zeros((5, 5)), stepper.buffer()[:, ::-1], stepper.buffer().astype(np.float32)):
        with pytest.raises(ValueError):
            stepper.march(buf, wrong, 1)
        with pytest.raises(ValueError):
            stepper.march(wrong, buf, 1)
    # The error sums read two whole sines of n + 1 values, two factors and
    # two rows of sums, given together as the reference.
    sine, factors, sums = np.zeros(9), np.ones(2), np.empty((2, 2))
    for wrong in (np.zeros(8), np.zeros((9, 1)), np.zeros((1, 9)), np.zeros(18)[::2],
                  sine.astype(np.float32)):
        for sines in ((wrong, sine), (sine, wrong)):
            with pytest.raises(ValueError):
                stepper.march(buf, stepper.buffer(), 2, reference=(*sines, factors, sums))
    for factors, sums in ((np.ones(1), sums), (factors, np.empty((1, 2)))):
        with pytest.raises(ValueError):
            stepper.march(buf, stepper.buffer(), 2, reference=(sine, sine, factors, sums))


def strided_view(width, row_stride, lo, misalign=0):
    """A zero (width x width) view with rows ``row_stride`` doubles apart
    whose first core row starts ``misalign`` doubles past a 64-byte line."""
    flat = np.zeros(width * row_stride + 8)
    skip = (misalign - (flat.ctypes.data + 8 * (lo * row_stride + lo)) // 8) % 8
    view = flat[skip : skip + width * row_stride].reshape(width, row_stride)[:, :width]
    assert (view[lo, lo:].ctypes.data // 8 - misalign) % 8 == 0
    return view


@needs_cc
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_buffers_are_padded_rows_with_aligned_cores(bc):
    # Every buffer is a (width x width) view whose rows lie a whole number of
    # 64-byte lines apart, each core row starting on a line, so that an
    # 8-double load at the core's offsets with q2 = 0 fills one line.  The
    # compiled march refuses the old C-contiguous layout, views with another
    # stride, views with this stride whose core rows are off the lines, and
    # a read-only view.
    for name in ("P5", "P13"):
        for n in range(2, 34):
            stepper = simulator._Stepper(named_scheme(name), 0.5, n, bc)
            assert stepper._lib is not None
            lo, size, width, stride = stepper.lo, stepper.size, stepper.shape[0], stepper.stride
            assert stride % 8 == 0 and width < stride <= width + 8
            buf = stepper.buffer()
            assert buf.shape == (width, width) and buf.strides == (8 * stride, 8)
            for i in range(lo, lo + size):
                assert buf[i, lo:].ctypes.data % 64 == 0, (name, n, i)
            frozen = strided_view(width, stride, lo)
            frozen.flags.writeable = False
            wrong = [np.zeros((width, width)), strided_view(width, width, lo),
                     strided_view(width, stride + 8, lo), strided_view(width, stride, lo, 1),
                     strided_view(width, stride, lo, 4), frozen]
            for candidate in wrong:
                with pytest.raises(ValueError):
                    stepper.march(buf, candidate, 1)
                with pytest.raises(ValueError):
                    stepper.march(candidate, buf, 1)
                with pytest.raises(ValueError):
                    stepper.march(buf, stepper.buffer(), 1, v=candidate, tau=0.1)
            # A view of this stride on lines is a buffer, whoever made it.
            stepper.march(buf, strided_view(width, stride, lo), 1, v=stepper.buffer(), tau=0.1)


def session_library():
    """The path of the library that the session's kernels were bound from."""
    assert _kernel.load() is not None
    return _kernel._cache_dir() / _kernel.library_name()


def spy_on_every_export(stack):
    """{(isa, routine): spy} over every routine of every variant this host runs."""
    return {
        (kernel.isa, name): stack.enter_context(
            mock.patch.object(kernel, name, wraps=getattr(kernel, name))
        )
        for kernel in _kernel.variants()
        for name in _kernel._SIGNATURES
    }


@needs_cc
@pytest.mark.parametrize("n_t", [1, 2, 40])
def test_default_run_is_one_compiled_call(n_t):
    # The whole default run (first step, two-steps, ghost fills and error
    # sums) is one call of the best variant's compiled march; with on_step
    # it is one call per step.  No other compiled routine of any variant is
    # called from Python, and the stencil loops are not exported at all.
    best = _kernel.load()
    assert best is not None
    config = simulator.SimConfig(scheme=named_scheme("P13"), n=10, n_t=n_t, lam=0.7, bc="periodic")

    def calls(march):
        return {key: march if key == (best.isa, "march") else 0 for key in spies}

    with contextlib.ExitStack() as stack:
        spies = spy_on_every_export(stack)
        assert len(spies) == 2 * len(_kernel.variants())
        simulator.run(config)
        assert {key: spy.call_count for key, spy in spies.items()} == calls(1)
        simulator.run(config, on_step=lambda k, field: None)
        assert {key: spy.call_count for key, spy in spies.items()} == calls(1 + n_t)
    lib = ctypes.CDLL(str(session_library()))
    shared = re.findall(r"static (?:inline )?\w+ (\w+)\(", _kernel._SHARED)
    looped = re.findall(r"static (?:inline )?[\w@]+ (\w+)_@ISA@\(", _kernel._VECTOR_LOOPS)
    assert "fill_ghosts" in shared
    assert {"stencil", "sum_lanes", "block_sum", "pairwise_sums"} <= set(looped)
    for name in (*shared, *(f"{name}_{isa}" for isa, _ in _kernel.ISAS for name in looped)):
        assert not hasattr(lib, name)
        # -Wall does not flag an unused static inline routine, so each must
        # be called somewhere besides its definition.
        assert len(re.findall(rf"\b{name}\(", _kernel.SOURCE)) >= 2, name


@needs_cc
@pytest.mark.parametrize("name, bc", [("P5", "dirichlet"), ("P13", "periodic")])
def test_relative_l2_error_makes_no_compiled_call(name, bc):
    # The march owns the compiled error sums; relative_l2_error sums the
    # same fields in numpy, to run()'s bits.
    assert _kernel.load() is not None
    config = simulator.SimConfig(scheme=named_scheme(name), n=12, n_t=5, lam=0.6, bc=bc)
    fields = []
    report = simulator.run(config, on_step=lambda k, field: fields.append(field))
    with contextlib.ExitStack() as stack:
        spies = spy_on_every_export(stack)
        error = simulator.relative_l2_error(fields, simulator.exact_standing_wave, config.tau)
        assert [spy.call_count for spy in spies.values()] == [0] * len(spies)
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


def cpu_flags():
    """The CPU flags that Linux reports (those the OS also enables), or None."""
    try:
        with open("/proc/cpuinfo") as handle:
            return next(line for line in handle if line.startswith("flags")).split()
    except (OSError, StopIteration):
        return None


@needs_cc
def test_the_cpu_runs_every_variant_offered_widest_first():
    isas = [kernel.isa for kernel in _kernel.variants()]
    if platform.machine().lower() not in ("x86_64", "amd64"):
        assert isas == ["baseline"]
        return
    flags = cpu_flags()
    if flags is None:
        pytest.skip("no /proc/cpuinfo to read the CPU flags from")
    wanted = ["baseline"]
    if "avx2" in flags:
        wanted.insert(0, "avx2")
        if "avx512f" in flags:
            wanted.insert(0, "avx512f")
    assert isas == wanted


@needs_cc
def test_source_off_x86_64_offers_only_the_baseline(tmp_path):
    # Another architecture compiles the baseline loops alone, without a
    # warning, and its library offers only them.
    library = tmp_path / "kernel.so"
    done = subprocess.run(
        [*_kernel.COMMAND, "-U__x86_64__", "-Wall", "-Wextra", "-Werror", "-o", str(library),
         "-x", "c", "-"],
        input=_kernel.SOURCE.encode(),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert [kernel.isa for kernel in _kernel._bind(library)] == ["baseline"]
    lib = ctypes.CDLL(str(library))
    for isa, _ in _kernel.ISAS[1:]:
        assert not hasattr(lib, f"march_{isa}")


@needs_cc
def test_targets_never_fuse_a_multiply_and_an_add():
    # No flag or target enables FMA or a CPU, and the contract flag holds
    # inside the target functions: the library has no fused multiply-add.
    targets = re.findall(r"target\(([^)]*)\)", _kernel.SOURCE)
    assert sorted(set(targets)) == ['"avx2"', '"avx512f"']
    assert not any(flag.startswith(("-march", "-mavx", "-mfma", "-ffast-math"))
                   for flag in _kernel.COMMAND)
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("no objdump to read the library")
    code = subprocess.run([objdump, "-d", str(session_library())], capture_output=True,
                          text=True, timeout=120).stdout
    assert "march_baseline" in code
    assert not any(fused in code for fused in ("fmadd", "fmsub", "fmla", "fmls"))


# Prints the float.hex of E and of every per-step error of run() for all six
# schemes, both boundaries and n in {2, 3, 7, 11, 16}, with n_t = 3, on each
# compiled variant: of the library named by argv[1], else of load()'s build.
# At n = 11 the 144 values form two leaves of 72, and the second ends at the
# field's end, so an index one row past the sines reads out of bounds.
_EVERY_SCHEME_RUN = """
import sys
from pathlib import Path
from poisson_stencils import _kernel, simulator
from poisson_stencils.scheme import NAMED_SCHEMES, named_scheme

kernels = _kernel._bind(Path(sys.argv[1])) if len(sys.argv) > 1 else _kernel.variants()
assert kernels, "the compiled kernel did not load"
for kernel in kernels:
    _kernel.load = lambda: kernel
    for name in NAMED_SCHEMES:
        for bc in simulator.BOUNDARY_CONDITIONS:
            for n in (2, 3, 7, 11, 16):
                config = simulator.SimConfig(named_scheme(name), n=n, n_t=3, lam=0.5, bc=bc)
                report = simulator.run(config)
                print(report.kernel, name, bc, n, report.error.hex(),
                      *(e.hex() for e in report.per_step_errors))
"""


@needs_cc
def test_kernel_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # An out-of-bounds read or write, or undefined behaviour, in the march,
    # the ghost fill or the error sums of any variant aborts the instrumented
    # run with a report; clean, each variant gives the plain library's bits,
    # which are the same for all variants.
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
    isas = [kernel.isa for kernel in _kernel.variants()]
    rows = [line.split(" ", 1) for line in plain.stdout.splitlines()]
    assert [isa for isa, _ in rows] == [isa for isa in isas for _ in range(60)]
    assert {bits for _, bits in rows} == {bits for _, bits in rows[:60]}
    assert sanitized.stdout == plain.stdout
