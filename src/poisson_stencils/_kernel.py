"""The stencil sums of ``simulator._Stepper`` as a compiled C loop.

The C source below is built once per user with the system C compiler (GCC
or Clang, for the vector extension) and cached as a shared library;
``load()`` returns it bound through ctypes, or None off POSIX, when no
compiler is present, or when the build or load fails, in which case the
simulator runs its numpy path.  Both paths give the same bits: each node
sums coeff * value over the table's offsets in table order, starting from
0.0, one rounding per multiply and per add.  ``-ffp-contract=off`` keeps the
compiler from fusing them into multiply-adds (clang and aarch64 gcc would
otherwise), and the flags stay portable, with no ``-march=native`` or
``-ffast-math``, so a cached library runs on any CPU of its architecture.

The cache directory is ``$XDG_CACHE_HOME/poisson_stencils`` (default
``~/.cache``), mode 0700.  A directory that another user owns, or that others
can write, is not used: the library is then built in a private temporary
directory for this process alone.  A build writes a unique temporary name and
renames it into place, so concurrent processes never load a partial file.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import stat
import tempfile
import zlib
from pathlib import Path

SOURCE = r"""
#include <stddef.h>
#include <string.h>

/* Two doubles in one vector register (SSE2, NEON), with elementwise IEEE
   arithmetic; LANES nodes of a row are VECTORS of them. */
typedef double pair __attribute__((vector_size(16)));
#define VECTORS 4
#define LANES (2 * VECTORS)

static inline pair load_pair(const double *p)
{
    pair v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store_pair(double *p, pair v)
{
    memcpy(p, &v, sizeof v);
}

/* Lane k of acc = the sum of c[m] * x[k + off[m]] over m in table order,
   from 0.0. */
static inline void sum_lanes(const double *restrict x, const ptrdiff_t *restrict off,
                             const double *restrict c, ptrdiff_t count,
                             pair acc[VECTORS])
{
    for (int k = 0; k < VECTORS; k++)
        acc[k] = (pair){0.0, 0.0};
    for (ptrdiff_t m = 0; m < count; m++) {
        const double *p = x + off[m];
        const pair cm = {c[m], c[m]};
        for (int k = 0; k < VECTORS; k++)
            acc[k] += cm * load_pair(p + 2 * k);
    }
}

static inline double sum_one(const double *restrict x, const ptrdiff_t *restrict off,
                             const double *restrict c, ptrdiff_t count)
{
    double a = 0.0;
    for (ptrdiff_t m = 0; m < count; m++)
        a += c[m] * x[off[m]];
    return a;
}

/* Core nodes of width x width buffers: out = S_u u + tau * S_v v. */
void stencil_first(const double *restrict u, const double *restrict v, double *restrict out,
                   double tau, ptrdiff_t width, ptrdiff_t lo, ptrdiff_t size,
                   const ptrdiff_t *off_u, const double *c_u, ptrdiff_t n_u,
                   const ptrdiff_t *off_v, const double *c_v, ptrdiff_t n_v)
{
    for (ptrdiff_t i = 0; i < size; i++) {
        const ptrdiff_t row = (lo + i) * width + lo;
        const double *x = u + row, *y = v + row;
        double *z = out + row;
        ptrdiff_t j = 0;
        for (; j + LANES <= size; j += LANES) {
            pair s[VECTORS], t[VECTORS];
            sum_lanes(x + j, off_u, c_u, n_u, s);
            sum_lanes(y + j, off_v, c_v, n_v, t);
            for (int k = 0; k < VECTORS; k++)
                store_pair(z + j + 2 * k, s[k] + t[k] * tau);
        }
        for (; j < size; j++)
            z[j] = sum_one(x + j, off_u, c_u, n_u) + sum_one(y + j, off_v, c_v, n_v) * tau;
    }
}

/* Core nodes of width x width buffers: prev = S curr - prev. */
void stencil_two(const double *restrict curr, double *restrict prev,
                 ptrdiff_t width, ptrdiff_t lo, ptrdiff_t size,
                 const ptrdiff_t *off, const double *c, ptrdiff_t count)
{
    for (ptrdiff_t i = 0; i < size; i++) {
        const ptrdiff_t row = (lo + i) * width + lo;
        const double *x = curr + row;
        double *z = prev + row;
        ptrdiff_t j = 0;
        for (; j + LANES <= size; j += LANES) {
            pair s[VECTORS];
            sum_lanes(x + j, off, c, count, s);
            for (int k = 0; k < VECTORS; k++)
                store_pair(z + j + 2 * k, s[k] - load_pair(z + j + 2 * k));
        }
        for (; j < size; j++)
            z[j] = sum_one(x + j, off, c, count) - z[j];
    }
}
"""

COMMAND = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_SIGNATURES = {
    "stencil_first": (_P, _P, _P, _D, _N, _N, _N, _P, _P, _N, _P, _P, _N),
    "stencil_two": (_P, _P, _N, _N, _N, _P, _P, _N),
}


def _cache_dir() -> Path | None:
    """The private per-user cache directory, created if missing; None if unsafe."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        path = root / "poisson_stencils"
        root.mkdir(parents=True, exist_ok=True)
        path.mkdir(mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    mine = stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
    return path if mine and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH) else None


def _build(target: Path) -> bool:
    """Compile SOURCE to ``target`` through a unique temporary name; False on failure."""
    import subprocess

    partial = None
    try:
        fd, partial = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
        done = subprocess.run(
            [*COMMAND, "-o", partial, "-x", "c", "-"],
            input=SOURCE.encode(),
            capture_output=True,
            timeout=120,
        )
        if done.returncode != 0:
            return False
        os.replace(partial, target)
        partial = None
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if partial is not None:
            with contextlib.suppress(OSError):
                os.unlink(partial)


def _bind(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, None
    except (OSError, AttributeError):
        return None
    return lib


def library_name() -> str:
    """The cached library's file name, keyed by the source, flags and machine."""
    key = zlib.crc32("\0".join((SOURCE, *COMMAND, platform.machine())).encode())
    return f"stencil-{key:08x}.so"


def _load_from(directory: Path) -> ctypes.CDLL | None:
    """The library in ``directory``, built there first if missing or unloadable."""
    target = directory / library_name()
    if target.exists():
        lib = _bind(target)
        if lib is not None:
            return lib
    return _bind(target) if _build(target) else None


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled kernel, built on first use; None when it cannot be had.

    Writes nothing to the terminal: a missing compiler or a failed build
    only selects the numpy path.
    """
    if os.name != "posix":
        return None
    cache = _cache_dir()
    if cache is not None:
        return _load_from(cache)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            return _load_from(Path(scratch))
    except OSError:
        return None
