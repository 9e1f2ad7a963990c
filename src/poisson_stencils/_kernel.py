"""The march of ``simulator._Stepper`` as compiled C: stencil sums, ghosts, error sums.

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

``march`` is the simulator's one entry point: it runs a whole march in one
call, the first step if asked, then the two-step update, each step followed
by the ghost fill and, if asked, the step's error sums into one row of an
(steps x 2) array.  It takes a plan, an array of integers packed once per
stepper: the buffer geometry, the three tables' linear offsets and the ghost
lines (layout in the source).  The ghost fill writes those lines in the
order that ``_Stepper._fill_ghosts`` writes them and only copies, negates
or writes +0.0, so it cannot change a bit.  The one call holds no state of
its own and releases the GIL, so runs in several threads overlap.

Each step's ``error_sums`` makes one pass over the field u and a reference
r = s * c and returns the sums of (u - r)^2 and r^2, which the numpy march
and ``relative_l2_error`` get from ``ndarray.sum()``.  To give numpy's bits
it replays numpy's pairwise summation order (``pairwise_sum_DOUBLE``: runs
of at most 128 values, 8 partial sums each) over the flattened field.  That
order is numpy's, not a documented contract: ``tests/test_error_sums.py``
checks the compiled sums against numpy's own bit for bit, at the order's
seams too, and ``tests/test_stencil_kernel.py`` checks that both kernels
give every table row and the benchmark marches the same errors.  The flag
above also keeps u - s * c from fusing.

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
static void stencil_first(const double *restrict u, const double *restrict v, double *restrict out,
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
static void stencil_two(const double *restrict curr, double *restrict prev,
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

/* numpy's pairwise summation (pairwise_sum_DOUBLE), replayed term for term:
   runs of at most BLOCK values, each summed by 8 running partial sums
   combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then its
   leftover values; fewer than 8 values are summed from 0.0; longer runs
   split at half their length rounded down to a multiple of 8. */
#define BLOCK 128

static double block_sum(const double *a, ptrdiff_t n)
{
    double res = 0.0;
    ptrdiff_t i = 0;
    if (n >= 8) {
        pair r[VECTORS];
        for (int k = 0; k < VECTORS; k++)
            r[k] = load_pair(a + 2 * k);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < VECTORS; k++)
                r[k] += load_pair(a + i + 2 * k);
        res = ((r[0][0] + r[0][1]) + (r[1][0] + r[1][1]))
            + ((r[2][0] + r[2][1]) + (r[3][0] + r[3][1]));
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* An (rows x cols) field u with unit column stride, and the reference s * c
   with s C-contiguous. */
struct fields {
    const double *u, *s;
    ptrdiff_t u_row_stride, cols;
    double c;
};

/* sums = the pairwise sums of (u - r)^2 and r^2, r = s * c, over the run of
   n values from flat index start. */
static void pairwise_sums(const struct fields *f, ptrdiff_t start, ptrdiff_t n, double sums[2])
{
    if (n > BLOCK) {
        ptrdiff_t half = n / 2;
        double a[2], b[2];
        half -= half % 8;
        pairwise_sums(f, start, half, a);
        pairwise_sums(f, start + half, n - half, b);
        sums[0] = a[0] + b[0];
        sums[1] = a[1] + b[1];
        return;
    }
    double d2[BLOCK], r2[BLOCK];
    ptrdiff_t row = start / f->cols, col = start % f->cols;
    for (ptrdiff_t i = 0; i < n; row++, col = 0) {
        const double *u = f->u + row * f->u_row_stride + col, *s = f->s + row * f->cols + col;
        ptrdiff_t take = f->cols - col < n - i ? f->cols - col : n - i;
        for (ptrdiff_t j = 0; j < take; j++) {
            const double r = s[j] * f->c, d = u[j] - r;
            d2[i + j] = d * d;
            r2[i + j] = r * r;
        }
        i += take;
    }
    sums[0] = block_sum(d2, n);
    sums[1] = block_sum(r2, n);
}

/* out = {sum of (u - s * c)^2, sum of (s * c)^2} over the field, in the order
   of numpy's sum() of the flattened (rows x cols) array. */
void error_sums(const double *u, ptrdiff_t u_row_stride, const double *s, double c,
                ptrdiff_t rows, ptrdiff_t cols, double *out)
{
    const struct fields f = {u, s, u_row_stride, cols, c};
    double sums[2];
    pairwise_sums(&f, 0, rows * cols, sums);
    out[0] = 0.0 + sums[0];
    out[1] = 0.0 + sums[1];
}

/* The plan of a march, as ptrdiff_t: a header indexed by the names below,
   then the linear buffer offsets of the first_u, first_v and two_step
   tables, then LINES ghost lines of (axis, ghost, source, sign).  The
   coefficients of the three tables follow one another in coeffs. */
enum { WIDTH, LO, SIZE, ORIGIN, SIDE, COUNT_U, COUNT_V, COUNT_TWO, LINES, HEADER };

/* Each ghost line in order: axis 0 is a row over the core columns, axis 1
   a column over all rows; it becomes its source line (sign 1), the source
   negated (sign -1) or +0.0 (sign 0).  Exact, so it cannot change a bit. */
static void fill_ghosts(double *buf, const ptrdiff_t *plan, const ptrdiff_t *line)
{
    const ptrdiff_t width = plan[WIDTH];
    for (ptrdiff_t m = 0; m < plan[LINES]; m++, line += 4) {
        const int row = line[0] == 0;
        const ptrdiff_t step = row ? 1 : width, count = row ? plan[SIZE] : width;
        double *g = buf + (row ? line[1] * width + plan[LO] : line[1]);
        const double *f = buf + (row ? line[2] * width + plan[LO] : line[2]);
        for (ptrdiff_t i = 0; i < count; i++)
            g[i * step] = line[3] > 0 ? f[i * step] : line[3] < 0 ? -f[i * step] : 0.0;
    }
}

/* Advance the fields of prev and curr by steps steps.  With v, the first
   step is curr = S_u prev + tau * S_v v; every other step is prev = S curr
   - prev followed by a swap, so that curr holds the newest field.  After
   each step the ghosts are filled and, with sums, row k of the (steps x 2)
   array sums gets error_sums of the (side x side) field against
   s * factors[k]. */
void march(const ptrdiff_t *plan, const double *coeffs, double *prev, double *curr,
           const double *v, double tau, ptrdiff_t steps,
           const double *s, const double *factors, double *sums)
{
    const ptrdiff_t width = plan[WIDTH], lo = plan[LO], size = plan[SIZE];
    const ptrdiff_t n_u = plan[COUNT_U], n_v = plan[COUNT_V], n_two = plan[COUNT_TWO];
    const ptrdiff_t *off_u = plan + HEADER, *off_v = off_u + n_u, *off_two = off_v + n_v;
    const double *c_u = coeffs, *c_v = c_u + n_u, *c_two = c_v + n_v;
    for (ptrdiff_t k = 0; k < steps; k++) {
        if (k == 0 && v) {
            stencil_first(prev, v, curr, tau, width, lo, size, off_u, c_u, n_u, off_v, c_v, n_v);
        } else {
            double *next = prev;
            stencil_two(curr, next, width, lo, size, off_two, c_two, n_two);
            prev = curr;
            curr = next;
        }
        fill_ghosts(curr, plan, off_two + n_two);
        if (sums) {
            const double *field = curr + plan[ORIGIN] * (width + 1);
            error_sums(field, width, s, factors[k], plan[SIDE], plan[SIDE], sums + 2 * k);
        }
    }
}
"""

COMMAND = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
# The simulator calls only ``march``.  ``error_sums`` is exported for the
# tests alone: they reach the pairwise order through it at run lengths such
# as 8, 128 and 129 values, which no (n+1)^2 field of a march has.
_SIGNATURES = {
    "march": (_P, _P, _P, _P, _P, _D, _N, _P, _P, _P),
    "error_sums": (_P, _N, _P, _D, _N, _N, _P),
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
