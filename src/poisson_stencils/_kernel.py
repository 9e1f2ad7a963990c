"""The march of ``simulator._Stepper`` as compiled C: stencil sums, ghosts, error sums.

The C source below is built once per user with the system C compiler (GCC
or Clang, for the vector extension) and cached as a shared library.  Its
vector loops are written once and compiled once per instruction set of
``ISAS``: the baseline (SSE2 on x86-64, NEON on arm64) everywhere, and on
x86-64 also AVX2 and AVX-512F copies under ``__attribute__((target))``.  When
the library loads, its ``isa_level()`` asks the CPU (``__builtin_cpu_supports``)
which of them it runs; ``variants()`` binds those through ctypes, widest
first, and ``load()`` returns the first.  Nothing else chooses a variant.
Without POSIX, a compiler, or a working build or load, there is none, and
the simulator runs its numpy path.

One stencil routine per instruction set serves the first step and the
two-step update.  It walks the core one row at a time: LANES nodes per row
step (VECTORS = 4 registers of W doubles, W per ``ISAS``), then at most one
step of 2 registers and the row's remaining whole registers one at a time,
all through one inline row step whose register count is a constant at each
call.  A row of more than W nodes that is not a whole number of registers
then ends in one register over its last W nodes, which overlaps nodes made
before it and gives them the bits they already hold, as each lane sums the
same offsets in the same order; only a row narrower than W (Dirichlet, n <=
W) goes one node at a time.  The buffers'
rows lie a whole number of 64-byte lines apart (the plan's WIDTH is that
stride, which exceeds the row) and every core row starts on a line, so that
an AVX-512F register of the row's offsets with q2 = 0, or of out, fills one
line rather than straddling two.  Every variant and the numpy path give the
same bits: each node sums coeff * value over the table's offsets in table
order, starting from 0.0, one rounding per multiply and per add, and IEEE
arithmetic rounds each vector lane as it would a lone double, whatever the
width.
``-ffp-contract=off`` keeps the compiler from fusing them into multiply-adds
(clang and aarch64 gcc would otherwise, and AVX-512F has them), no target
names ``fma``, and the flags stay portable, with no ``-march=native`` or
``-ffast-math``, so a cached library runs on any CPU of its architecture.

``march`` is the simulator's one entry point: it makes steps k, k + 1, ...
in one call, k the number already made, step 0 with a velocity the first
step and any other the two-step update, each followed by the ghost fill
and, if asked, its error sums into row k of an (n_t x 2) array, and returns
whether it swapped its field buffers.  Step 0 first fills the ghosts that
it reads, which ``_Stepper.buffer`` leaves zero.  It reads what ``plan()``
packs: the buffer geometry, the three tables' linear offsets and
coefficients, and the ghost lines (layout in the source).  Its ghost fill
writes what ``_Stepper._fill_ghosts`` does, rows then columns, by copies,
negations and +0.0 alone, so it cannot change a bit.  The one call holds no state of
its own and releases the GIL, so runs in several threads overlap.

Each step's ``error_sums`` makes one pass over the field u and returns the
sums of (u - r)^2 and r^2, which the numpy march and ``relative_l2_error``
get from ``ndarray.sum()``.  The reference is separable, like the
benchmark's standing wave: r = (a_i * b_j) * c is formed from two vectors,
one value per row and one per column, with the bits of numpy's
(a[:, None] * b[None, :]) * c, so no (n+1)^2 reference field is read.  To
give numpy's bits it replays numpy's pairwise summation order
(``pairwise_sum_DOUBLE``: runs of at most 128 values, 8 partial sums each)
over the flattened field; the 8 partial sums are the lanes of 8 / W vector
registers of W doubles.  A run that lies in one row forms its squares in
those registers; one that crosses a row end stages them first.  That
order is numpy's, not a documented contract: ``tests/test_error_sums.py``
checks each variant's sums against numpy's own bit for bit, at the order's
seams too, and ``tests/test_stencil_kernel.py`` checks that every variant
and the numpy path give every table row and the benchmark marches the same
errors.  The contract flag also keeps u - (a * b) * c from fusing.

The cache directory is ``$XDG_CACHE_HOME/poisson_stencils`` (default
``~/.cache``), mode 0700.  A directory that another user owns, or that others
can write, is not used: the library is then built in a private temporary
directory for this process alone.  A build writes a unique temporary name and
renames it into place, so concurrent processes never load a partial file.
"""

from __future__ import annotations

import array
import contextlib
import ctypes
import functools
import os
import platform
import stat
import tempfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

# The part of the C source that has no vectors: the plan's layout, the ghost
# fill, a stencil table, the one-node sum of a row narrower than a register,
# the error sums' fields, and the choice of instruction set.
_SHARED = r"""
#include <stddef.h>

/* The plan of a march, packed by plan(), as ptrdiff_t: a header indexed by
   the names below, then the linear buffer offsets of the first_u, first_v
   and two_step tables, then LINES ghost lines of (ghost, source, sign),
   each a row and a column; coeffs holds the tables' coefficients in turn.
   A buffer holds SIZE + 2 * LO rows and columns, its rows WIDTH doubles
   apart: the row stride, whole 64-byte lines, exceeding the row. */
enum { WIDTH, LO, SIZE, ORIGIN, SIDE, COUNT_U, COUNT_V, COUNT_TWO, LINES, HEADER };

/* Each ghost line as a whole row (step 1), then each as a whole column (step
   WIDTH): its source (sign 1), the source negated (sign -1) or, with pin,
   +0.0 (sign 0); without pin a sign-0 line keeps what it holds. */
static void fill_ghosts(double *buf, const ptrdiff_t *plan, const ptrdiff_t *lines, int pin)
{
    const ptrdiff_t width = plan[WIDTH], side = plan[SIZE] + 2 * plan[LO], count = plan[LINES];
    for (ptrdiff_t m = 0; m < 2 * count; m++) {
        const ptrdiff_t *line = lines + 3 * (m % count), step = m < count ? 1 : width;
        if (!line[2] && !pin)
            continue;
        double *g = buf + line[0] * (width / step);
        const double *f = buf + line[1] * (width / step);
        for (ptrdiff_t i = 0; i < side; i++)
            g[i * step] = line[2] > 0 ? f[i * step] : line[2] < 0 ? -f[i * step] : 0.0;
    }
}

/* A stencil table: count linear buffer offsets off and their coefficients c. */
struct table {
    const ptrdiff_t *restrict off;
    const double *restrict c;
    ptrdiff_t count;
};

/* The sum of c[m] * x[off[m]] over m in table order, from 0.0. */
static inline double sum_one(const double *restrict x, struct table t)
{
    double a = 0.0;
    for (ptrdiff_t m = 0; m < t.count; m++)
        a += t.c[m] * x[t.off[m]];
    return a;
}

/* numpy's pairwise summation (pairwise_sum_DOUBLE), replayed term for term:
   runs of at most BLOCK values, each summed by 8 running partial sums
   combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then its
   leftover values; fewer than 8 values are summed from 0.0; longer runs
   split at half their length rounded down to a multiple of 8. */
#define BLOCK 128

/* An (rows x cols) field u with unit column stride, and the reference
   r = (a[row] * b[col]) * c of the sines a per row and b per column. */
struct fields {
    const double *u, *a, *b;
    ptrdiff_t u_row_stride, cols;
    double c;
};

/* The index in ISAS of the widest instruction set that this library holds
   and this CPU runs: 0 (baseline) off x86-64, else 1 for AVX2 and 2 for
   AVX-512F, which needs AVX2 too, since the avx512f target implies it. */
int isa_level(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return __builtin_cpu_supports("avx512f") ? 2 : 1;
#endif
    return 0;
}
"""


def plan(stride: int, lo: int, size: int, origin: int, side: int, tables, lines):
    """The (plan, coeffs) arrays that ``march`` reads, laid out as ``_SHARED`` says:
    C longs (array code "l", a ptrdiff_t on every POSIX ABI) and doubles."""
    entries = [entry for table in tables for entry in table]
    header = [stride, lo, size, origin, side, *map(len, tables), len(lines)]
    offsets = [q1 * stride + q2 for (q1, q2), _ in entries]
    ghosts = [value for line in lines for value in line]
    return array.array("l", header + offsets + ghosts), array.array("d", [c for _, c in entries])


# The vector loops, written once and expanded per row of ISAS: @ISA@ is the
# name, @TARGET@ the function attribute (empty for the baseline) and @W@ the
# doubles per vector register.  Every node still sums its offsets in table
# order from 0.0, one rounding per multiply and per add, whatever W is.
# VECTORS = 4 registers per row step on every instruction set: 2 ran slower
# on each, and 4 with one 2-register step at a row's end ran the n = 80 and
# n = 512 marches fastest on an AVX-512F Xeon.
_VECTOR_LOOPS = r"""
#define W @W@
#define VECTORS 4
#define LANES (W * VECTORS)

/* W doubles in one vector register, with elementwise IEEE arithmetic; a row
   step sums LANES nodes, VECTORS registers of them, and a row's last
   size % LANES nodes go in at most one 2-register step, then one register
   at a time, then one register overlapping the last W nodes (see rows).
   numpy's 8 partial sums take 8 / W registers, lane k of register j holding
   partial sum j * W + k. */
typedef double vec_@ISA@ __attribute__((vector_size(W * sizeof(double))));

@TARGET@ static inline vec_@ISA@ load_@ISA@(const double *p)
{
    vec_@ISA@ v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

@TARGET@ static inline void store_@ISA@(double *p, vec_@ISA@ v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

/* Lane k of acc[r] = the sum of c[m] * x[W * r + k + off[m]] over m in
   table order, from 0.0, for each of the first vectors registers of acc. */
@TARGET@ static inline void sum_lanes_@ISA@(const double *restrict x, struct table t,
                                            const int vectors, vec_@ISA@ acc[VECTORS])
{
    for (int r = 0; r < vectors; r++)
        acc[r] = (vec_@ISA@){0.0};
    for (ptrdiff_t m = 0; m < t.count; m++) {
        const double *p = x + t.off[m], cm = t.c[m];
        for (int r = 0; r < vectors; r++)
            acc[r] += cm * load_@ISA@(p + W * r);
    }
}

/* v = S_a x + tau * S_b y with y, else S_a x, for the W * vectors nodes
   from index j.  Each call passes a constant vectors (VECTORS, 2 or 1). */
@TARGET@ static inline void row_values_@ISA@(const double *restrict x, const double *restrict y,
                                           ptrdiff_t j, double tau, const int vectors,
                                           struct table a, struct table b, vec_@ISA@ v[VECTORS])
{
    vec_@ISA@ t[VECTORS];
    sum_lanes_@ISA@(x + j, a, vectors, v);
    if (y) {
        sum_lanes_@ISA@(y + j, b, vectors, t);
        for (int r = 0; r < vectors; r++)
            v[r] += t[r] * tau;
    }
}

/* The W * vectors nodes of out from index j: S_a x + tau * S_b y with y,
   else S_a x - out (see row_values). */
@TARGET@ static inline void row_step_@ISA@(const double *restrict x, const double *restrict y,
                                           double *restrict out, ptrdiff_t j, double tau,
                                           const int vectors, struct table a, struct table b)
{
    vec_@ISA@ v[VECTORS];
    row_values_@ISA@(x, y, j, tau, vectors, a, b, v);
    for (int r = 0; r < vectors; r++) {
        double *z = out + j + W * r;
        store_@ISA@(z, y ? v[r] : v[r] - load_@ISA@(z));
    }
}

/* The core rows of stencil: each in steps of VECTORS registers, then at most
   one of 2, then of 1.  With overlap (a constant at each call), the row's
   last W nodes, some of which those steps make, go in one more register
   after them and store the bits those steps stored: each lane sums the same
   offsets in table order, and the old out it subtracts is read before their
   stores.  Without it, a row narrower than W goes one node at a time. */
@TARGET@ static inline void rows_@ISA@(const double *restrict x, const double *restrict y,
                                       double *restrict out, double tau, ptrdiff_t width,
                                       ptrdiff_t lo, ptrdiff_t size, struct table a,
                                       struct table b, const int overlap)
{
    for (ptrdiff_t i = 0; i < size; i++) {
        const ptrdiff_t row = (lo + i) * width + lo;
        const vec_@ISA@ old = overlap && !y ? load_@ISA@(out + row + size - W) : (vec_@ISA@){0.0};
        ptrdiff_t j = 0;
        for (; j + LANES <= size; j += LANES)
            row_step_@ISA@(x, y, out, row + j, tau, VECTORS, a, b);
        if (j + 2 * W <= size) {
            row_step_@ISA@(x, y, out, row + j, tau, 2, a, b);
            j += 2 * W;
        }
        for (; j + W <= size; j += W)
            row_step_@ISA@(x, y, out, row + j, tau, 1, a, b);
        if (overlap) {
            vec_@ISA@ v[VECTORS];
            row_values_@ISA@(x, y, row + size - W, tau, 1, a, b, v);
            store_@ISA@(out + row + size - W, y ? v[0] : v[0] - old);
            continue;
        }
        for (; j < size; j++) {
            const ptrdiff_t k = row + j;
            const double s = sum_one(x + k, a);
            out[k] = y ? s + sum_one(y + k, b) * tau : s - out[k];
        }
    }
}

/* Core nodes of buffers whose rows lie width doubles apart, each core row
   starting on a 64-byte line: out = S_a x + tau * S_b y with y (the first
   step), else out = S_a x - out (the two-step update).  A row of more than
   W nodes that is not a whole number of registers ends in an overlapping
   register; only rows narrower than W go node by node. */
@TARGET@ static void stencil_@ISA@(const double *restrict x, const double *restrict y,
                                   double *restrict out, double tau, ptrdiff_t width,
                                   ptrdiff_t lo, ptrdiff_t size, struct table a, struct table b)
{
    if (size > W && size % W)
        rows_@ISA@(x, y, out, tau, width, lo, size, a, b, 1);
    else
        rows_@ISA@(x, y, out, tau, width, lo, size, a, b, 0);
}

/* numpy's 8 partial sums of a run, combined in its order (see BLOCK). */
@TARGET@ static inline double combine_@ISA@(const vec_@ISA@ r[8 / W])
{
    double l[8];
    __builtin_memcpy(l, r, sizeof l);
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* One run of n values by numpy's 8 partial sums (see BLOCK). */
@TARGET@ static double block_sum_@ISA@(const double *a, ptrdiff_t n)
{
    double res = 0.0;
    ptrdiff_t i = 0;
    if (n >= 8) {
        vec_@ISA@ r[8 / W];
        for (int k = 0; k < 8 / W; k++)
            r[k] = load_@ISA@(a + W * k);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8 / W; k++)
                r[k] += load_@ISA@(a + i + W * k);
        res = combine_@ISA@(r);
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* *e = (u - r)^2 and *q = r^2, r = (a * b) * c, for the W values from u and b. */
@TARGET@ static inline void squares_@ISA@(const double *u, const double *b, double a, double c,
                                          vec_@ISA@ *e, vec_@ISA@ *q)
{
    const vec_@ISA@ r = (a * load_@ISA@(b)) * c, d = load_@ISA@(u) - r;
    *e = d * d;
    *q = r * r;
}

/* sums = the sums of (u - r)^2 and r^2, r = (a * b[j]) * c, over the n
   values j of one row, by block_sum's order with the squares formed in
   registers rather than staged. */
@TARGET@ static void row_sums_@ISA@(const double *u, const double *b, double a, double c,
                                    ptrdiff_t n, double sums[2])
{
    double d2 = 0.0, r2 = 0.0;
    ptrdiff_t i = 0;
    if (n >= 8) {
        vec_@ISA@ e[8 / W], q[8 / W], de, dq;
        for (int k = 0; k < 8 / W; k++)
            squares_@ISA@(u + W * k, b + W * k, a, c, &e[k], &q[k]);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8 / W; k++) {
                squares_@ISA@(u + i + W * k, b + i + W * k, a, c, &de, &dq);
                e[k] += de;
                q[k] += dq;
            }
        d2 = combine_@ISA@(e);
        r2 = combine_@ISA@(q);
    }
    for (; i < n; i++) {
        const double r = (a * b[i]) * c, d = u[i] - r;
        d2 += d * d;
        r2 += r * r;
    }
    sums[0] = d2;
    sums[1] = r2;
}

/* sums = the pairwise sums of (u - r)^2 and r^2, r = (a * b) * c, over the
   run of n values from flat index start: in registers if the run lies in
   one row, else staged row by row. */
@TARGET@ static void pairwise_sums_@ISA@(const struct fields *f, ptrdiff_t start, ptrdiff_t n,
                                         double sums[2])
{
    if (n > BLOCK) {
        ptrdiff_t half = n / 2;
        double a[2], b[2];
        half -= half % 8;
        pairwise_sums_@ISA@(f, start, half, a);
        pairwise_sums_@ISA@(f, start + half, n - half, b);
        sums[0] = a[0] + b[0];
        sums[1] = a[1] + b[1];
        return;
    }
    ptrdiff_t row = start / f->cols, col = start % f->cols;
    if (col + n <= f->cols) {
        row_sums_@ISA@(f->u + row * f->u_row_stride + col, f->b + col, f->a[row], f->c, n, sums);
        return;
    }
    double d2[BLOCK], r2[BLOCK];
    for (ptrdiff_t i = 0; i < n; row++, col = 0) {
        const double *u = f->u + row * f->u_row_stride + col, *b = f->b + col, a = f->a[row];
        ptrdiff_t take = f->cols - col < n - i ? f->cols - col : n - i;
        for (ptrdiff_t j = 0; j < take; j++) {
            const double r = (a * b[j]) * f->c, d = u[j] - r;
            d2[i + j] = d * d;
            r2[i + j] = r * r;
        }
        i += take;
    }
    sums[0] = block_sum_@ISA@(d2, n);
    sums[1] = block_sum_@ISA@(r2, n);
}

/* out = {sum of (u - r)^2, sum of r^2} over the field, r = (a * b) * c with
   a one value per row and b one per column, in the order of numpy's sum()
   of the flattened (rows x cols) array. */
@TARGET@ void error_sums_@ISA@(const double *u, ptrdiff_t u_row_stride, const double *a,
                               const double *b, double c, ptrdiff_t rows, ptrdiff_t cols,
                               double *out)
{
    const struct fields f = {u, a, b, u_row_stride, cols, c};
    double sums[2];
    pairwise_sums_@ISA@(&f, 0, rows * cols, sums);
    out[0] = 0.0 + sums[0];
    out[1] = 0.0 + sums[1];
}

/* Make steps first .. first + steps - 1 on the fields of prev and curr: step
   0 with v is curr = S_u prev + tau * S_v v, any other prev = S curr - prev
   and a swap, so that curr holds the newest field.  Step 0 first fills the
   ghosts it reads, of prev and v or of curr, leaving the ring.  After step
   k the ghosts are filled and, with sums, row k of sums gets error_sums of
   the (side x side) field against (a * b) * factors[k], a and b of side
   values each.  Returns whether prev and curr end swapped. */
@TARGET@ int march_@ISA@(const ptrdiff_t *plan, const double *coeffs, double *prev, double *curr,
                         double *v, double tau, ptrdiff_t first, ptrdiff_t steps,
                         const double *a, const double *b, const double *factors, double *sums)
{
    const ptrdiff_t width = plan[WIDTH], lo = plan[LO], size = plan[SIZE];
    const struct table first_u = {plan + HEADER, coeffs, plan[COUNT_U]};
    const struct table first_v = {first_u.off + first_u.count, first_u.c + first_u.count,
                                  plan[COUNT_V]};
    const struct table two = {first_v.off + first_v.count, first_v.c + first_v.count,
                              plan[COUNT_TWO]};
    const ptrdiff_t *lines = two.off + two.count;
    int swapped = 0;
    if (first == 0)
        fill_ghosts(v ? prev : curr, plan, lines, 0);
    if (first == 0 && v)
        fill_ghosts(v, plan, lines, 0);
    for (ptrdiff_t k = first; k < first + steps; k++) {
        if (k == 0 && v) {
            stencil_@ISA@(prev, v, curr, tau, width, lo, size, first_u, first_v);
        } else {
            double *next = prev;
            stencil_@ISA@(curr, NULL, next, 0.0, width, lo, size, two, two);
            prev = curr;
            curr = next;
            swapped = !swapped;
        }
        fill_ghosts(curr, plan, lines, 1);
        if (sums) {
            const double *field = curr + plan[ORIGIN] * (width + 1);
            error_sums_@ISA@(field, width, a, b, factors[k], plan[SIDE], plan[SIDE],
                             sums + 2 * k);
        }
    }
    return swapped;
}

#undef LANES
#undef VECTORS
#undef W
"""

# (name, doubles per vector register), in the order of isa_level().  The
# baseline is SSE2 on x86-64 and NEON on arm64; the others are GCC target
# names, never "fma", and -ffp-contract=off holds inside them.
ISAS = (("baseline", 2), ("avx2", 4), ("avx512f", 8))


def _expand(isa: str, width: int) -> str:
    """The vector loops of one instruction set."""
    target = "" if isa == "baseline" else f'__attribute__((target("{isa}")))'
    text = _VECTOR_LOOPS.replace("@ISA@", isa).replace("@W@", str(width))
    return text.replace("@TARGET@", target)


SOURCE = "".join(
    (_SHARED, _expand(*ISAS[0]), "\n#if defined(__x86_64__)\n",
     *(_expand(*isa) for isa in ISAS[1:]), "#endif\n")
)

COMMAND = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
# Each instruction set exports these, suffixed by its name, with their
# (argument types, result type).  The simulator calls only ``march``.
# ``error_sums`` is exported for the tests alone: they reach the pairwise
# order through it at run lengths such as 8, 128 and 129 values, which no
# (n+1)^2 field of a march has.
_SIGNATURES = {
    "march": ((_P, _P, _P, _P, _P, _D, _N, _N, _P, _P, _P, _P), ctypes.c_int),
    "error_sums": ((_P, _N, _P, _P, _D, _N, _N, _P), None),
}


class Kernel(NamedTuple):
    """One instruction set's bound loops (see ``ISAS``), immutable, as ``variants()`` shares it."""

    isa: str
    march: Callable
    error_sums: Callable


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


def _bind(path: Path) -> tuple[Kernel, ...] | None:
    """The library's kernels that this host runs, best first; None if unloadable."""
    try:
        lib = ctypes.CDLL(str(path))
        lib.isa_level.argtypes, lib.isa_level.restype = (), ctypes.c_int
        kernels = []
        for isa, _ in ISAS[: lib.isa_level() + 1]:
            functions = {}
            for name, (argtypes, restype) in _SIGNATURES.items():
                function = functions[name] = getattr(lib, f"{name}_{isa}")
                function.argtypes, function.restype = argtypes, restype
            kernels.append(Kernel(isa, **functions))
    except (OSError, AttributeError):
        return None
    return tuple(reversed(kernels))


def library_name() -> str:
    """The cached library's file name, keyed by the source, flags and machine."""
    key = zlib.crc32("\0".join((SOURCE, *COMMAND, platform.machine())).encode())
    return f"stencil-{key:08x}.so"


def _load_from(directory: Path) -> tuple[Kernel, ...] | None:
    """The kernels of the library in ``directory``, built there first if
    missing or unloadable.

    A fresh build that loads deletes the directory's other ``stencil-*.so``
    libraries, left by earlier sources or flags, so the cache holds one
    library.  A load that finds its library deletes nothing.  The price: two
    versions that share a cache and are used alternately rebuild once per
    switch.
    """
    target = directory / library_name()
    if target.exists():
        kernels = _bind(target)
        if kernels is not None:
            return kernels
    kernels = _bind(target) if _build(target) else None
    if kernels is not None:
        for stale in directory.glob("stencil-????????.so"):
            if stale.name != target.name:
                with contextlib.suppress(OSError):
                    stale.unlink()
    return kernels


@functools.cache
def variants() -> tuple[Kernel, ...]:
    """The compiled kernels this host runs, widest instruction set first.

    Built on first use; empty when they cannot be had.  Writes nothing to
    the terminal: a missing compiler or a failed build only selects the
    numpy path.
    """
    if os.name != "posix":
        return ()
    cache = _cache_dir()
    if cache is not None:
        return _load_from(cache) or ()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            return _load_from(Path(scratch)) or ()
    except OSError:
        return ()


def load() -> Kernel | None:
    """The compiled kernel that the simulator runs: the first of ``variants()``,
    or None when there is none."""
    kernels = variants()
    return kernels[0] if kernels else None
