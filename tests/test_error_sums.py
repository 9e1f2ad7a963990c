"""The error sums against numpy's own sums, bit for bit.

``run()`` sums each step's squared errors and squared reference in the order
of numpy's ``sum()`` over the flattened field: pairwise, in runs of at most
128 values of 8 partial sums each.  The reference is the standing wave
r = (a[:, None] * b[None, :]) * c, given as its sines a (one per row) and b
(one per column).  The numpy march and ``relative_l2_error`` build that
field and call numpy's sums themselves (``simulator._error_sums``); the
compiled march forms r per node and replays that order term for term
through each variant's exported ``error_sums``.  On rows of W to 127
values (W doubles per register), a run of at most 128 values (a leaf) is
summed in registers W flat values at a time, a register that crosses a row
end taking its lanes from both rows.  On other rows a leaf that lies in one
row is summed in registers, and one that crosses a row end is staged first.
All must give numpy's exact bits for any field and sines, including sizes
at the order's seams (8, 128, 129 and 256 values), every kind of leaf and
register, rows shorter than 8 values, strided views, signed zeros,
infinities and nans.  A numpy that changed its order would fail here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils import _kernel
from poisson_stencils.simulator import _error_sums, _space

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


def numpy_sums(u, a, b, c):
    r = (a[:, None] * b[None, :]) * c
    return np.square(u - r).sum(), np.square(r).sum()


def bits(values):
    return [float(v).hex() for v in values]


def kernel_sums(u, a, b, c):
    """The error sums of the kernel in use: the compiled export, else numpy's
    on the march's field ``_space(a, b)``.

    ``u`` needs a unit column stride and ``a`` and ``b`` C order, as in the
    march.
    """
    lib = _kernel.load()
    if lib is None:
        return _error_sums(u, _space(a, b), c, np.empty((2, *u.shape)))
    out = np.empty(2)
    lib.error_sums(u.ctypes.data, u.strides[0] // 8, a.ctypes.data, b.ctypes.data, c, *u.shape,
                   out.ctypes.data)
    return out


@st.composite
def fields(draw, shape):
    """A float64 array of ``shape``: normal values over 20 decades, with
    signed zeros and, when drawn, infinities and nans sprinkled in."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-10, 10, shape)
    share = draw(st.sampled_from([0.0, 0.01, 0.3]))
    special = rng.random(shape) < share
    choices = SPECIAL if draw(st.booleans()) else SPECIAL[:2]
    values[special] = rng.choice(choices, size=shape)[special]
    return values


@st.composite
def sums_cases(draw):
    """(u, a, b, c) on an (n+1) x (n+1) grid, u possibly a strided view."""
    side = draw(st.one_of(st.integers(min_value=2, max_value=300),
                          st.sampled_from([2, 3, 4, 11, 12, 16, 17])))
    pad = draw(st.sampled_from([0, 0, 1, 5]))
    u = draw(fields((side + 2 * pad, side + 3 * pad)))[pad : pad + side, 2 * pad : 2 * pad + side]
    a, b = draw(fields((side,))), draw(fields((side,)))
    c = draw(st.one_of(st.just(1.0), st.floats(min_value=-2.0, max_value=2.0),
                       st.sampled_from(SPECIAL)))
    return u, a, b, c


@settings(max_examples=300, deadline=None)
@given(case=sums_cases())
def test_error_sums_are_numpys_sums(kernels, case):
    with np.errstate(all="ignore"):
        want = bits(numpy_sums(*case))
        for name, path in kernels:
            with path():
                assert bits(kernel_sums(*case)) == want, name


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    cols=st.one_of(st.integers(min_value=1, max_value=300),
                   st.sampled_from([7, 8, 9, 64, 127, 128, 129, 255, 256, 257])),
    data=st.data(),
)
def test_compiled_order_holds_for_any_run_length(kernels, rows, cols, data):
    # Rectangular fields put the flattened length exactly on the seams,
    # for example 1 x 8, 1 x 128, 1 x 129 and 2 x 128, for every variant.
    if len(kernels) == 1:
        pytest.skip("no compiled kernel")
    u = data.draw(fields((rows, cols + 3)))[:, 1 : cols + 1]
    a, b = data.draw(fields((rows,))), data.draw(fields((cols,)))
    c = data.draw(st.sampled_from([1.0, 0.5, -0.75]))
    with np.errstate(all="ignore"):
        want = bits(numpy_sums(u, a, b, c))
        for name, path in kernels[:-1]:
            with path():
                assert bits(kernel_sums(u, a, b, c)) == want, name


def leaves(start, n):
    """(first flat index, length) of each run of numpy's pairwise order over
    n values from ``start``: runs of more than 128 split at half their
    length rounded down to a multiple of 8."""
    if n <= 128:
        return [(start, n)]
    half = n // 2 - n // 2 % 8
    return leaves(start, half) + leaves(start + half, n - half)


# Every (rows, cols) shape of 7, 8, 128 and 129 values: one row (each leaf
# in it), rows of 8 or more values that leaves cross, and shorter rows.
# Then single rows of 1 to 16 values, so that in-row leaves end in every
# count of leftover values, and longer fields whose leaves lie in later rows.
SEAM_SHAPES = [
    *((rows, size // rows) for size in (7, 8, 128, 129)
      for rows in range(1, size + 1) if size % rows == 0),
    *((1, cols) for cols in range(1, 17) if cols not in (7, 8)),
    (2, 200), (3, 100), (5, 129),
]


def test_seam_shapes_reach_both_kinds_of_leaf():
    kinds = {size: set() for size in (7, 8, 128, 129)}
    for rows, cols in SEAM_SHAPES:
        if rows * cols not in kinds:
            continue
        for start, n in leaves(0, rows * cols):
            in_row = start // cols == (start + n - 1) // cols
            kinds[rows * cols].add((in_row, cols >= 8))
    # (leaf in one row, row of 8 or more values) at each size
    assert kinds[7] == {(True, False), (False, False)}
    for size in (8, 128, 129):
        assert {(True, True), (False, False)} <= kinds[size], size
    assert (False, True) in kinds[128] and (False, True) in kinds[129]
    in_row = [(start // cols, n) for rows, cols in SEAM_SHAPES for start, n in leaves(0, rows * cols)
              if start // cols == (start + n - 1) // cols]
    assert {n % 8 for _, n in in_row if n >= 8} == set(range(8))
    assert {n for _, n in in_row if n < 8} == set(range(1, 8))
    assert max(row for row, _ in in_row) > 0


@pytest.mark.parametrize("rows, cols", SEAM_SHAPES)
def test_in_row_and_row_crossing_leaves_are_numpys(kernels, rows, cols):
    # A padded field, as the march reads it, on every variant.
    rng = np.random.default_rng(rows * 1000 + cols)
    shape = (rows + 2, cols + 7)
    u = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
    u = u[1 : rows + 1, 3 : cols + 3]
    a, b = rng.standard_normal(rows), rng.standard_normal(cols)
    u[rng.random(u.shape) < 0.1] = -0.0
    for c in (1.0, -0.75):
        want = bits(numpy_sums(u, a, b, c))
        for name, path in kernels:
            with path():
                assert bits(kernel_sums(u, a, b, c)) == want, (name, c)


# W, the doubles per register, of each instruction set in ``_kernel.ISAS``.
WIDTHS = sorted({width for _, width in _kernel.ISAS})
BLOCK = 128


def registers(rows, cols, width):
    """(kind, detail) of each piece of numpy's order over a (rows x cols)
    field that the compiled sums take at register width ``width``.

    On rows of ``width`` to 127 values each leaf is a "flat" leaf: its 8-value
    groups go W values at a time, each register a ("whole", 0) of a group in
    one row, a ("crossing", m) with m of its values in the row, or
    ("in row", 0) inside a group that crosses; its last n % 8 values, one by
    one, a ("tail", crosses a row end).  Otherwise a leaf is ("in-row", n) or
    ("row-crossing", n).
    """
    pieces = []
    for start, n in leaves(0, rows * cols):
        if not width <= cols < BLOCK:
            in_row = start // cols == (start + n - 1) // cols
            pieces.append(("in-row" if in_row else "row-crossing", n))
            continue
        grouped = n - n % 8
        for group in range(start, start + grouped, 8):
            if group % cols + 8 <= cols:
                pieces.append(("whole", 0))
                continue
            for at in range(group, group + 8, width):
                m = cols - at % cols
                pieces.append(("crossing", m) if m < width else ("in row", 0))
        if n % 8:
            tail = start + grouped
            pieces.append(("tail", tail // cols != (start + n - 1) // cols))
    return pieces


# Rows of 2 to 9 values, on each side of every W, and of 127 and 128 values,
# on each side of BLOCK; then every (rows, cols) of 256, 257, 512 and 513
# values, the pairwise order's seams, with rows of 2 to 127 values or of
# other lengths.
FLAT_SHAPES = sorted({
    *((rows, cols) for cols in range(2, 10) for rows in (2, 3, 13)),
    (2, 127), (3, 127), (9, 127), (2, 128), (3, 128),
    *((size // cols, cols) for size in (256, 257, 512, 513) for cols in range(1, size + 1)
      if size % cols == 0),
})


def test_flat_shapes_reach_every_register():
    for width in WIDTHS:
        kinds = {piece for rows, cols in FLAT_SHAPES for piece in registers(rows, cols, width)}
        assert {m for kind, m in kinds if kind == "crossing"} == set(range(1, width)), width
        assert {("whole", 0), ("tail", False)} <= kinds, width
        # Only the last leaf has a tail, which ends the field, so a tail
        # crosses a row end only on rows shorter than 8 values.
        if width < 8:
            assert {("in row", 0), ("tail", True)} <= kinds, width
        # today's leaves, on rows shorter than W or of BLOCK values and more
        assert {"in-row", "row-crossing"} <= {kind for kind, _ in kinds}, width
    # each side of every W and of BLOCK
    assert {*range(1, 10), BLOCK - 1, BLOCK} <= {cols for _, cols in FLAT_SHAPES}


@pytest.mark.parametrize("rows, cols", FLAT_SHAPES)
def test_flat_leaves_are_numpys(kernels, rows, cols):
    # A field padded with nans, as a register that crosses a row end loads
    # past it and masks those lanes out, on every variant.
    rng = np.random.default_rng(rows * 1000 + cols)
    padded = np.full((rows + 2, cols + 9), np.nan)
    u = padded[1 : rows + 1, 8 : cols + 8]
    u[...] = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-5, 5, (rows, cols))
    a, b = rng.standard_normal(rows), rng.standard_normal(cols)
    u[rng.random(u.shape) < 0.1] = -0.0
    for c in (1.0, -0.75):
        want = bits(numpy_sums(u, a, b, c))
        for name, path in kernels:
            with path():
                assert bits(kernel_sums(u, a, b, c)) == want, (name, c)
