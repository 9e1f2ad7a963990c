"""The error sums against numpy's own sums, bit for bit.

``run()`` sums each step's squared errors and squared reference in the order
of numpy's ``sum()`` over the flattened field: pairwise, in runs of at most
128 values of 8 partial sums each.  The numpy march and ``relative_l2_error``
call numpy's sums themselves (``simulator._error_sums``); the compiled march
replays that order term for term through each variant's exported
``error_sums``.  All must give numpy's exact bits for any field, including
sizes at the order's seams (8, 128, 129 and 256 values), strided views,
signed zeros, infinities and nans.  A numpy that changed its order would
fail here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils import _kernel
from poisson_stencils.simulator import _error_sums

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


def numpy_sums(u, s, c):
    r = s * c
    return np.square(u - r).sum(), np.square(r).sum()


def bits(values):
    return [float(v).hex() for v in values]


def kernel_sums(u, s, c):
    """The error sums of the kernel in use: the compiled export, else numpy's.

    ``u`` needs a unit column stride and ``s`` C order, as in the march.
    """
    lib = _kernel.load()
    if lib is None:
        return _error_sums(u, s, c, np.empty((2, *u.shape)))
    out = np.empty(2)
    lib.error_sums(u.ctypes.data, u.strides[0] // 8, s.ctypes.data, c, *u.shape, out.ctypes.data)
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
    """(u, s, c) on an (n+1) x (n+1) grid, u possibly a strided view."""
    side = draw(st.one_of(st.integers(min_value=2, max_value=300),
                          st.sampled_from([2, 3, 4, 11, 12, 16, 17])))
    pad = draw(st.sampled_from([0, 0, 1, 5]))
    u = draw(fields((side + 2 * pad, side + 3 * pad)))[pad : pad + side, 2 * pad : 2 * pad + side]
    s = draw(fields((side, side)))
    c = draw(st.one_of(st.just(1.0), st.floats(min_value=-2.0, max_value=2.0),
                       st.sampled_from(SPECIAL)))
    return u, s, c


@settings(max_examples=300, deadline=None)
@given(case=sums_cases())
def test_error_sums_are_numpys_sums(kernels, case):
    u, s, c = case
    with np.errstate(all="ignore"):
        want = bits(numpy_sums(u, s, c))
        for name, path in kernels:
            with path():
                assert bits(kernel_sums(u, s, c)) == want, name


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
    s = data.draw(fields((rows, cols)))
    c = data.draw(st.sampled_from([1.0, 0.5, -0.75]))
    with np.errstate(all="ignore"):
        want = bits(numpy_sums(u, s, c))
        for name, path in kernels[:-1]:
            with path():
                assert bits(kernel_sums(u, s, c)) == want, name
