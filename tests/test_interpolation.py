from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_stencils.interpolation import (
    SingularMatrixError,
    _invert_exact,
    _monomial_at,
    alpha_of_q,
    lagrange_basis,
    monomial_segment,
    ordinal_g,
    q_of_alpha,
    stencil_nodes,
)

BASIS_SIZES = (6, 11, 15)


@pytest.mark.parametrize("q,expected", [(0, 0), (-1, 1), (2, 4), (-3, 5), (5, 10)])
def test_alpha_of_q(q, expected):
    assert alpha_of_q(q) == expected


@pytest.mark.parametrize("alpha,expected", [(0, 0), (3, -2), (4, 2), (1, -1), (7, -4)])
def test_q_of_alpha(alpha, expected):
    assert q_of_alpha(alpha) == expected


def test_offset_exponent_bijection():
    for alpha in range(201):
        assert alpha_of_q(q_of_alpha(alpha)) == alpha
    for q in range(-100, 101):
        assert q_of_alpha(alpha_of_q(q)) == q


@pytest.mark.parametrize("pair,expected", [((0, 0), 1), ((1, 1), 4), ((2, 2), 11)])
def test_ordinal_g_known_values(pair, expected):
    assert ordinal_g(*pair) == expected


def test_ordinal_g_is_bijective_onto_initial_segment():
    m = 200
    ordinals = {
        ordinal_g(a1, a2)
        for d in range(2 * m)
        for a1 in range(d + 1)
        for a2 in [d - a1]
        if ordinal_g(a1, a2) <= m
    }
    assert ordinals == set(range(1, m + 1))


def test_monomial_segment_m6():
    assert monomial_segment(6) == [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


def test_monomial_segment_m11_ends_with_mixed_fourth_degree():
    segment = monomial_segment(11)
    assert segment[-1] == (2, 2)
    assert segment[:6] == monomial_segment(6)
    assert set(segment[6:10]) == {(2, 1), (1, 2), (3, 0), (0, 3)}


def test_monomial_segment_m15_is_complete_fourth_degree():
    segment = monomial_segment(15)
    assert segment[-2:] == [(4, 0), (0, 4)]
    assert set(segment) == {(a1, a2) for a1 in range(5) for a2 in range(5) if a1 + a2 <= 4}


def test_monomial_segment_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        monomial_segment(0)


def test_stencil_nodes_m6():
    assert stencil_nodes(6) == [(0, 0), (-1, 0), (0, -1), (-1, -1), (1, 0), (0, 1)]


def test_stencil_nodes_m11_includes_distance_two_arms():
    nodes = stencil_nodes(11)
    assert (-2, 0) in nodes and (0, -2) in nodes


def test_stencil_nodes_m15_includes_knight_offsets():
    nodes = stencil_nodes(15)
    assert (-2, -1) in nodes and (-1, -2) in nodes
    assert len(set(nodes)) == 15


def test_lagrange_basis_m6_determinant():
    assert lagrange_basis(6).det == 4


def test_lagrange_basis_m6_known_functions():
    basis = lagrange_basis(6)
    by_node = {node: s for s, node in enumerate(basis.nodes)}
    assert basis.polynomial(by_node[(-1, -1)]) == {(1, 1): Fraction(1)}
    assert basis.polynomial(by_node[(1, 0)]) == {
        (1, 0): Fraction(1, 2),
        (2, 0): Fraction(1, 2),
    }
    assert basis.polynomial(by_node[(0, 0)]) == {
        (0, 0): Fraction(1),
        (1, 1): Fraction(1),
        (2, 0): Fraction(-1),
        (0, 2): Fraction(-1),
    }


@pytest.mark.parametrize("m", BASIS_SIZES)
def test_kronecker_property(m):
    basis = lagrange_basis(m)
    for s in range(m):
        for r, node in enumerate(basis.nodes):
            assert basis.evaluate(s, node) == int(s == r)


@pytest.mark.parametrize("m", BASIS_SIZES)
def test_partition_of_unity(m):
    basis = lagrange_basis(m)
    total = [sum(basis.coeffs[s][r] for s in range(m)) for r in range(m)]
    constant_one = [Fraction(int(mu == (0, 0))) for mu in basis.monomials]
    assert total == constant_one


@pytest.mark.parametrize("m", BASIS_SIZES)
def test_polynomial_reproduction(m):
    # sum_s mu(node_s) * L_s == mu, coefficient-wise, for every segment monomial
    basis = lagrange_basis(m)
    for r, mu in enumerate(basis.monomials):
        values = [node[0] ** mu[0] * node[1] ** mu[1] for node in basis.nodes]
        for t in range(m):
            acc = sum(values[s] * basis.coeffs[s][t] for s in range(m))
            assert acc == int(t == r)


@pytest.mark.parametrize("m", range(1, 26))
def test_small_sizes_are_unisolvent_or_report_singularity(m):
    try:
        basis = lagrange_basis(m)
    except SingularMatrixError:
        return
    assert basis.det != 0
    for s in range(m):
        assert basis.evaluate(s, basis.nodes[s]) == 1


def test_singular_system_is_reported():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError):
        _invert_exact(rows)


def gauss_jordan_reference(matrix):
    """(inverse, determinant) by Gauss-Jordan over Fraction, normalising each pivot row.

    An independent reference for the fraction-free ``_invert_exact``: it
    divides as it goes, keeps the inverse in a second matrix and multiplies
    the determinant up pivot by pivot.  It raises the same
    ``SingularMatrixError`` message at the first column without a pivot.
    """
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(
                f"evaluation matrix is singular at column {col + 1} of {n}"
            )
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        p = work[col][col]
        det *= p
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv, det


def outcome(invert, matrix):
    """(inverse, determinant) of ``invert``, or the message of its singular error."""
    try:
        return invert(matrix)
    except SingularMatrixError as exc:
        return str(exc)


def assert_matches_reference(matrix):
    expected = outcome(gauss_jordan_reference, matrix)
    got = outcome(_invert_exact, matrix)
    assert got == expected
    if isinstance(got, str):
        return
    inverse, det = got
    assert type(det) is Fraction and all(type(x) is Fraction for row in inverse for x in row)
    n = len(matrix)
    product = [
        [sum(matrix[i][k] * inverse[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def small_integer_matrices(draw):
    # Entries in -3..3 leave many of the matrices singular, some only at a
    # late column; the square of a drawn matrix adds larger entries.
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in rows]
    return rows


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices())
def test_elimination_matches_fraction_reference(matrix):
    assert_matches_reference(matrix)


@pytest.mark.parametrize("m", range(1, 29))
def test_node_matrix_elimination_matches_fraction_reference(m):
    nodes = stencil_nodes(m)
    assert_matches_reference([[_monomial_at(mu, node) for mu in monomial_segment(m)]
                              for node in nodes])
