"""Ordered bivariate monomials and exact Lagrange bases on stencil nodes.

Monomials x1^a1 * x2^a2 (in grid-scaled coordinates, so all node values are
integers) are ordered by total degree, with the difference of the individual
degrees breaking ties.  Each exponent maps to a signed grid offset, so the
first m monomials determine both an interpolation space and a stencil of m
nodes.  The Lagrange basis for that pair is computed exactly over rationals;
its coefficient matrix is independent of the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Monomial = tuple[int, int]
Offset = tuple[int, int]


class SingularMatrixError(Exception):
    """The stencil node set is not unisolvent for the monomial space."""


def alpha_of_q(q: int) -> int:
    """Exponent attached to the signed grid offset q (0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...)."""
    return 2 * q if q >= 0 else 2 * (-q) - 1


def q_of_alpha(alpha: int) -> int:
    """Signed grid offset attached to the exponent alpha; inverse of :func:`alpha_of_q`."""
    half = (alpha + 1) // 2
    return half if alpha % 2 == 0 else -half


def ordinal_g(a1: int, a2: int) -> int:
    """1-based position of x1^a1 * x2^a2 in the graded monomial order.

    Total degree sorts first; within one degree the ordinal walks outward from
    the diagonal, alternating sides.  The map is a bijection from exponent
    pairs onto the positive integers.
    """
    d = a1 + a2
    tie = a1 - a2 if a2 < a1 else a2 - a1 + 1
    return d * (d + 1) // 2 + tie


def monomial_segment(m: int) -> list[Monomial]:
    """First m exponent pairs in the graded order (ordinals 1..m)."""
    if m < 1:
        raise ValueError(f"segment size must be >= 1, got {m}")
    by_ordinal: dict[int, Monomial] = {}
    d = 0
    # Degree-d ordinals start at d(d+1)/2 + 1, so stop once a block begins past m.
    while d * (d + 1) // 2 < m:
        for a1 in range(d + 1):
            a2 = d - a1
            s = ordinal_g(a1, a2)
            if s <= m:
                by_ordinal[s] = (a1, a2)
        d += 1
    return [by_ordinal[s] for s in range(1, m + 1)]


def stencil_nodes(m: int) -> list[Offset]:
    """Stencil offsets attached to the first m monomials, in the same order."""
    return [(q_of_alpha(a1), q_of_alpha(a2)) for a1, a2 in monomial_segment(m)]


def _monomial_at(mu: Monomial, node: Offset) -> int:
    a1, a2 = mu
    q1, q2 = node
    return q1**a1 * q2**a2


def _invert_exact(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], Fraction]:
    """Gauss-Jordan inverse over exact rationals; returns (inverse, determinant)."""
    n = len(matrix)
    work = [row[:] for row in matrix]
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


@dataclass(frozen=True)
class LagrangeBasis:
    """Exact Lagrange basis over the first m graded monomials and their nodes.

    ``coeffs[s][r]`` is the coefficient of ``monomials[r]`` in basis function
    s; basis function s equals 1 at ``nodes[s]`` and 0 at every other node.
    ``det`` is the determinant of the node-evaluation matrix (scaled
    coordinates), nonzero exactly when the interpolation problem is
    unisolvent.
    """

    m: int
    monomials: tuple[Monomial, ...]
    nodes: tuple[Offset, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]
    det: Fraction

    def polynomial(self, s: int) -> dict[Monomial, Fraction]:
        """Basis function s as a sparse monomial -> coefficient map."""
        return {mu: c for mu, c in zip(self.monomials, self.coeffs[s]) if c}

    def evaluate(self, s: int, node: Offset) -> Fraction:
        """Exact value of basis function s at an integer grid offset."""
        return sum(
            (c * _monomial_at(mu, node) for mu, c in zip(self.monomials, self.coeffs[s])),
            Fraction(0),
        )


def lagrange_basis(m: int) -> LagrangeBasis:
    """Build the exact Lagrange basis of size m.

    The evaluation matrix holds every monomial's integer value at every node;
    it is inverted exactly over rationals.  Raises
    :class:`SingularMatrixError` when the node set is not unisolvent for the
    monomial space (the determinant vanishes).
    """
    monomials = monomial_segment(m)
    nodes = stencil_nodes(m)
    evaluation = [
        [Fraction(_monomial_at(mu, node)) for mu in monomials] for node in nodes
    ]
    inverse, det = _invert_exact(evaluation)
    # Column s of the inverse expands basis function s over the monomials.
    coeffs = tuple(tuple(inverse[r][s] for r in range(m)) for s in range(m))
    return LagrangeBasis(
        m=m,
        monomials=tuple(monomials),
        nodes=tuple(nodes),
        coeffs=coeffs,
        det=det,
    )
