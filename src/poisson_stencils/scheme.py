"""Assembly of explicit time-marching stencil schemes from Lagrange bases.

A scheme is three per-offset coefficient tables, each entry an exact
polynomial in the Courant number: the first time-step combines the initial
displacement and velocity fields, every later step is a two-step update
(the trailing -u^{k-1} term is implicit).  Each offset's velocity weight is
the disc mean of its basis function; Poisson's identity turns it into the
displacement weight, and the two-step weight is twice that.  Offsets whose
velocity weight is identically zero are dropped, which is an exact rational
test, not a tolerance test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .interpolation import Offset, lagrange_basis
from .quadrature import LambdaPoly, b_on_polynomial, poisson_identity

NAMED_SCHEMES = ("P5", "C5", "P9", "C9", "P13", "C13")

# The boundary conditions the simulator marches a scheme under.  This and
# DegenerateNormError live here, not in the simulator, so that the CLI can
# name them without loading numpy.
BOUNDARY_CONDITIONS = ("dirichlet", "periodic")


class UnknownSchemeError(Exception):
    """Requested scheme name is not one of the bundled schemes."""


class DegenerateNormError(Exception):
    """The reference solution vanishes at every sampled point; E is undefined."""


@dataclass(frozen=True)
class SchemeSpec:
    """Complete explicit scheme: first-step and two-step coefficient tables.

    ``first_u`` and ``first_v`` weight the initial displacement and the
    (time-step-scaled) initial velocity in the first update; ``two_step``
    weights the current field in all later updates, with the previous field
    entering with implicit coefficient -1.  Tables store only offsets with a
    nonzero coefficient.  The tables are read-only copies of the mappings
    passed in, keeping their order: the simulator sums offsets in table order.
    """

    name: str
    first_u: Mapping[Offset, LambdaPoly] = field(hash=False)
    first_v: Mapping[Offset, LambdaPoly] = field(hash=False)
    two_step: Mapping[Offset, LambdaPoly] = field(hash=False)

    def __post_init__(self):
        for role in ("first_u", "first_v", "two_step"):
            object.__setattr__(self, role, MappingProxyType(dict(getattr(self, role))))

    def __eq__(self, other):
        """Equal names and tables, each in the same order: two specs whose
        tables differ only in order may march different bits, so they are
        not equal and share no cache entry."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ordered() == other._ordered()

    def _ordered(self) -> tuple:
        tables = (self.first_u, self.first_v, self.two_step)
        return (self.name, *(tuple(table.items()) for table in tables))

    def __reduce__(self):
        tables = (dict(self.first_u), dict(self.first_v), dict(self.two_step))
        return SchemeSpec, (self.name, *tables)

    @property
    def offsets(self) -> tuple[Offset, ...]:
        """Retained offsets, first-step order, union over all tables."""
        seen = dict.fromkeys(self.first_u)
        seen.update(dict.fromkeys(self.first_v))
        return tuple(seen)

    @functools.cached_property
    def radius(self) -> int:
        """Largest |offset component| over all three tables (0 when all are
        empty), computed once per spec."""
        tables = (self.first_u, self.first_v, self.two_step)
        return max((max(abs(q1), abs(q2)) for table in tables for q1, q2 in table), default=0)


def evaluate_table(table: Mapping[Offset, LambdaPoly], lam: float) -> list[tuple[Offset, float]]:
    """(offset, coefficient at ``lam`` as a float) pairs in table order.

    The simulator and the stability analysis both evaluate tables here.
    """
    return [(offset, poly(lam)) for offset, poly in table.items()]


def generate_scheme(m: int, name: str | None = None) -> SchemeSpec:
    """Derive the scheme generated by the size-m Lagrange basis.

    Each basis function attached to offset s contributes its exact disc mean
    to ``first_v[s]`` and, by Poisson's identity, the displacement weight to
    ``first_u[s]``; the two-step table is twice the first.  Offsets whose disc
    mean vanishes (every odd-exponent monomial integrates to zero) are
    pruned; their displacement weight vanishes too.  Propagates
    :class:`~poisson_stencils.interpolation.SingularMatrixError` when the
    basis does not exist.
    """
    basis = lagrange_basis(m)
    first_u: dict[Offset, LambdaPoly] = {}
    first_v: dict[Offset, LambdaPoly] = {}
    two_step: dict[Offset, LambdaPoly] = {}
    for s, offset in enumerate(basis.nodes):
        v_val = b_on_polynomial(basis.polynomial(s))
        if v_val:
            u_val = poisson_identity(v_val)
            first_u[offset] = u_val
            first_v[offset] = v_val
            two_step[offset] = 2 * u_val
    if name is None:
        name = f"P{len(first_v)}"
    return SchemeSpec(name=name, first_u=first_u, first_v=first_v, two_step=two_step)


def conventional_first_step(spec: SchemeSpec, name: str | None = None) -> SchemeSpec:
    """Replace the first-step velocity table by the bare central-difference one.

    The conventional first step adds tau times the initial velocity at the
    center only; the displacement part and the two-step table are unchanged.
    """
    center_only = {(0, 0): LambdaPoly.constant(1)}
    return replace(
        spec,
        name=name or f"conventional-{spec.name}",
        first_v=center_only,
    )


def isotropic_nine_point() -> SchemeSpec:
    """Conventional nine-point scheme built from the isotropic Laplacian.

    Two-step weights: 2/3 lam^2 on the four axis neighbors, 1/6 lam^2 on the
    four corners, the center balancing so constants are preserved.  The first
    step pairs half these weights with the central-difference velocity table.
    """
    axis = LambdaPoly({2: Fraction(2, 3)})
    corner = LambdaPoly({2: Fraction(1, 6)})
    center = LambdaPoly({0: 2, 2: -Fraction(10, 3)})
    offsets_axis = [(-1, 0), (0, -1), (1, 0), (0, 1)]
    offsets_corner = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    two_step: dict[Offset, LambdaPoly] = {(0, 0): center}
    two_step.update({off: axis for off in offsets_axis})
    two_step.update({off: corner for off in offsets_corner})
    first_u = {off: poly * Fraction(1, 2) for off, poly in two_step.items()}
    first_v = {(0, 0): LambdaPoly.constant(1)}
    return SchemeSpec(name="isotropic9", first_u=first_u, first_v=first_v, two_step=two_step)


def named_scheme(name: str) -> SchemeSpec:
    """One of the six bundled schemes: P5, C5, P9, C9, P13, C13.

    P-variants derive both procedures from the Lagrange basis; C-variants use
    the conventional central-difference first step (C9 on the isotropic
    two-step table, C5/C13 on the matching P-table).  Names are matched
    case-insensitively, and each scheme is derived once per process: every
    call with one name returns the same immutable spec.
    """
    key = name.upper() if isinstance(name, str) else None
    if key not in NAMED_SCHEMES:
        raise UnknownSchemeError(f"unknown scheme {name!r}; expected one of {NAMED_SCHEMES}")
    return _named_scheme(key)


@functools.cache  # at most the six NAMED_SCHEMES
def _named_scheme(key: str) -> SchemeSpec:
    if key == "P5":
        return generate_scheme(6, "P5")
    if key == "P9":
        return generate_scheme(11, "P9")
    if key == "P13":
        return generate_scheme(15, "P13")
    if key == "C9":
        return conventional_first_step(isotropic_nine_point(), "C9")
    return conventional_first_step(_named_scheme(f"P{key[1:]}"), key)


def serialize_tables(spec: SchemeSpec) -> str:
    """Plain-text coefficient tables, one line per offset and role.

    Line format: ``q1 q2 role power:coefficient ...`` with exact rational
    coefficients (``-1/12``) and ascending powers of the Courant number.
    """
    lines = []
    for role in ("first_u", "first_v", "two_step"):
        table = getattr(spec, role)
        for (q1, q2), poly in table.items():
            tokens = " ".join(f"{p}:{c}" for p, c in poly.items())
            lines.append(f"{q1} {q2} {role} {tokens}")
    return "\n".join(lines) + "\n"
