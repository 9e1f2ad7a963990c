"""Walk through deriving the five-point scheme, then print all bundled tables.

The derivation has three stages: pick the first m monomials in the graded
order, build the exact Lagrange basis on the matching stencil nodes, and
take each basis function's weighted disc mean, the velocity weight.
Poisson's identity d/dlam(lam * B) turns it into the displacement weight.
Offsets whose disc mean vanishes drop out of the final stencil.
"""

from poisson_stencils import (
    NAMED_SCHEMES,
    b_on_polynomial,
    lagrange_basis,
    named_scheme,
    serialize_tables,
)
from poisson_stencils.quadrature import poisson_identity

# Stage 1+2: the size-6 basis covers all second-degree polynomials.
basis = lagrange_basis(6)
print("monomial segment:", basis.monomials)
print("stencil nodes:   ", basis.nodes)
print("evaluation matrix determinant:", basis.det)
print()

# Stage 3: the disc mean of each basis function is its velocity weight; the
# displacement weight follows from it by Poisson's identity.
print("per-node update weights (exact polynomials in the Courant number):")
for s, node in enumerate(basis.nodes):
    v_weight = b_on_polynomial(basis.polynomial(s))
    u_weight = poisson_identity(v_weight)
    note = "   <- drops out (the disc mean vanishes)" if not v_weight else ""
    print(f"  node {node}: velocity {v_weight!r}, displacement {u_weight!r}{note}")
print()

# The node (-1,-1) vanished, so the assembled scheme is the five-point one.
p5 = named_scheme("P5")
print(f"assembled {p5.name}: {len(p5.offsets)} offsets, radius {p5.radius}")
print()

print("all bundled schemes in the plain-text table format:")
for name in NAMED_SCHEMES:
    spec = named_scheme(name)
    print(f"--- {name} ({len(spec.offsets)} offsets)")
    print(serialize_tables(spec))
