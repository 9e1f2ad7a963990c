"""Explicit stencil schemes for the 2D acoustic wave equation.

Derives first-step and two-step update tables from exact-rational Lagrange
interpolation combined with exact unit-disc integration, analyzes their von
Neumann stability, and reproduces the standing-wave benchmark error tables.

The exact half (interpolation, quadrature, schemes, stability) does not
load numpy.  The simulator's names are resolved on first use by a module
``__getattr__`` (PEP 562), so ``import poisson_stencils`` loads neither
numpy nor the compiled kernel until one of them is asked for.
"""

import importlib

from .interpolation import (
    LagrangeBasis,
    SingularMatrixError,
    alpha_of_q,
    lagrange_basis,
    monomial_segment,
    ordinal_g,
    q_of_alpha,
    stencil_nodes,
)
from .quadrature import (
    LambdaPoly,
    a_on_monomial,
    a_on_polynomial,
    b_on_monomial,
    b_on_polynomial,
    double_factorial,
    quad_oracle,
    quad_oracle_b,
)
from .scheme import (
    NAMED_SCHEMES,
    DegenerateNormError,
    SchemeSpec,
    UnknownSchemeError,
    conventional_first_step,
    generate_scheme,
    isotropic_nine_point,
    named_scheme,
    serialize_tables,
)
from .stability import Envelope, NeverStableError, SymbolSample, envelope, lambda_max, symbol

__version__ = "0.1.0"

# Names of ``simulator``, which imports numpy, resolved when first asked for.
_SIMULATOR_NAMES = (
    "Separable",
    "SimConfig",
    "SimReport",
    "dump_grid_csv",
    "exact_standing_wave",
    "first_step",
    "relative_l2_error",
    "run",
    "standing_wave_initial_u",
    "standing_wave_initial_v",
    "two_step",
)


def __getattr__(name):
    if name == "simulator" or name in _SIMULATOR_NAMES:
        simulator = importlib.import_module(".simulator", __name__)
        return simulator if name == "simulator" else getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SIMULATOR_NAMES})


__all__ = [
    "LagrangeBasis",
    "SingularMatrixError",
    "alpha_of_q",
    "lagrange_basis",
    "monomial_segment",
    "ordinal_g",
    "q_of_alpha",
    "stencil_nodes",
    "LambdaPoly",
    "a_on_monomial",
    "a_on_polynomial",
    "b_on_monomial",
    "b_on_polynomial",
    "double_factorial",
    "quad_oracle",
    "quad_oracle_b",
    "NAMED_SCHEMES",
    "SchemeSpec",
    "UnknownSchemeError",
    "conventional_first_step",
    "generate_scheme",
    "isotropic_nine_point",
    "named_scheme",
    "serialize_tables",
    "Envelope",
    "NeverStableError",
    "SymbolSample",
    "envelope",
    "lambda_max",
    "symbol",
    "DegenerateNormError",
    *_SIMULATOR_NAMES,
    "__version__",
]
