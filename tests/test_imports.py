"""The exact half of the package runs without numpy, and the public surface
keeps its names while the simulator loads on first use.

Each numpy-free check runs in a fresh interpreter in which
``sys.modules["numpy"] = None`` makes any import of numpy fail, and compares
its output with that of an interpreter where numpy is importable.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import poisson_stencils
from poisson_stencils import simulator
from poisson_stencils.scheme import NAMED_SCHEMES

SRC = Path(poisson_stencils.__file__).resolve().parent.parent

BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'

# Runs every `generate` and `stability` command through the CLI.
CLI_COMMANDS = f"""
from poisson_stencils import cli
for name in {NAMED_SCHEMES!r}:
    for command in ("generate", "stability"):
        assert cli.main([command, name]) == 0
"""

# Calls the exact API and prints its results.
EXACT_API = """
from poisson_stencils import (
    envelope, generate_scheme, lambda_max, named_scheme, serialize_tables, symbol,
)
print(serialize_tables(generate_scheme(5)))
for name in ("P5", "P9", "C13"):
    spec = named_scheme(name)
    print(serialize_tables(spec))
    print(repr(envelope(spec, 0.5)))
    print(symbol(spec, 0.5, 1.0, 0.25).hex())
    print(lambda_max(spec).hex())
"""

EXPECTED_ALL = [
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
    "__version__",
]


def python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this source tree; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def without_wall_time(text: str) -> list[str]:
    return [line for line in text.splitlines() if "wall_time_s" not in line]


@pytest.mark.parametrize("code", [CLI_COMMANDS, EXACT_API], ids=["cli", "exact_api"])
def test_exact_work_runs_without_numpy(code):
    checked = code + textwrap.dedent("""
        import sys
        loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
        assert sys.modules["numpy"] is None and not loaded, loaded
    """)
    blocked = python(BLOCK_NUMPY + checked)
    assert without_wall_time(blocked) == without_wall_time(python(code))


def test_plain_import_loads_neither_numpy_nor_the_simulator():
    heavy = ("numpy", "ctypes", "poisson_stencils.simulator", "poisson_stencils._kernel")
    code = f"import sys, poisson_stencils; print([m for m in {heavy!r} if m in sys.modules])"
    assert python(code) == "[]\n"


def test_all_is_unchanged():
    assert poisson_stencils.__all__ == EXPECTED_ALL


def test_every_public_name_resolves_and_is_listed():
    namespace = {}
    exec("from poisson_stencils import *", namespace)
    for name in poisson_stencils.__all__:
        assert namespace[name] is getattr(poisson_stencils, name), name
    assert set(poisson_stencils.__all__) <= set(dir(poisson_stencils))


def test_simulator_names_are_the_simulator_objects():
    assert poisson_stencils.simulator is simulator
    assert poisson_stencils.run is simulator.run
    assert poisson_stencils.SimConfig is simulator.SimConfig
    assert poisson_stencils.DegenerateNormError is simulator.DegenerateNormError
    assert poisson_stencils.scheme.BOUNDARY_CONDITIONS is simulator.BOUNDARY_CONDITIONS


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        poisson_stencils.no_such_name  # noqa: B018
    assert not hasattr(poisson_stencils, "no_such_name")
