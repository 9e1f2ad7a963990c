"""Write expected.json: the outputs every benchmark operation is checked against.

Run from the root of a checkout of the commit whose outputs are the reference:

    python3 perfbench/make_expected.py

It records the printed table rows of ``bench 1|2|3``, the ``generate`` body
and the printed ``lambda_max`` of each named scheme, and the march error of
each configuration with its roundoff tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from poisson_stencils import scheme, simulator  # noqa: E402

EPS = 2.0**-52
KEYS = ("n", "n_t", "lambda")


def cli_body(argv):
    code, text = workloads.cli_text(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return workloads.body_lines(text)


def main():
    expected = {"tables": {}, "generate": {}, "lambda_max": {}, "march": {}}
    for table in ("1", "2", "3"):
        expected["tables"][table] = [
            {key: value for key, value in row.items() if key in KEYS or key.startswith("E_")}
            for row in workloads.csv_rows(cli_body(["bench", table]))
        ]
    for name in scheme.NAMED_SCHEMES:
        expected["generate"][name] = "".join(line + "\n" for line in cli_body(["generate", name]))
        printed = workloads.fields(cli_body(["stability", name]))
        expected["lambda_max"][name] = float(printed["lambda_max"])
    for cfg, (name, bc) in workloads.MARCH_CONFIGS.items():
        spec = scheme.named_scheme(name)
        config = simulator.SimConfig(
            scheme=spec,
            n=workloads.MARCH_N,
            n_t=workloads.MARCH_NT,
            lam=workloads.MARCH_LAM,
            bc=bc,
        )
        # Each step adds one rounding per offset to every node, and the
        # error sum sees each step once: offsets * steps * eps, relative to
        # the reference norm that E is already divided by.
        expected["march"][cfg] = {
            "error": simulator.run(config).error,
            "tol": len(spec.two_step) * workloads.MARCH_NT * EPS,
        }
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
