"""Amplification envelopes and maximal Courant numbers of the bundled schemes.

A two-step scheme is stable exactly when its one-step symbol stays inside
[-1, 1] over all phase angles.  The scan below shows how the symbol minimum
descends toward -1 as the Courant number grows, and where each scheme's
stability limit sits.
"""

import numpy as np

from poisson_stencils import envelope, lambda_max, named_scheme

schemes = {name: named_scheme(name) for name in ("P5", "P9", "C9", "P13")}

print("symbol minimum over phase angles (rows: lambda)")
lams = np.round(np.linspace(0.3, 0.9, 7), 2)
header = "lambda  " + "".join(f"{name:>10}" for name in schemes)
print(header)
for lam in lams:
    cells = []
    for spec in schemes.values():
        env = envelope(spec, float(lam))
        cells.append(f"{env.low.value:10.4f}")
    print(f"{lam:6.2f}  " + "".join(cells))
print()

print("maximal stable Courant number (bisection to 1e-6):")
for name, spec in schemes.items():
    limit = lambda_max(spec)
    env = envelope(spec, limit)
    marker = " (marginal: symbol touches the bound)" if env.marginal else ""
    print(f"  {name:4}: lambda_max = {limit:.6f}{marker}")
print()

print("the nine-point limit matches sqrt((3 - sqrt(3))/2):", np.sqrt((3 - np.sqrt(3)) / 2))
