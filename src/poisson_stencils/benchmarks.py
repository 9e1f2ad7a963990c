"""Published benchmark tables for the standing-wave problem, plus the runner.

Reference error values are embedded as static data (one entry per published
row) so deviation reporting is self-contained.  Table 1 compares the
five-point pair on Dirichlet boundaries, table 2 the nine-point pair on
Dirichlet boundaries, table 3 the thirteen-point pair on periodic boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from types import MappingProxyType
from typing import Mapping

from .scheme import named_scheme
from .simulator import SimConfig, _run, _samples


@dataclass(frozen=True)
class BenchCase:
    """One published table row: grid, step count, Courant number, reference errors.

    ``reference`` is a read-only copy of the mapping passed in.
    """

    n: int
    n_t: int
    lam: float
    reference: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "reference", MappingProxyType(dict(self.reference)))

    def __reduce__(self):
        return BenchCase, (self.n, self.n_t, self.lam, dict(self.reference))


# table 1, five-point schemes, lambda = 0.707, Dirichlet
TABLE_1 = (
    BenchCase(10, 1, 0.707, {"P5": 9.0843e-4, "C5": 6.8938e-2}),
    BenchCase(10, 10, 0.707, {"P5": 9.1540e-4, "C5": 6.8945e-2}),
    BenchCase(10, 20, 0.707, {"P5": 9.1604e-4, "C5": 6.8945e-2}),
    BenchCase(20, 1, 0.707, {"P5": 5.4767e-5, "C5": 1.6636e-2}),
    BenchCase(20, 20, 0.707, {"P5": 5.6800e-5, "C5": 1.6638e-2}),
    BenchCase(20, 40, 0.707, {"P5": 5.7372e-5, "C5": 1.6638e-2}),
    BenchCase(40, 1, 0.707, {"P5": 3.3924e-6, "C5": 4.1230e-3}),
    BenchCase(40, 40, 0.707, {"P5": 4.0331e-6, "C5": 4.1234e-3}),
    BenchCase(40, 80, 0.707, {"P5": 4.4928e-6, "C5": 4.1234e-3}),
    BenchCase(80, 1, 0.707, {"P5": 2.1158e-7, "C5": 1.0285e-3}),
    BenchCase(80, 80, 0.707, {"P5": 4.3820e-7, "C5": 1.0286e-3}),
    BenchCase(80, 160, 0.707, {"P5": 6.5824e-7, "C5": 1.0286e-3}),
)

# table 2, nine-point schemes, n_t = n, Dirichlet
TABLE_2 = (
    BenchCase(10, 10, 0.707, {"P9": 3.7058e-2, "C9": 1.1741e-1}),
    BenchCase(10, 10, 0.796, {"P9": 2.9587e-2, "C9": 1.1241e-1}),
    BenchCase(20, 20, 0.707, {"P9": 8.9333e-3, "C9": 2.8002e-2}),
    BenchCase(20, 20, 0.796, {"P9": 8.0697e-3, "C9": 2.7523e-2}),
    BenchCase(40, 40, 0.707, {"P9": 2.3723e-3, "C9": 6.8821e-3}),
    BenchCase(40, 40, 0.796, {"P9": 2.5737e-3, "C9": 6.8668e-3}),
    BenchCase(80, 80, 0.707, {"P9": 7.5573e-4, "C9": 1.7084e-3}),
    BenchCase(80, 80, 0.796, {"P9": 1.0274e-3, "C9": 1.7187e-3}),
)

# table 3, thirteen-point schemes, n_t = n, lambda = 0.707, periodic
TABLE_3 = (
    BenchCase(10, 10, 0.707, {"P13": 4.2146e-5, "C13": 6.8938e-2}),
    BenchCase(20, 20, 0.707, {"P13": 6.6004e-7, "C13": 1.6636e-2}),
    BenchCase(40, 40, 0.707, {"P13": 1.1471e-8, "C13": 4.1230e-3}),
    BenchCase(80, 80, 0.707, {"P13": 2.8884e-10, "C13": 1.0285e-3}),
)

TABLES = MappingProxyType({1: TABLE_1, 2: TABLE_2, 3: TABLE_3})
TABLE_BC = MappingProxyType({1: "dirichlet", 2: "dirichlet", 3: "periodic"})
TABLE_SCHEMES = MappingProxyType({1: ("P5", "C5"), 2: ("P9", "C9"), 3: ("P13", "C13")})


def run_table(table: int) -> list[dict]:
    """Re-run every row of a published table.

    Returns one dict per row with keys ``n``, ``n_t``, ``lambda`` and, for
    each scheme, ``E_<name>`` (computed), ``ref_<name>`` (published) and
    ``dev_<name>`` (relative deviation).

    Rows of one (n, lambda) share their marches, as their time step tau =
    lambda / n does not depend on n_t: each scheme marches once, to the
    largest n_t of those rows, and a row's E is that run's running error
    at its own n_t, which has the bits of a run of n_t steps.  Both
    schemes' marches read one sample.  So a row's ``DegenerateNormError``,
    or the ``ValueError`` of an overflow, comes from its group's longest
    run; no published row reaches either.
    """
    if isinstance(table, bool) or not isinstance(table, Integral) or table not in TABLES:
        raise ValueError(f"table must be one of {sorted(TABLES)}, got {table!r}")
    bc = TABLE_BC[table]
    specs = {name: named_scheme(name) for name in TABLE_SCHEMES[table]}
    longest: dict[tuple[str, int, float], int] = {}  # (scheme, n, lambda): n_t, in table order
    for case in TABLES[table]:
        for scheme_name in case.reference:
            key = (scheme_name, case.n, case.lam)
            longest[key] = max(longest.get(key, 0), case.n_t)
    samples, running = {}, {}  # samples: (n, n_t, lambda): the default fields' vectors
    for (scheme_name, n, lam), n_t in longest.items():
        config = SimConfig(scheme=specs[scheme_name], n=n, n_t=n_t, lam=lam, bc=bc)
        if (n, n_t, lam) not in samples:
            samples[n, n_t, lam] = _samples(config)
        running[scheme_name, n, lam] = _run(config, vectors=samples[n, n_t, lam]).running_errors
    rows = []
    for case in TABLES[table]:
        row: dict = {"n": case.n, "n_t": case.n_t, "lambda": case.lam}
        for scheme_name, reference in case.reference.items():
            error = running[scheme_name, case.n, case.lam][case.n_t - 1]
            row[f"E_{scheme_name}"] = error
            row[f"ref_{scheme_name}"] = reference
            row[f"dev_{scheme_name}"] = abs(error - reference) / reference
        rows.append(row)
    return rows
