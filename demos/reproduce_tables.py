"""Re-run the three published benchmark tables and print them as markdown.

Each row simulates the standing wave with the published grid, step count and
Courant number, then reports the computed relative L2 error next to the
published value and the relative deviation, as ``poisson-stencils bench T
--format md`` prints them.  Tables 1 and 2 use Dirichlet boundaries and
table 3 periodic ones, as the paper's tables do; on this standing wave the
two give the same errors up to roundoff.

Note: the published E_P9 column of table 2 is known not to be reproducible
from the paper's own displayed nine-point scheme; its deviations grow with
grid refinement.  docs/table2_p9.md gives the diagnosis and its numbers.
"""

from poisson_stencils import cli

for table in ("1", "2", "3"):
    print(f"## table {table}")
    if cli.main(["bench", table, "--format", "md"]) != cli.EXIT_OK:
        raise SystemExit(f"bench {table} failed")
    print()
