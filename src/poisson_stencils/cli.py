"""Command-line front end: scheme tables, stability search, simulation, benchmarks.

``generate`` and ``stability`` are exact work and never load numpy: only
``cmd_simulate`` and ``cmd_bench`` import the simulator, when they run.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .scheme import (
    BOUNDARY_CONDITIONS,
    NAMED_SCHEMES,
    DegenerateNormError,
    UnknownSchemeError,
    named_scheme,
    serialize_tables,
)
from .stability import NeverStableError, lambda_max

EXIT_OK = 0
EXIT_INVALID_ARGUMENT = 2  # argparse's usage error, and the library's ValueError
EXIT_UNKNOWN_SCHEME = 3
# 4 (radius unsupported for the boundary condition) is retired and not reused.
EXIT_DEGENERATE_NORM = 5
EXIT_NEVER_STABLE = 6

# The library checks every input it is given, so the CLI keeps no check of its own.
_EXIT_CODES = {
    UnknownSchemeError: EXIT_UNKNOWN_SCHEME,
    DegenerateNormError: EXIT_DEGENERATE_NORM,
    NeverStableError: EXIT_NEVER_STABLE,
    ValueError: EXIT_INVALID_ARGUMENT,
    OSError: EXIT_INVALID_ARGUMENT,  # an --out or --dump-prefix path that cannot be written
    MemoryError: EXIT_INVALID_ARGUMENT,  # a grid or step count too large to allocate
}


def _flags_echo(args, names) -> str:
    return " ".join(f"--{name}={getattr(args, name.replace('-', '_'))}" for name in names)


def cmd_generate(args):
    spec = named_scheme(args.scheme)
    flags = f"scheme={args.scheme} " + _flags_echo(args, ["out"])
    return flags, serialize_tables(spec), []


def cmd_stability(args):
    spec = named_scheme(args.scheme)
    try:
        value = lambda_max(spec, tol=args.tol)
    except ValueError as exc:
        # A named scheme's table is always analysable, so only --tol can be at fault.
        raise ValueError(f"--tol: {exc}") from None
    flags = f"scheme={args.scheme} " + _flags_echo(args, ["tol", "out"])
    return flags, f"scheme: {spec.name}\nlambda_max: {value:.6f}\n", []


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _zero(*_):
    return 0.0


def cmd_simulate(args):
    from .simulator import Separable, SimConfig, dump_grid_csv, run

    spec = named_scheme(args.scheme)
    zero = Separable(_zero, _zero)
    zeros = {"initial_u": zero, "initial_v": zero, "exact": Separable(_zero, _zero, _zero)}
    overrides = zeros if args.zero_ic else {}
    config = SimConfig(scheme=spec, n=args.n, n_t=args.nt, lam=args.lam, bc=args.bc, **overrides)

    dumped = []

    def on_step(k, field):
        if k % args.dump_every == 0:
            path = f"{args.dump_prefix}_{k:05d}.csv"
            dump_grid_csv(field, path)
            dumped.append(path)

    report = run(config, on_step=on_step if args.dump_every else None)
    flags = (
        f"--scheme={args.scheme} --n={args.n} --nt={args.nt} --lambda={args.lam} "
        f"--bc={args.bc} --dump-every={args.dump_every} --zero-ic={args.zero_ic} "
        f"--out={args.out}"
    )
    body = (
        f"scheme: {spec.name}\n"
        f"n: {config.n}\n"
        f"nt: {config.n_t}\n"
        f"lambda: {config.lam:g}\n"
        f"bc: {config.bc}\n"
        f"tau: {config.tau:.10g}\n"
        f"error: {report.error:.4e}\n"
    )
    return flags, body, dumped


def cmd_bench(args):
    from .benchmarks import TABLE_BC, TABLE_SCHEMES, run_table

    rows = run_table(args.table)
    schemes = TABLE_SCHEMES[args.table]
    columns = ["n", "n_t", "lambda"]
    for name in schemes:
        columns += [f"E_{name}", f"ref_{name}", f"dev_{name}"]

    def fmt(key, value):
        if key in ("n", "n_t"):
            return str(value)
        if key == "lambda":
            return f"{value:g}"
        return f"{value:.4e}"

    cells = [columns] + [[fmt(col, row[col]) for col in columns] for row in rows]
    if args.format == "md":
        lines = ["| " + " | ".join(line) + " |" for line in cells]
        lines.insert(1, "|" + "|".join(" --- " for _ in columns) + "|")
    else:
        lines = [",".join(line) for line in cells]
    flags = f"table={args.table} bc={TABLE_BC[args.table]} " + _flags_echo(
        args, ["format", "out"]
    )
    return flags, "\n".join(lines) + "\n", []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-stencils",
        description="Explicit stencil schemes for the 2D wave equation: "
        "table generation, stability search, simulation, benchmark reproduction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="print a scheme's exact coefficient tables")
    p_gen.add_argument("scheme", help=f"one of {', '.join(NAMED_SCHEMES)}")
    p_gen.add_argument("--out", default=None, help="write to file instead of stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_stab = sub.add_parser("stability", help="search the maximal stable Courant number")
    p_stab.add_argument("scheme", help=f"one of {', '.join(NAMED_SCHEMES)}")
    p_stab.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance")
    p_stab.add_argument("--out", default=None)
    p_stab.set_defaults(func=cmd_stability)

    p_sim = sub.add_parser("simulate", help="run one simulation and report the error")
    p_sim.add_argument("--scheme", required=True)
    p_sim.add_argument("--n", type=int, required=True, help="grid subdivisions per axis")
    p_sim.add_argument("--nt", type=int, required=True, help="number of time steps")
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="dirichlet")
    p_sim.add_argument(
        "--dump-every",
        type=_nonnegative_int,
        default=0,
        help="write a CSV snapshot every K steps (0: none)",
    )
    p_sim.add_argument("--dump-prefix", default="snapshot")
    p_sim.add_argument(
        "--zero-ic", action="store_true", help="override all fields with zeros"
    )
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="reproduce a published benchmark table")
    p_bench.add_argument("table", type=int, choices=(1, 2, 3))
    p_bench.add_argument("--format", choices=("csv", "md"), default="csv")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command and write its manifest and body; returns the exit code.

    Each ``cmd_*`` returns (manifest flags, body, files written besides --out).
    """
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        flags, body, written = args.func(args)
        # The reproducibility manifest, as comments ahead of the body.
        manifest = [
            f"tool_version: poisson-stencils {__version__}",
            f"command: {args.command}",
            f"flags: {flags}",
            "determinism: seed-free; identical flags reproduce identical output"
            " except the wall_time_s line",
            f"outputs: {', '.join([args.out or 'stdout', *written])}",
            f"wall_time_s: {time.perf_counter() - started:.3f}",
        ]
        opening, closing = ("<!-- ", " -->") if getattr(args, "format", "") == "md" else ("# ", "")
        header = "".join(f"{opening}{line}{closing}\n" for line in manifest)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(header + body)
        else:
            sys.stdout.write(header + body)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    return EXIT_OK


def entry():
    raise SystemExit(main())
