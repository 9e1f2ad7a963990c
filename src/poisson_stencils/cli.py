"""Command-line front end: scheme tables, stability search, simulation, benchmarks."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .benchmarks import TABLE_BC, TABLE_SCHEMES, run_table
from .scheme import NAMED_SCHEMES, UnknownSchemeError, named_scheme, serialize_tables
from .simulator import (
    DegenerateNormError,
    RadiusUnsupportedError,
    SimConfig,
    dump_grid_csv,
    run,
)
from .stability import NeverStableError, lambda_max

EXIT_OK = 0
EXIT_INVALID_ARGUMENT = 2  # argparse's usage error
EXIT_UNKNOWN_SCHEME = 3
EXIT_RADIUS_UNSUPPORTED = 4
EXIT_DEGENERATE_NORM = 5
EXIT_NEVER_STABLE = 6


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header embedded as comments in every emitted table."""

    command: str
    flags: str
    outputs: str

    def lines(self, wall_time_s: float) -> list[str]:
        return [
            f"tool_version: poisson-stencils {__version__}",
            f"command: {self.command}",
            f"flags: {self.flags}",
            "determinism: seed-free; identical flags reproduce identical output"
            " except the wall_time_s line",
            f"outputs: {self.outputs}",
            f"wall_time_s: {wall_time_s:.3f}",
        ]


def _flags_echo(args, names) -> str:
    return " ".join(f"--{name}={getattr(args, name.replace('-', '_'))}" for name in names)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _comment(lines, style: str) -> str:
    if style == "md":
        return "".join(f"<!-- {line} -->\n" for line in lines)
    return "".join(f"# {line}\n" for line in lines)


def cmd_generate(args) -> int:
    started = time.perf_counter()
    spec = named_scheme(args.scheme)
    body = serialize_tables(spec)
    manifest = RunManifest(
        command="generate",
        flags=f"scheme={args.scheme} " + _flags_echo(args, ["out"]),
        outputs=args.out or "stdout",
    )
    _emit(_comment(manifest.lines(time.perf_counter() - started), "text") + body, args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    started = time.perf_counter()
    spec = named_scheme(args.scheme)
    value = lambda_max(spec, tol=args.tol)
    manifest = RunManifest(
        command="stability",
        flags=f"scheme={args.scheme} " + _flags_echo(args, ["tol", "out"]),
        outputs=args.out or "stdout",
    )
    body = f"scheme: {spec.name}\nlambda_max: {value:.6f}\n"
    _emit(_comment(manifest.lines(time.perf_counter() - started), "text") + body, args.out)
    return EXIT_OK


def _positive_float(text: str) -> float:
    """argparse type: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _zero_field(x1, x2, *_):
    return 0.0 * (x1 + x2)


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    spec = named_scheme(args.scheme)
    overrides = {}
    if args.zero_ic:
        overrides = {
            "initial_u": _zero_field,
            "initial_v": _zero_field,
            "exact": _zero_field,
        }
    config = SimConfig(
        scheme=spec, n=args.n, n_t=args.nt, lam=args.lam, bc=args.bc, **overrides
    )

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
    manifest = RunManifest(
        command="simulate",
        flags=flags,
        outputs=", ".join([args.out or "stdout"] + dumped),
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
    _emit(_comment(manifest.lines(time.perf_counter() - started), "text") + body, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    started = time.perf_counter()
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

    body_lines = []
    if args.format == "md":
        body_lines.append("| " + " | ".join(columns) + " |")
        body_lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in rows:
            body_lines.append(
                "| " + " | ".join(fmt(col, row[col]) for col in columns) + " |"
            )
    else:
        body_lines.append(",".join(columns))
        for row in rows:
            body_lines.append(",".join(fmt(col, row[col]) for col in columns))
    manifest = RunManifest(
        command="bench",
        flags=f"table={args.table} bc={TABLE_BC[args.table]} "
        + _flags_echo(args, ["format", "out"]),
        outputs=args.out or "stdout",
    )
    text = (
        _comment(manifest.lines(time.perf_counter() - started), args.format)
        + "\n".join(body_lines)
        + "\n"
    )
    _emit(text, args.out)
    return EXIT_OK


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
    p_stab.add_argument("--tol", type=_positive_float, default=1e-6, help="bisection tolerance")
    p_stab.add_argument("--out", default=None)
    p_stab.set_defaults(func=cmd_stability)

    p_sim = sub.add_parser("simulate", help="run one simulation and report the error")
    p_sim.add_argument("--scheme", required=True)
    p_sim.add_argument("--n", type=int, required=True, help="grid subdivisions per axis")
    p_sim.add_argument("--nt", type=int, required=True, help="number of time steps")
    p_sim.add_argument("--lambda", dest="lam", type=_positive_float, required=True)
    p_sim.add_argument("--bc", choices=("dirichlet", "periodic"), default="dirichlet")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownSchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_SCHEME
    except RadiusUnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RADIUS_UNSUPPORTED
    except DegenerateNormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_NORM
    except NeverStableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEVER_STABLE


def entry():
    raise SystemExit(main())
