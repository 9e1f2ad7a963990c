import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poisson_stencils import cli, simulator
from poisson_stencils.benchmarks import TABLE_1, TABLE_BC, TABLE_SCHEMES, TABLES, run_table
from poisson_stencils.cli import (
    EXIT_DEGENERATE_NORM,
    EXIT_INVALID_ARGUMENT,
    EXIT_UNKNOWN_SCHEME,
    main,
)
from poisson_stencils.scheme import named_scheme
from poisson_stencils.simulator import Separable, SimConfig, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, killed after 30 s so that a hang fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "poisson_stencils", *argv], env=env,
                          capture_output=True, text=True, timeout=30)


def strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


def test_generate_p5(capsys):
    code, out, _ = run_cli(capsys, "generate", "P5")
    assert code == 0
    lines = out.splitlines()
    assert "1 0 first_v 2:1/6" in lines
    assert any(line.startswith("# tool_version: poisson-stencils") for line in lines)


def test_generate_p13_distance_two_entry(capsys):
    code, out, _ = run_cli(capsys, "generate", "P13")
    assert code == 0
    assert "2 0 two_step 2:-1/12 4:1/12" in out.splitlines()


def test_generate_c5_center_only_velocity_table(capsys):
    code, out, _ = run_cli(capsys, "generate", "C5")
    assert code == 0
    v_lines = [line for line in out.splitlines() if " first_v " in line]
    assert v_lines == ["0 0 first_v 0:1"]


def test_generate_unknown_scheme_exit_code(capsys):
    code, _, err = run_cli(capsys, "generate", "P7")
    assert code == EXIT_UNKNOWN_SCHEME
    assert "unknown scheme" in err


def test_stability_p5(capsys):
    code, out, _ = run_cli(capsys, "stability", "P5")
    assert code == 0
    value = float(re.search(r"lambda_max: ([0-9.]+)", out).group(1))
    assert value == pytest.approx(0.707107, abs=1e-4)


def test_stability_c9(capsys):
    code, out, _ = run_cli(capsys, "stability", "C9", "--tol", "1e-5")
    assert code == 0
    value = float(re.search(r"lambda_max: ([0-9.]+)", out).group(1))
    assert value == pytest.approx(0.866025, abs=1e-4)


def test_stability_p9(capsys):
    code, out, _ = run_cli(capsys, "stability", "P9")
    assert code == 0
    value = float(re.search(r"lambda_max: ([0-9.]+)", out).group(1))
    assert value == pytest.approx(0.7962, abs=1e-3)


def test_simulate_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scheme", "C13",
        "--n", "10",
        "--nt", "10",
        "--lambda", "0.707",
        "--bc", "periodic",
    )
    assert code == 0
    error = float(re.search(r"error: ([0-9.e+-]+)", out).group(1))
    assert error == pytest.approx(6.8938e-2, rel=1e-2)


def test_simulate_five_point_fine_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scheme", "P5",
        "--n", "80",
        "--nt", "160",
        "--lambda", "0.707",
        "--bc", "dirichlet",
    )
    assert code == 0
    error = float(re.search(r"error: ([0-9.e+-]+)", out).group(1))
    assert error == pytest.approx(6.5824e-7, rel=5e-2)


def test_simulate_radius_two_dirichlet(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scheme", "P13",
        "--n", "10",
        "--nt", "10",
        "--lambda", "0.707",
        "--bc", "dirichlet",
    )
    assert code == 0
    # Table 3's n = 10 row, whose published value is periodic: the standing
    # wave is odd about both boundaries, so Dirichlet gives the same error.
    error = float(re.search(r"error: ([0-9.e+-]+)", out).group(1))
    assert error == pytest.approx(4.2146e-5, rel=1e-3)


def test_simulate_zero_ic_degenerate_norm(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--scheme", "P5",
        "--n", "8",
        "--nt", "2",
        "--lambda", "0.5",
        "--zero-ic",
    )
    assert code == EXIT_DEGENERATE_NORM
    assert "vanishes" in err


def test_simulate_snapshot_dump(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scheme", "P5",
        "--n", "8",
        "--nt", "4",
        "--lambda", "0.5",
        "--dump-every", "2",
        "--dump-prefix", "field",
    )
    assert code == 0
    dumps = sorted(tmp_path.glob("field_*.csv"))
    assert [p.name for p in dumps] == ["field_00002.csv", "field_00004.csv"]
    grid = np.loadtxt(dumps[0], delimiter=",")
    assert grid.shape == (9, 9)


def usage_error(capsys, *argv):
    """Exit code and stderr of a command that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_simulate_rejects_nan_lambda(capsys):
    # SimConfig checks lambda; the CLI passes the float through and reports
    # the library's ValueError as one line.
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "8", "--nt", "2", "--lambda", "nan"
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err == "error: lambda must be positive and finite, got nan\n"


@pytest.mark.parametrize("lam", ["inf", "0", "-1"])
def test_simulate_rejects_bad_lambda_in_one_line(capsys, lam):
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "8", "--nt", "2", "--lambda", lam
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err.startswith("error: lambda must be positive") and len(err.splitlines()) == 1


def test_huge_lambda_is_an_invalid_argument():
    # This ended in an OverflowError traceback from the stability envelope.
    done = run_cli_process("simulate", "--scheme", "P5", "--n", "8", "--nt", "50",
                           "--lambda", "1e200")
    assert done.returncode == EXIT_INVALID_ARGUMENT
    assert done.stdout == ""
    assert done.stderr == (
        "error: lambda = 1e+200 gives a scheme value that is not a finite double\n"
    )


# (lambda, n, n_t) of unstable P5 marches whose fields overflow, with the
# first step whose error is not finite.  These printed "error: nan" and
# exited 0.
OVERFLOWS = [("1e100", "8", "50", 1), ("0.8", "16", "3000", 396)]


def overflow_line(lam, step):
    return (f"error: lambda = {float(lam)} overflows scheme 'P5': "
            f"the error of step {step} is not finite")


@pytest.mark.parametrize("lam, n, nt, step", OVERFLOWS)
def test_overflowed_march_is_an_invalid_argument(lam, n, nt, step):
    done = run_cli_process("simulate", "--scheme", "P5", "--n", n, "--nt", nt, "--lambda", lam)
    assert done.returncode == EXIT_INVALID_ARGUMENT
    assert done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert errors == [overflow_line(lam, step)]
    assert done.stderr.endswith(errors[0] + "\n")
    assert "outside the stable range of scheme 'P5'" in done.stderr


def test_overflow_of_the_total_alone_names_every_step():
    # Every step's error can be finite while their sum overflows: P5 keeps a
    # constant field constant, and each step sums 25 squares of about 2e153
    # against a reference of ones, just below the largest double.
    one = lambda _: 1.0
    config = SimConfig(scheme=named_scheme("P5"), n=4, n_t=2, lam=0.5, bc="periodic",
                       initial_u=Separable(lambda x: 2e153, one),
                       initial_v=Separable(lambda x: 0.0, one),
                       exact=Separable(one, one, one))
    with pytest.raises(ValueError) as raised:
        run(config)
    assert str(raised.value) == (
        "lambda = 0.5 overflows scheme 'P5': the error of all 2 steps together is not finite"
    )


def test_overflow_is_refused_on_every_kernel(capsys, kernels):
    # Each compiled variant and the numpy path march the same bits, so they
    # fail at the same step; an unstable march that stays finite still
    # prints its error, with the stability warning.
    for name, path in kernels:
        with path():
            for lam, n, nt, step in OVERFLOWS:
                with pytest.warns(UserWarning, match="stable range"):
                    code, out, err = run_cli(capsys, "simulate", "--scheme", "P5", "--n", n,
                                             "--nt", nt, "--lambda", lam)
                assert code == EXIT_INVALID_ARGUMENT and out == "", name
                assert err == overflow_line(lam, step) + "\n", name
            with pytest.warns(UserWarning, match="stable range"):
                code, out, _ = run_cli(capsys, "simulate", "--scheme", "P5", "--n", "16",
                                       "--nt", "30", "--lambda", "0.8")
            assert code == 0 and out.endswith("error: 1.5371e-02\n"), name


def test_unknown_scheme_is_reported_before_lambda(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "P7", "--n", "8", "--nt", "2", "--lambda", "nan"
    )
    assert code == EXIT_UNKNOWN_SCHEME
    assert out == "" and err.startswith("error: unknown scheme 'P7'")


def test_simulate_rejects_negative_dump_every(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = usage_error(
        capsys,
        "simulate",
        "--scheme", "P5",
        "--n", "8",
        "--nt", "2",
        "--lambda", "0.5",
        "--dump-every", "-1",
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert "--dump-every" in err
    assert not list(tmp_path.iterdir())


def test_unwritable_out_path_is_an_invalid_argument(capsys, tmp_path):
    code, out, err = run_cli(capsys, "generate", "P5", "--out", str(tmp_path / "no" / "x.txt"))
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unwritable_dump_prefix_is_an_invalid_argument(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "8", "--nt", "4", "--lambda", "0.5",
        "--dump-every", "1", "--dump-prefix", str(tmp_path / "no" / "snap"),
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_stability_rejects_zero_tol(capsys):
    # lambda_max checks tol; the CLI prefixes the flag to its ValueError.
    code, out, err = run_cli(capsys, "stability", "P5", "--tol", "0")
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err == "error: --tol: tol must be positive and finite, got 0.0\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_stability_rejects_bad_tol_in_one_line(capsys, tol):
    code, out, err = run_cli(capsys, "stability", "P5", "--tol", tol)
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err.startswith("error: --tol: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("tol", ["0.8", "1.5", "1.99"])
def test_stability_tol_above_the_limit_returns_a_stable_lambda(capsys, tol):
    # These exited 6, "amplifies even at lambda = 0.8", though P5 is stable
    # up to 1/sqrt(2).
    code, out, err = run_cli(capsys, "stability", "P5", "--tol", tol)
    assert code == 0, err
    value = float(out.splitlines()[-1].removeprefix("lambda_max: "))
    assert abs(value - 0.707107) <= float(tol)


@pytest.mark.parametrize("tol", ["1e-16", "5e-324"])
def test_stability_tol_below_the_double_spacing_returns(tol):
    # The bisection used to loop for ever once lo and hi were adjacent
    # doubles: their midpoint is one of them, and hi - lo stays above tol.
    done = run_cli_process("stability", "P5", "--tol", tol)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("lambda_max: 0.707107\n")


@pytest.mark.parametrize("tol", ["2", "3", "1e300"])
def test_stability_rejects_tol_at_the_top_of_the_search_range(tol):
    # These used to exit 6 ("amplifies even at lambda = 2.0"), blaming the
    # scheme, or, for 1e300, end in an OverflowError traceback.
    done = run_cli_process("stability", "P5", "--tol", tol)
    assert done.returncode == EXIT_INVALID_ARGUMENT
    assert done.stdout == ""
    assert done.stderr.startswith("error: --tol") and len(done.stderr.splitlines()) == 1


def test_simulate_rejects_too_small_grid_and_step_count(capsys):
    # SimConfig holds these bounds; the CLI reports them as bad arguments.
    for n, nt, name in (("1", "2", "n"), ("8", "0", "n_t")):
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", "P5", "--n", n, "--nt", nt, "--lambda", "0.5"
        )
        assert code == EXIT_INVALID_ARGUMENT
        assert out == ""
        assert err.startswith(f"error: {name} must be an integer")


def test_simulate_refuses_a_step_count_too_large_to_allocate(capsys):
    # 10**15 step times need 7 PiB, which the allocator refuses at once.
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "4", "--nt", str(10**15), "--lambda", "0.5"
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_simulate_without_dump_passes_no_callback(capsys, monkeypatch):
    callbacks = []
    original_run = simulator.run

    def recording_run(config, on_step=None):
        callbacks.append(on_step)
        return original_run(config, on_step)

    monkeypatch.setattr(simulator, "run", recording_run)
    code, _, _ = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "8", "--nt", "2", "--lambda", "0.5"
    )
    assert code == 0
    assert callbacks == [None]


def test_bench_table3_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, *rows = lines
    assert header.split(",")[:3] == ["n", "n_t", "lambda"]
    assert len(rows) == 4
    columns = header.split(",")
    for row in rows:
        values = dict(zip(columns, row.split(",")))
        assert float(values["dev_P13"]) < 5e-2
        assert float(values["dev_C13"]) < 1e-2


def test_bench_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "bench", "3", "--format", "md")
    assert code == 0
    assert out.startswith("<!--")
    table_lines = [line for line in out.splitlines() if line.startswith("|")]
    assert len(table_lines) == 6  # header + separator + 4 rows


def test_bench_output_file(capsys, tmp_path):
    out_path = tmp_path / "table3.csv"
    code, out, _ = run_cli(capsys, "bench", "3", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().count("\n") >= 5


def test_published_tables_are_read_only(capsys):
    # A write to a reference value used to change every later run_table(1)
    # in the process: ref_P5 = 1.0, dev_P5 = 0.9991.
    _, before, _ = run_cli(capsys, "bench", "1")
    writes = [
        (TABLE_1[0].reference, "P5", 1.0),
        (TABLES, 1, TABLES[2]),
        (TABLE_BC, 1, "periodic"),
        (TABLE_SCHEMES, 1, ("P9", "C9")),
    ]
    for mapping, key, value in writes:
        with pytest.raises(TypeError):
            mapping[key] = value
    _, after, _ = run_cli(capsys, "bench", "1")
    assert strip_wall_time(after) == strip_wall_time(before)
    case = TABLE_1[0]
    for clone in (copy.deepcopy(case), pickle.loads(pickle.dumps(case))):
        assert clone == case


def test_run_table_rejects_an_unpublished_table():
    for table in (0, 4, True, 3.0):
        with pytest.raises(ValueError, match="table must be one of"):
            run_table(table)


def test_reruns_are_identical_modulo_wall_time(capsys):
    _, first, _ = run_cli(capsys, "generate", "P9")
    _, second, _ = run_cli(capsys, "generate", "P9")
    assert strip_wall_time(first) == strip_wall_time(second)
    _, sim1, _ = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "10", "--nt", "3", "--lambda", "0.6"
    )
    _, sim2, _ = run_cli(
        capsys, "simulate", "--scheme", "P5", "--n", "10", "--nt", "3", "--lambda", "0.6"
    )
    assert strip_wall_time(sim1) == strip_wall_time(sim2)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
