import re

import numpy as np
import pytest

from poisson_stencils import cli
from poisson_stencils.cli import (
    EXIT_DEGENERATE_NORM,
    EXIT_INVALID_ARGUMENT,
    EXIT_UNKNOWN_SCHEME,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, err = usage_error(
        capsys, "simulate", "--scheme", "P5", "--n", "8", "--nt", "2", "--lambda", "nan"
    )
    assert code == EXIT_INVALID_ARGUMENT
    assert "--lambda" in err


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


def test_stability_rejects_zero_tol(capsys):
    code, err = usage_error(capsys, "stability", "P5", "--tol", "0")
    assert code == EXIT_INVALID_ARGUMENT
    assert "--tol" in err


def test_simulate_rejects_too_small_grid_and_step_count(capsys):
    # SimConfig holds these bounds; the CLI reports them as bad arguments.
    for n, nt, name in (("1", "2", "n"), ("8", "0", "n_t")):
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", "P5", "--n", n, "--nt", nt, "--lambda", "0.5"
        )
        assert code == EXIT_INVALID_ARGUMENT
        assert out == ""
        assert err.startswith(f"error: {name} must be an integer")


def test_simulate_without_dump_passes_no_callback(capsys, monkeypatch):
    callbacks = []
    original_run = cli.run

    def recording_run(config, on_step=None):
        callbacks.append(on_step)
        return original_run(config, on_step)

    monkeypatch.setattr(cli, "run", recording_run)
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
