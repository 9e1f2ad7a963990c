"""Printed CLI results against the benchmark's reference outputs, exactly.

``perfbench/expected.json`` holds the outputs the package printed when the
benchmark was defined: every E value of ``bench 1|2|3``, the ``generate``
bodies, and ``lambda_max`` rounded to the six printed decimals.  The
benchmark allows lambda_max a 1e-6 slack; here every printed line must
match.
"""

import json
from pathlib import Path

import pytest

from poisson_stencils.cli import main
from poisson_stencils.scheme import NAMED_SCHEMES

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


def body_lines(capsys, *argv):
    assert main(list(argv)) == 0
    return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("# ")]


@pytest.mark.parametrize("table", ("1", "2", "3"))
def test_bench_values_match_reference(capsys, table):
    header, *rows = body_lines(capsys, "bench", table)
    got = [dict(zip(header.split(","), row.split(","))) for row in rows]
    want = EXPECTED["tables"][table]
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert {key: got_row[key] for key in want_row} == want_row


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_generate_body_matches_reference(capsys, name):
    assert "".join(line + "\n" for line in body_lines(capsys, "generate", name)) == (
        EXPECTED["generate"][name]
    )


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_lambda_max_line_matches_reference(capsys, name):
    lines = body_lines(capsys, "stability", name)
    assert lines == [f"scheme: {name}", f"lambda_max: {EXPECTED['lambda_max'][name]:.6f}"]
