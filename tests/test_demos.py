"""Each demo script and the README's examples run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", ("build_schemes", "stability_scan", "reproduce_tables"))
def test_demo_runs(demo):
    result = run_python(str(ROOT / "demos" / f"{demo}.py"))
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_examples_run():
    # The README's python blocks build on each other (the third uses the
    # second's Separable and wave), so they run in order in one interpreter.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 3
    result = run_python("-c", "\n".join(blocks))
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 3
