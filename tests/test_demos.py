import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted(pathlib.Path("demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # pyproject's filterwarnings does not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert "False" not in proc.stdout  # every printed self-check holds


def test_all_demos_collected():
    assert len(DEMOS) == 6
