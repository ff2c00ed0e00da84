"""Every script under demos/ runs to completion against the current API."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # continuous_transform.py writes demo_*.pgm into its working directory
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stdout + r.stderr
