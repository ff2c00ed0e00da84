"""Every script under demos/ runs to completion against the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavekit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(wavekit.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # continuous_transform.py writes demo_*.pgm into its working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stdout + r.stderr
