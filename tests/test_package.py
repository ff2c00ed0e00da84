import inspect
import subprocess
import sys

import wavekit


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(wavekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(wavekit.__all__) == public
    assert len(wavekit.__all__) == len(set(wavekit.__all__))


def test_import_leaves_scipy_unloaded():
    """The core needs numpy only: importing wavekit loads no scipy module."""
    code = "import sys, wavekit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
