import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import wavekit

LAYERS = ("cascade", "cwt", "errors", "filters", "image2d", "io", "subband", "transfer")


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(wavekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(wavekit.__all__) == public
    assert len(wavekit.__all__) == len(set(wavekit.__all__))


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module's top-level statements bind, other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:
            assert isinstance(node, (ast.Expr, ast.Import, ast.ImportFrom)), ast.dump(node)
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_is_exactly_its_public_names(layer):
    """Every name a layer module defines without a leading underscore is in
    its ``__all__``, ``__all__`` names only what it defines, and the package
    re-exports each of those names."""
    module = importlib.import_module(f"wavekit.{layer}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    public = {name for name in _defined_names(tree) if not name.startswith("_")}
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == public
    assert all(getattr(wavekit, name) is getattr(module, name) for name in module.__all__)


def test_package_all_is_the_layers_lists():
    layers = [importlib.import_module(f"wavekit.{layer}") for layer in LAYERS]
    assert wavekit.__all__ == [name for m in layers for name in m.__all__]


def test_import_leaves_scipy_unloaded():
    """The core needs numpy only: importing wavekit loads no scipy module."""
    code = "import sys, wavekit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# --- every byte-budget charge against its traced peak ---------------------------


def _charged_peak(patch: pytest.MonkeyPatch, fn) -> tuple[int, float]:
    """The tracemalloc peak of the second of two calls of ``fn``, and the
    largest charge that call makes, read at every module that charges."""
    from conftest import peak_bytes

    charges = []
    for name in ("cascade", "cwt", "subband", "transfer"):
        patch.setattr(importlib.import_module(f"wavekit.{name}"), "_charge",
                      lambda what, need: charges.append(need))
    peak = peak_bytes(lambda: (charges.clear(), fn()))
    return peak, max(charges)


def _generated_filters(lengths):
    """A seeded real and complex lattice filter of each length."""
    import numpy as np
    from conftest import complex_lattice_lowpass, lattice_lowpass, random_unitary

    rng = np.random.default_rng(sum(lengths))
    for L in lengths:
        free = rng.uniform(0.0, 2.0 * np.pi, size=L // 2 - 1)
        yield wavekit.FilterSpec(f"r{L}", lattice_lowpass(np.append(free, np.pi / 4 - free.sum())))
        yield wavekit.FilterSpec(f"c{L}", complex_lattice_lowpass([random_unitary(rng) for _ in range(L // 2 - 1)]))


def _sampled_wavelets():
    """Real and complex step wavelets 12, 40 and 100 wide (the pads of the
    wider two are twice their width), and the mexican hat."""
    import numpy as np

    yield wavekit.named_wavelet("mexican_hat")
    for width in (12, 40, 100):
        x = -width / 2 + np.arange(4 * width) / 4.0
        for carrier in (0.0, 6.0):
            values = np.exp(1j * carrier * x * 12 / width - 0.5 * (x * 12 / width) ** 2)
            values = values.real if carrier == 0.0 else values
            sampled = wavekit.SampledFunction(x[0], 0.25, values - values.mean())
            yield wavekit.wavelet_from_samples(sampled, f"w{width}")


@pytest.mark.parametrize("site", ["cuntz_check", "subband_matrices", "two-scale matrix",
                                  "admissibility", "cascade grid"])
def test_every_charge_covers_its_traced_peak_over_generated_sizes(monkeypatch, site):
    """Each byte-budget charge is at least the tracemalloc peak of the call
    it gates, for seeded real and complex filters and wavelets over a few
    sizes each, from where the charged arrays outweigh the fixed cost of a
    call (a few KiB of Python objects and LAPACK work) upward."""
    from dataclasses import replace

    cwt_module = importlib.import_module("wavekit.cwt")
    if site == "cuntz_check":
        calls = [lambda f=f, n=n: wavekit.cuntz_check(f, n)
                 for f in _generated_filters((4, 10)) for n in (2**10, 2**12, 2**14)]
    elif site == "subband_matrices":
        calls = [lambda f=f, n=n: wavekit.subband_matrices(f, n)
                 for f in _generated_filters((4, 10)) for n in (64, 256, 512)]
    elif site == "two-scale matrix":
        calls = [lambda f=f, fn=fn: fn(f) for f in _generated_filters((24, 60, 100))
                 for fn in (wavekit.lawton_test, wavekit.integer_values)]
    elif site == "admissibility":  # each call on a fresh copy, as the constant is held
        calls = [lambda psi=psi, r=r: cwt_module.admissibility(replace(psi), r)
                 for psi in _sampled_wavelets() for r in (1, 2)]
    else:
        calls = [lambda f=f, J=J, fn=fn: fn(f, J, experimental=True)
                 for f, J in zip(_generated_filters((4, 8, 20)), (12, 12, 10, 10, 9, 9))
                 for fn in (wavekit.scaling_function, wavekit.wavelet_function)]
    for call in calls:
        with monkeypatch.context() as patch:
            peak, charge = _charged_peak(patch, call)
        assert peak <= charge, call.__defaults__
