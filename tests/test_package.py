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
