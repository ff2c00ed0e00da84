"""Spans around calls into wavekit's modules, recorded from outside.

``install`` replaces every public function of the package's modules with a
wrapper that records (layer.function, input size, seconds) into a
``Recorder``. The wrapper is also put in place of every other module's
imported reference to the same function, so a call that crosses modules
(``dwt1d`` -> ``analysis_step`` -> ``derive_highpass``) records one span
per layer it enters. Nothing in ``src/`` changes, and an untraced run
installs nothing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("filters", "subband", "image2d", "cascade", "transfer", "cwt", "io")


def input_size(arg) -> int:
    """Sample count of the first argument: array size, SampledFunction size,
    pyramid signal or image size, subband pair size, or coefficient grid
    width."""
    if isinstance(arg, np.ndarray):
        return arg.size
    for attr in ("n_samples", "signal_length"):
        if hasattr(arg, attr):
            return int(getattr(arg, attr))
    if hasattr(arg, "y") and hasattr(arg, "z"):
        return arg.y.size + arg.z.size
    if hasattr(arg, "image_shape"):
        rows, cols = arg.image_shape
        return rows * cols
    if hasattr(arg, "values") and isinstance(arg.values, np.ndarray):
        return arg.values.size
    return 0


class Recorder:
    """In-memory span list, read when the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, int, float]] = []

    def durations(self, name: str, size: int | None = None) -> list[float]:
        return [d for n, s, d in self.spans if n == name and (size is None or s == size)]


def _wrap(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.spans.append((name, input_size(args[0]) if args else 0, time.perf_counter() - t0))

    return traced


def install(rec: Recorder) -> None:
    """Wrap every public function of every layer, everywhere it is bound."""
    package = importlib.import_module("wavekit")
    modules = {layer: importlib.import_module(f"wavekit.{layer}") for layer in LAYERS}
    holders = [package, importlib.import_module("wavekit.cli"), *modules.values()]
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            traced = _wrap(fn, f"{layer}.{attr}", rec)
            for holder in holders:
                if vars(holder).get(attr) is fn:
                    setattr(holder, attr, traced)
