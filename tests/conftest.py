import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Subprocesses (the CLI and demo tests) import the checkout's package too.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# One Hypothesis profile for every property: the same examples on every run,
# no time limit per example and no example database.
settings.register_profile("wavekit", derandomize=True, deadline=None, database=None)
settings.load_profile("wavekit")


def lattice_lowpass(angles) -> np.ndarray:
    """Real orthogonal low-pass filter of length 2K from K lattice angles,
    scaled to sum 1.

    Each stage rotates the polyphase pair (even, odd) and delays the odd
    component by one sample (Vaidyanathan & Hoang 1988); rotations and delays
    are lossless, so the even-lag autocorrelation vanishes for any angles.
    Angles summing to pi/4 make the taps sum to sqrt(2) before scaling.
    """
    even, odd = np.array([np.cos(angles[0])]), np.array([np.sin(angles[0])])
    for theta in angles[1:]:
        even, odd = np.append(even, 0.0), np.insert(odd, 0, 0.0)
        even, odd = (
            np.cos(theta) * even - np.sin(theta) * odd,
            np.sin(theta) * even + np.cos(theta) * odd,
        )
    h = np.empty(2 * even.size)
    h[0::2], h[1::2] = even, odd
    return h / h.sum()


@pytest.fixture(scope="session")
def lattice_filters() -> list[np.ndarray]:
    """Five seeded lattice filters for each K = 1..8 (lengths 2..16)."""
    rng = np.random.default_rng(19880101)
    out = []
    for k in range(1, 9):
        for _ in range(5):
            free = rng.uniform(0.0, 2.0 * np.pi, size=k - 1)
            out.append(lattice_lowpass(np.append(free, np.pi / 4 - free.sum())))
    return out


def complex_lattice_lowpass(unitaries) -> np.ndarray:
    """Complex orthogonal low-pass filter of length 2K from K - 1 unitary
    2x2 matrices U_1 .. U_{K-1}, scaled to sum 1.

    The polyphase pair starts at v_0 = (U_{K-1} ... U_1)^-1 (1, 1)/sqrt 2;
    each stage delays the odd component by one sample and applies U_i.
    Unitary stages and delays are lossless, so the even-lag autocorrelation
    vanishes, and at z = 1 the pair is (1, 1)/sqrt 2, so the taps sum to
    sqrt 2 before scaling.
    """
    product = np.eye(2)
    for u in unitaries:
        product = u @ product
    pair = (product.conj().T @ np.array([1.0, 1.0]) / np.sqrt(2))[:, None]
    for u in unitaries:
        pair = u @ np.stack([np.append(pair[0], 0.0), np.insert(pair[1], 0, 0.0)])
    h = np.empty(2 * pair.shape[1], dtype=complex)
    h[0::2], h[1::2] = pair
    return h / h.sum()


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """A 2x2 unitary from the QR factors of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="session")
def complex_lattice_filters() -> list[np.ndarray]:
    """One seeded complex lattice filter for each K = 2, 3, 4 (lengths 4..8)."""
    rng = np.random.default_rng(19910301)
    return [complex_lattice_lowpass([random_unitary(rng) for _ in range(k - 1)]) for k in (2, 3, 4)]


def kernel_blocks(patch: pytest.MonkeyPatch, block: int | None = None) -> list[int]:
    """The block of every filter-bank kernel call made while ``patch`` is
    active, in the list returned. With ``block``, the one block rule gives
    that block to every call: its floor ``_BLOCK`` is ``block`` and its byte
    cap 0."""
    import wavekit.subband as subband

    if block is not None:
        patch.setattr(subband, "_BLOCK", block)
        patch.setattr(subband, "_BLOCK_BYTES", 0)
    seen, rule = [], subband._block
    patch.setattr(subband, "_block", lambda *args: seen.append(rule(*args)) or seen[-1])
    return seen


def peak_bytes(fn) -> int:
    """The tracemalloc peak of the second of two calls of ``fn``."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
