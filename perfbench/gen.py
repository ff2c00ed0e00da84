"""Seeded input generators: orthogonal filters, band-limited signals, images.

Every generator takes a ``numpy.random.Generator`` made from the benchmark
seed, so one seed always gives the same inputs.
"""
from __future__ import annotations

import numpy as np


def lattice_filter(angles) -> np.ndarray:
    """Real orthogonal low-pass filter of length 2K from K lattice angles.

    The two polyphase components start as a rotation of (1, 0); every further
    stage delays the odd component by one sample and rotates again
    (Vaidyanathan & Hoang 1988). A chain of rotations and delays is lossless,
    so the even-lag autocorrelation vanishes for every choice of angles. At
    z = 1 the delays disappear and the pair is (cos S, sin S) with S the sum
    of the angles; the caller picks S = pi/4 so the taps sum to sqrt(2), and
    the result is scaled to sum 1.
    """
    angles = np.asarray(angles, dtype=float)
    even = np.array([np.cos(angles[0])])
    odd = np.array([np.sin(angles[0])])
    for theta in angles[1:]:
        even = np.append(even, 0.0)
        odd = np.insert(odd, 0, 0.0)
        c, s = np.cos(theta), np.sin(theta)
        even, odd = c * even - s * odd, s * even + c * odd
    h = np.empty(2 * even.size)
    h[0::2] = even
    h[1::2] = odd
    return h / h.sum()


def random_lattice_filter(rng: np.random.Generator, k: int) -> np.ndarray:
    """Length-2k orthogonal filter: k-1 free angles, the last one closes the
    sum to pi/4."""
    free = rng.uniform(0.0, 2.0 * np.pi, size=k - 1)
    return lattice_filter(np.append(free, np.pi / 4 - free.sum()))


def upsample(h: np.ndarray, factor: int) -> np.ndarray:
    """Insert factor-1 zeros between taps (haar upsampled by 3 is
    stretched_haar)."""
    out = np.zeros(factor * (h.size - 1) + 1)
    out[::factor] = h
    return out


def bandlimited(rng: np.random.Generator, n: int, band=(1 / 64, 1 / 16), tones: int = 6):
    """Gaussian-enveloped sum of tones with frequencies in ``band``
    (cycles per sample). The envelope (centre n/2, width n/8) takes the
    signal to about 3e-4 of its peak at both ends."""
    t = np.arange(n, dtype=float)
    freqs = rng.uniform(band[0], band[1], size=tones)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=tones)
    amps = rng.uniform(0.5, 1.0, size=tones)
    carrier = (amps[:, None] * np.cos(2 * np.pi * freqs[:, None] * t + phases[:, None])).sum(0)
    return carrier * np.exp(-0.5 * ((t - n / 2) / (n / 8)) ** 2)


def image(rng: np.random.Generator, n: int, blobs: int = 8, gratings: int = 3) -> np.ndarray:
    """n x n integer-valued image in 0..255 built from separable Gaussian
    blobs and oriented gratings (outer products, so 2048^2 costs little)."""
    y = np.arange(n, dtype=float)
    out = np.zeros((n, n))
    for _ in range(blobs):
        cy, cx = rng.uniform(0, n, size=2)
        sy, sx = rng.uniform(n / 32, n / 6, size=2)
        amp = rng.uniform(-1.0, 1.0)
        out += amp * np.outer(np.exp(-0.5 * ((y - cy) / sy) ** 2), np.exp(-0.5 * ((y - cx) / sx) ** 2))
    for _ in range(gratings):
        fy, fx = rng.uniform(-1 / 16, 1 / 16, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.3)
        ay, ax = 2 * np.pi * fy * y + phase, 2 * np.pi * fx * y
        # cos(ay + ax) = cos ay cos ax - sin ay sin ax
        out += amp * (np.outer(np.cos(ay), np.cos(ax)) - np.outer(np.sin(ay), np.sin(ax)))
    lo, hi = out.min(), out.max()
    return np.floor(255.0 * (out - lo) / (hi - lo) + 0.5)
