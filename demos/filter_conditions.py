"""Tour of the filter toolbox: builtins, orthogonality residuals, and the
high-pass companion.

Run:  python3 demos/filter_conditions.py
"""
import numpy as np

from wavekit import (
    BUILTIN_NAMES,
    builtin_filter,
    derive_highpass,
    qmf_check,
    symbol_eval,
)

print("builtin filters")
print("---------------")
for name in BUILTIN_NAMES:
    f = builtin_filter(name)
    taps = ", ".join(f"{v:+.6f}" for v in f.h)
    print(f"{name:>15}: start {f.start}, taps [{taps}]")

print()
print("lag-orthogonality residuals (want ~0 at every lag)")
print("--------------------------------------------------")
for name in BUILTIN_NAMES:
    rep = qmf_check(builtin_filter(name))
    pairs = ", ".join(f"k={k}: {r:+.2e}" for k, r in zip(rep.lags, rep.residuals))
    print(f"{name:>15}: {pairs}")
    print(f"{'':>15}  max {rep.max_residual:.2e} -> {'PASS' if rep.passed else 'FAIL'}")

# A filter that sums to one but is not orthogonal: the shifted delta. Its
# lag-0 sum is 1 instead of 1/2, so the residual sits at exactly one half.
print()
from wavekit import FilterSpec  # noqa: E402

delta = FilterSpec("delta", np.array([1.0, 0.0]), 0)
print(f"delta (1, 0) max residual {qmf_check(delta).max_residual:.3f} (k=0 term)")

print()
print("high-pass companions g_k = (-1)^k conj(h_{1-k})")
print("------------------------------------------------")
for name in ("haar", "db4"):
    f = builtin_filter(name)
    g = derive_highpass(f)
    taps = ", ".join(f"{v:+.6f}" for v in g.h)
    print(f"{name:>15}: start {g.start}, taps [{taps}], sum {g.h.sum():+.1e}")

print()
print("symbol values on the unit circle")
print("--------------------------------")
f = builtin_filter("db4")
for z, label in ((1.0, "z=+1"), (-1.0, "z=-1")):
    m0 = symbol_eval(f, "low", z)
    m1 = symbol_eval(f, "high", z)
    print(f"{label}: low {m0:+.6f}  high {m1:+.6f}")
z = np.exp(1j * np.linspace(0, np.pi, 5))
power = np.abs(symbol_eval(f, "low", z)) ** 2 + np.abs(symbol_eval(f, "high", z)) ** 2
print(f"|low|^2 + |high|^2 along the circle: {np.round(power, 12)}")
