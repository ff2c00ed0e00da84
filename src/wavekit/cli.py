"""Command line surface: verify, transform, cascade, cwt.

Exit statuses: 0 success, 1 a verification verdict came back negative,
2 input or parameter problems (unknown names, malformed files, inadmissible
sizes or levels), 3 numeric failures (degenerate eigenproblems, inadmissible
wavelets, unresolvable quadrature). argparse's own usage errors also exit 2.
Flag misuse (a flag the command or transform mode refuses, or one it lacks)
an output path that is a directory or lies in none, two outputs that name
one file and an output that names an input (``--in``, a ``--filter`` file or
the filter file of ``--wavelet cascade:<file>:<J>``) exit 2 before any input
is read or file written, so a refused command leaves no file behind.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .cascade import _checked_grid, _level_grid, scaling_function, wavelet_function
from .cwt import (
    CwtGrid,
    SampledFunction,
    admissibility,
    cwt,
    geometric_scales,
    icwt,
    named_wavelet,
    wavelet_from_filter,
)
from .errors import (
    CatalogError,
    FormatError,
    LevelError,
    NumericError,
    ParameterError,
    WavekitError,
)
from .filters import BUILTIN_NAMES, FilterSpec, builtin_filter, qmf_check
from .image2d import (
    ImagePyramid,
    Quantizer,
    dwt2d,
    idwt2d,
    max_levels_2d,
    preview_layout,
    snap_to_lattice,
)
from .io import (
    _check_x_column,
    read_filter_file,
    read_pgm,
    read_pyramid_container,
    read_signal_csv,
    write_dyadic_csv,
    write_heatmap_pgm,
    write_pgm,
    write_pyramid_container,
    write_scalogram_csv,
    write_signal_csv,
)
from .subband import Pyramid1D, cuntz_check, dwt1d, idwt1d, max_levels
from .transfer import lawton_test


def _require_file(path: str) -> str:
    """Existence gate with a uniform error for input paths."""
    if not os.path.isfile(path):
        raise FormatError(f"{path}: no such file")
    return path


def _is_filter_file(token: str) -> bool:
    """Whether a filter token names a file: a builtin name never does."""
    return token not in BUILTIN_NAMES and os.path.isfile(token)


def _resolve_filter(token: str) -> FilterSpec:
    """Builtin name first, then a filter file path."""
    if token in BUILTIN_NAMES:
        return builtin_filter(token)
    if _is_filter_file(token):
        return read_filter_file(token)
    known = ", ".join(BUILTIN_NAMES)
    raise CatalogError(
        f"unknown filter {token!r}: not a builtin ({known}) and not a file"
    )


def _cascade_parts(token: str):
    """(filter, ":", J) of a cascade:<filter>:<J> wavelet token, else None."""
    return token[len("cascade:"):].rpartition(":") if token.startswith("cascade:") else None


def _resolve_wavelet(token: str):
    if (parts := _cascade_parts(token)) is not None:
        filter_token, sep, level_text = parts
        if not sep or not filter_token:
            raise FormatError(
                f"wavelet {token!r}: cascade form is cascade:<filter>:<J>"
            )
        try:
            level = int(level_text)
        except ValueError:
            raise FormatError(
                f"wavelet {token!r}: resolution {level_text!r} is not an integer"
            ) from None
        return wavelet_from_filter(_resolve_filter(filter_token), level)
    return named_wavelet("haar_psi" if token == "haar" else token)


def _parse_scales(token: str) -> np.ndarray:
    parts = token.split(":")
    if len(parts) != 3:
        raise FormatError(f"--scales wants rmin:rmax:voices, got {token!r}")
    try:
        r_min, r_max = float(parts[0]), float(parts[1])
        voices = int(parts[2])
    except ValueError:
        raise FormatError(f"cannot parse --scales {token!r}") from None
    return geometric_scales(r_min, r_max, voices)


# The flag rules of each transform mode and of ``cwt``, which ``main`` checks
# before a command reads, computes or writes anything: the flags a mode refuses,
# then the one it needs, as (flag, the flag that makes it needed or None, error).
_FORWARD_NEEDS_FILTER = ("filter", None, "forward transforms need --filter")
_FLAG_RULES = {
    "dwt1d": (("preview", "quantize"), _FORWARD_NEEDS_FILTER),
    "idwt1d": (("levels", "preview", "quantize"), None),
    "dwt2d": ((), _FORWARD_NEEDS_FILTER),
    "idwt2d": (("levels", "preview"), None),
    "cwt": ((), ("out", "invert", "--invert needs --out to place the reconstruction")),
}


def _check_flags(args) -> None:
    mode = getattr(args, "mode", args.command)
    refused, need = _FLAG_RULES.get(mode, ((), None))
    for name in refused:
        if getattr(args, name) is not None:
            raise ParameterError(f"--{name} does not apply to {mode}")
    if need is not None:
        name, trigger, message = need
        if getattr(args, name) is None and (trigger is None or getattr(args, trigger)):
            raise ParameterError(message)


def _recon_path(out: str) -> str:
    """Where ``cwt --invert`` writes the reconstruction: next to ``out``."""
    root, ext = os.path.splitext(out)
    return f"{root}.recon{ext or '.csv'}"


def _check_outputs(args) -> None:
    """Refuse every output path that names no file, names a directory or lies
    in no directory, any two outputs that name one file, and any output that
    names a file the command reads, so that no command writes one file and
    then fails on, or overwrites it with, the next, or replaces its input."""
    paths = {f"--{name}": getattr(args, name, None) for name in ("out", "preview", "heatmap")}
    if getattr(args, "invert", False):
        paths["the --invert reconstruction"] = _recon_path(args.out)
    cascade = _cascade_parts(getattr(args, "wavelet", None) or "") or ("",)
    reads = {"--in": getattr(args, "input", None), "--filter": getattr(args, "filter", None),
             "--wavelet": cascade[0]}  # the files of filter tokens, by _resolve_filter's rule
    seen = {os.path.realpath(p): f for f, p in reversed(reads.items())
            if p and (f == "--in" or _is_filter_file(p))}
    for flag, path in ((k, p) for k, p in paths.items() if p is not None):
        folder, name = os.path.split(path)
        if not name or os.path.isdir(path):
            raise ParameterError(f"cannot write {path!r}: not a file name")
        if not os.path.isdir(folder or "."):
            raise ParameterError(f"cannot write {path!r}: no such directory")
        first = seen.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ParameterError(f"cannot write {path!r}: {first} and {flag} name one file")


# ---------------------------------------------------------------------------
# verify


def _run_verify(args) -> int:
    f = _resolve_filter(args.filter)
    tol = {} if args.tol is None else {"tol": args.tol}  # else each check's own default

    print(f"filter: {f.name} ({f.length} taps, start {f.start})")
    q = qmf_check(f, **tol)
    print(
        f"qmf: {'PASS' if q.passed else 'FAIL'} "
        f"(max residual {q.max_residual:.3e}, tol {q.tolerance:g})"
    )
    c = cuntz_check(f, n=args.cuntz_n, **tol)
    print(
        f"cuntz[n={c.n}]: {'PASS' if c.passed else 'FAIL'} "
        f"(max deviation {c.max_deviation:.3e}, tol {c.tolerance:g})"
    )
    ok = q.passed and c.passed
    if args.lawton:
        if not q.passed:
            print("lawton: SKIPPED (filter fails the orthogonality check)")
            ok = False
        else:
            verdict = lawton_test(f, **tol)
            print(
                f"lawton: {verdict.verdict} "
                f"(eigenvalue-1 multiplicity {verdict.multiplicity})"
            )
            ok = ok and verdict.is_onb
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# transform


def _run_transform(args) -> int:
    one_d = args.mode.endswith("1d")
    if args.mode.startswith("dwt"):
        f = _resolve_filter(args.filter)
        x = (read_signal_csv if one_d else read_pgm)(_require_file(args.input))
        # Only an input that admits no level is refused here; the transform checks --levels.
        admissible = max_levels(x.size, f) if one_d else max_levels_2d(x.shape, f)
        if admissible < 1:
            what = f"length {x.size}" if one_d else f"shape {x.shape[0]}x{x.shape[1]}"
            raise LevelError(
                f"{what} admits no decomposition with filter {f.name!r} ({f.length} taps)"
            )
        levels = admissible if args.levels is None else args.levels
        pyramid = (dwt1d if one_d else dwt2d)(x, f, levels)
        if args.quantize is not None:
            pyramid = snap_to_lattice(pyramid, Quantizer(step=args.quantize))
        write_pyramid_container(args.out, pyramid, f.name)
        print(
            f"wrote {args.out}: {pyramid.levels} level(s), "
            f"{pyramid.coefficient_count()} coefficients"
        )
        if args.preview is not None:
            write_pgm(args.preview, preview_layout(pyramid))
            print(f"wrote {args.preview}")
        return 0
    pyramid, name = read_pyramid_container(_require_file(args.input))
    if not isinstance(pyramid, Pyramid1D if one_d else ImagePyramid):
        held, use = ("an image", "idwt2d") if one_d else ("a 1-d", "idwt1d")
        raise FormatError(f"{args.input} holds {held} pyramid; use {use}")
    if args.filter is None and name not in BUILTIN_NAMES:
        raise CatalogError(f"container names non-builtin filter {name!r}; pass --filter")
    f = _resolve_filter(name if args.filter is None else args.filter)
    if args.quantize is not None:
        pyramid = snap_to_lattice(pyramid, Quantizer(step=args.quantize))
    if one_d:
        write_signal_csv(args.out, idwt1d(pyramid, f))
        print(f"wrote {args.out}: {pyramid.signal_length} samples")
    else:
        img = idwt2d(pyramid, f)
        write_pgm(args.out, img.real)
        print(f"wrote {args.out}: {img.shape[0]}x{img.shape[1]} pixels")
    return 0


# ---------------------------------------------------------------------------
# cascade


def _run_cascade(args) -> int:
    f = _resolve_filter(args.filter)
    # A bad resolution, then an x column the CSV would round, is refused before refining.
    J = _checked_grid(f, args.resolution)
    x0, count = _level_grid(f, J, args.which)
    _check_x_column(args.out, x0, J, count)
    build = scaling_function if args.which == "phi" else wavelet_function
    d = build(f, J)
    write_dyadic_csv(args.out, d)
    x_hi = d.x0 + d.step * (d.values.size - 1)
    integral = d.riemann_integral()
    print(
        f"{args.which}: support [{d.x0:g}, {x_hi:g}], {d.values.size} samples "
        f"at step 2^-{d.level}"
    )
    if isinstance(integral, complex):
        print(f"integral: {integral.real:.12g}{integral.imag:+.12g}i")
    else:
        print(f"integral: {integral:.12g}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cwt


def _run_cwt(args) -> int:
    signal = read_signal_csv(_require_file(args.input))
    f = SampledFunction(x_min=0.0, dx=1.0, values=signal)
    norm = f.norm()
    if args.invert and norm == 0.0:
        raise ParameterError("--invert needs a nonzero input signal")
    psi = _resolve_wavelet(args.wavelet)
    constant = admissibility(psi)
    scales = _parse_scales(args.scales)
    grid = CwtGrid(scales=scales, shifts=f.xs)
    coeffs = cwt(f, psi, grid)

    magnitude = np.abs(coeffs.matrix)
    peak = np.unravel_index(int(np.argmax(magnitude)), magnitude.shape)
    print(f"admissibility: {constant:.12g}")
    print(
        f"peak: scale={coeffs.scales[peak[0]]:.12g} "
        f"shift={coeffs.shifts[peak[1]]:.12g} "
        f"magnitude={magnitude[peak]:.12g}"
    )
    if args.out is not None:
        write_scalogram_csv(args.out, coeffs)
        print(f"wrote {args.out}")
    if args.heatmap is not None:
        write_heatmap_pgm(args.heatmap, coeffs)
        print(f"wrote {args.heatmap}")
    if args.invert:
        rec = icwt(coeffs, psi)
        rel = replace(f, values=rec.values - f.values).norm() / norm
        recon_path = _recon_path(args.out)
        write_signal_csv(recon_path, rec.values)
        print(f"inversion relative L2 error: {rel:.6g}")
        print(f"wrote {recon_path}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekit",
        description="Filter-bank and continuous wavelet transforms over CSV "
        "signals and PGM images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check filter orthogonality properties")
    p.add_argument("--filter", required=True, help="builtin name or filter file")
    p.add_argument("--tol", type=float, default=None, help="override all tolerances")
    p.add_argument(
        "--cuntz-n", type=int, default=16, help="signal length for the operator check"
    )
    p.add_argument(
        "--lawton",
        action="store_true",
        help="also decide orthonormality of the translates",
    )
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("transform", help="forward/inverse pyramid transforms")
    p.add_argument(
        "mode",
        choices=("dwt1d", "idwt1d", "dwt2d", "idwt2d"),
        help="transform direction and dimensionality",
    )
    p.add_argument("--filter", default=None, help="builtin name or filter file")
    p.add_argument("--levels", type=int, default=None, help="pyramid depth")
    p.add_argument("--in", dest="input", required=True, help="CSV, PGM, or container")
    p.add_argument("--out", required=True, help="container, CSV, or PGM")
    p.add_argument("--preview", default=None, help="quadrant mosaic PGM (dwt2d)")
    p.add_argument(
        "--quantize",
        type=float,
        default=None,
        help="snap 2-d coefficients to this lattice step",
    )
    p.set_defaults(run=_run_transform)

    p = sub.add_parser("cascade", help="refine scaling or wavelet functions")
    p.add_argument("--filter", required=True, help="builtin name or filter file")
    p.add_argument(
        "--resolution", type=int, required=True, help="dyadic refinement depth J"
    )
    p.add_argument("--which", choices=("phi", "psi"), default="phi")
    p.add_argument("--out", required=True, help="x,value CSV path")
    p.set_defaults(run=_run_cascade)

    p = sub.add_parser("cwt", help="continuous wavelet scalogram")
    p.add_argument("--in", dest="input", required=True, help="signal CSV")
    p.add_argument(
        "--wavelet",
        required=True,
        help="mexican_hat | haar | gaussian | cascade:<filter>:<J>",
    )
    p.add_argument("--scales", required=True, help="rmin:rmax:voices")
    p.add_argument("--out", default=None, help="scalogram CSV")
    p.add_argument("--heatmap", default=None, help="magnitude heat map PGM")
    p.add_argument(
        "--invert",
        action="store_true",
        help="also reconstruct and report the relative L2 error",
    )
    p.set_defaults(run=_run_cwt)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        _check_outputs(args)
        return args.run(args)
    except (WavekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
