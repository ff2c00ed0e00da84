"""Command line surface: verify, transform, cascade, cwt.

Exit statuses: 0 success, 1 a verification verdict came back negative,
2 input or parameter problems (unknown names, malformed files, inadmissible
sizes or levels), 3 numeric failures (degenerate eigenproblems, inadmissible
wavelets, unresolvable quadrature). argparse's own usage errors also exit 2.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .cascade import scaling_function, wavelet_function
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
    read_filter_file,
    read_pgm,
    read_pyramid_container,
    read_signal_csv,
    require_file,
    write_dyadic_csv,
    write_heatmap_pgm,
    write_pgm,
    write_pyramid_container,
    write_scalogram_csv,
    write_signal_csv,
)
from .subband import Pyramid1D, cuntz_check, dwt1d, idwt1d, max_levels
from .transfer import lawton_test

#: Cap on cascade refinement depth reachable from the command line; 2^24
#: samples per support unit is already far past plotting needs.
MAX_CLI_RESOLUTION = 24


def _resolve_filter(token: str) -> FilterSpec:
    """Builtin name first, then a filter file path."""
    if token in BUILTIN_NAMES:
        return builtin_filter(token)
    if os.path.isfile(token):
        return read_filter_file(token)
    known = ", ".join(BUILTIN_NAMES)
    raise CatalogError(
        f"unknown filter {token!r}: not a builtin ({known}) and not a file"
    )


def _resolve_wavelet(token: str):
    if token.startswith("cascade:"):
        body = token[len("cascade:"):]
        filter_token, sep, level_text = body.rpartition(":")
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
        return wavelet_from_filter(_resolve_filter(filter_token), _capped(level))
    return named_wavelet("haar_psi" if token == "haar" else token)


def _capped(resolution: int) -> int:
    if resolution > MAX_CLI_RESOLUTION:
        raise ParameterError(
            f"cascade resolution {resolution} exceeds the CLI cap {MAX_CLI_RESOLUTION}"
        )
    return resolution


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


def _reject(value, flag: str, mode: str):
    if value is not None and value is not False:
        raise ParameterError(f"{flag} does not apply to {mode}")


# ---------------------------------------------------------------------------
# verify


def _run_verify(args) -> int:
    f = _resolve_filter(args.filter)
    qmf_tol = args.tol if args.tol is not None else 1e-12
    cuntz_tol = args.tol if args.tol is not None else 1e-10
    lawton_tol = args.tol if args.tol is not None else 1e-8

    print(f"filter: {f.name} ({f.length} taps, start {f.start})")
    q = qmf_check(f, tol=qmf_tol)
    print(
        f"qmf: {'PASS' if q.passed else 'FAIL'} "
        f"(max residual {q.max_residual:.3e}, tol {q.tolerance:g})"
    )
    c = cuntz_check(f, n=args.cuntz_n, tol=cuntz_tol)
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
            verdict = lawton_test(f, tol=lawton_tol)
            print(
                f"lawton: {verdict.verdict} "
                f"(eigenvalue-1 multiplicity {verdict.multiplicity})"
            )
            ok = ok and verdict.is_onb
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# transform


def _forward_filter(args) -> FilterSpec:
    if args.filter is None:
        raise ParameterError("forward transforms need --filter")
    return _resolve_filter(args.filter)


def _inverse_filter(args, container_name: str) -> FilterSpec:
    if args.filter is not None:
        return _resolve_filter(args.filter)
    if container_name in BUILTIN_NAMES:
        return builtin_filter(container_name)
    raise CatalogError(
        f"container names non-builtin filter {container_name!r}; pass --filter"
    )


def _run_transform(args) -> int:
    mode = args.mode
    if mode == "dwt1d":
        _reject(args.preview, "--preview", mode)
        _reject(args.quantize, "--quantize", mode)
        f = _forward_filter(args)
        x = read_signal_csv(require_file(args.input))
        n_lev = args.levels if args.levels is not None else max_levels(x.size, f)
        if n_lev < 1:
            raise LevelError(
                f"length {x.size} admits no decomposition with filter "
                f"{f.name!r} ({f.length} taps)"
            )
        pyramid = dwt1d(x, f, n_lev)
        write_pyramid_container(args.out, pyramid, f.name)
        print(
            f"wrote {args.out}: {pyramid.levels} level(s), "
            f"{pyramid.coefficient_count()} coefficients"
        )
    elif mode == "idwt1d":
        _reject(args.levels, "--levels", mode)
        _reject(args.preview, "--preview", mode)
        _reject(args.quantize, "--quantize", mode)
        pyramid, container_name = read_pyramid_container(require_file(args.input))
        if not isinstance(pyramid, Pyramid1D):
            raise FormatError(f"{args.input} holds an image pyramid; use idwt2d")
        f = _inverse_filter(args, container_name)
        write_signal_csv(args.out, idwt1d(pyramid, f))
        print(f"wrote {args.out}: {pyramid.signal_length} samples")
    elif mode == "dwt2d":
        f = _forward_filter(args)
        img = read_pgm(require_file(args.input))
        n_lev = (
            args.levels if args.levels is not None else max_levels_2d(img.shape, f)
        )
        if n_lev < 1:
            raise LevelError(
                f"shape {img.shape[0]}x{img.shape[1]} admits no decomposition "
                f"with filter {f.name!r} ({f.length} taps)"
            )
        pyramid = dwt2d(img, f, n_lev)
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
    elif mode == "idwt2d":
        _reject(args.levels, "--levels", mode)
        _reject(args.preview, "--preview", mode)
        pyramid, container_name = read_pyramid_container(require_file(args.input))
        if not isinstance(pyramid, ImagePyramid):
            raise FormatError(f"{args.input} holds a 1-d pyramid; use idwt1d")
        f = _inverse_filter(args, container_name)
        if args.quantize is not None:
            pyramid = snap_to_lattice(pyramid, Quantizer(step=args.quantize))
        img = idwt2d(pyramid, f)
        if np.iscomplexobj(img):
            img = img.real
        write_pgm(args.out, img)
        rows, cols = pyramid.image_shape
        print(f"wrote {args.out}: {rows}x{cols} pixels")
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown transform mode {mode!r}")
    return 0


# ---------------------------------------------------------------------------
# cascade


def _run_cascade(args) -> int:
    f = _resolve_filter(args.filter)
    build = scaling_function if args.which == "phi" else wavelet_function
    d = build(f, _capped(args.resolution))
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
    signal = read_signal_csv(require_file(args.input))
    psi = _resolve_wavelet(args.wavelet)
    constant = admissibility(psi)
    scales = _parse_scales(args.scales)
    f = SampledFunction(x_min=0.0, dx=1.0, values=signal)
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
        if args.out is None:
            raise ParameterError("--invert needs --out to place the reconstruction")
        rec = icwt(coeffs, psi)
        denom = f.norm()
        if denom == 0.0:
            raise ParameterError("--invert needs a nonzero input signal")
        rel = replace(f, values=rec.values - f.values).norm() / denom
        root, ext = os.path.splitext(args.out)
        recon_path = f"{root}.recon{ext or '.csv'}"
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
        return args.run(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (WavekitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
