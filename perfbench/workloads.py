"""The three workloads and the CLI commands: what set-up builds, what one
pass runs, and how its outputs are checked.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A pass is a fixed list of operations,
so every run attempts whole passes of the same operations. Library calls go
through the module objects (``subband.dwt1d``), which is where the traced
run puts its spans.
"""
from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import gen
import oracles
from spans import LAYERS


@dataclass
class Ops:
    """Wall time of every operation in one pass, in call order, by kind."""

    times: list[tuple[str, float]] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    def run(self, kind: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.times.append((kind, time.perf_counter() - t0))


def _wk():
    """wavekit's layer modules by name (``wavekit.cwt`` the attribute is the
    function of that name, so the modules come from importlib)."""
    return SimpleNamespace(**{m: importlib.import_module(f"wavekit.{m}") for m in LAYERS})


# ---------------------------------------------------------------------------
# pyramid: in-process round trips, big inputs and many small calls

SIGNAL_N = 1 << 20
IMAGE_N = 2048
SHORT_N, SHORT_COUNT = 64, 1000


class Pyramid:
    name = "pyramid"

    def build(self, seed: int, traced: bool = False) -> None:
        wk = _wk()
        rng = np.random.default_rng(seed)
        self.filters = [
            wk.filters.builtin_filter("db4"),
            wk.filters.FilterSpec("lattice8", gen.random_lattice_filter(rng, 4)),
        ]

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 1])
        self.signal = gen.bandlimited(rng, SIGNAL_N)
        self.image = gen.image(rng, IMAGE_N)
        self.shorts = np.stack([gen.bandlimited(rng, SHORT_N, band=(1 / 16, 1 / 4)) for _ in range(SHORT_COUNT)])

    def run_pass(self, ops: Ops):
        wk = _wk()
        sb, im = wk.subband, wk.image2d
        out = []
        for f in self.filters:
            lev1 = sb.max_levels(SIGNAL_N, f)
            lev2 = im.max_levels_2d((IMAGE_N, IMAGE_N), f)
            levs = sb.max_levels(SHORT_N, f)
            sig = ops.run("signal", lambda: (p := sb.dwt1d(self.signal, f, lev1), sb.idwt1d(p, f)))
            img = ops.run("image", lambda: (p := im.dwt2d(self.image, f, lev2), im.idwt2d(p, f)))
            shorts = [
                ops.run("short", lambda x=x: (p := sb.dwt1d(x, f, levs), sb.idwt1d(p, f)))
                for x in self.shorts
            ]
            out.append((f, sig, img, shorts))
        return out

    def ops_per_pass(self) -> int:
        return len(self.filters) * (2 + SHORT_COUNT)

    def check(self, out) -> list[str]:
        problems = []
        for f, sig, img, shorts in out:
            h, s = np.asarray(f.h), f.start
            if sig is not None:
                p, rec = sig
                problems += oracles.first_level_1d(f"{f.name} 2^20", self.signal, p.details[0], h, s)
                problems += oracles.roundtrip(f"{f.name} 2^20", self.signal, rec)
                problems += oracles.energy(f"{f.name} 2^20", self.signal, [*p.details, p.approx])
            if img is not None:
                p, rec = img
                t = p.details[0]
                problems += oracles.first_level_2d(f"{f.name} 2048^2", self.image, (t.h, t.v, t.d), h, s)
                problems += oracles.roundtrip(f"{f.name} 2048^2", self.image, rec)
                bands = [p.approx] + [b for t in p.details for b in (t.h, t.v, t.d)]
                problems += oracles.energy(f"{f.name} 2048^2", self.image, bands)
            done = [i for i, r in enumerate(shorts) if r is not None]
            if done:
                x = self.shorts[done]
                label = f"{f.name} 64-sample"
                problems += oracles.first_level_1d(label, x, np.stack([shorts[i][0].details[0] for i in done]), h, s)
                problems += oracles.roundtrip(label, x, np.stack([shorts[i][1] for i in done]))
                for i in done:
                    p = shorts[i][0]
                    problems += oracles.energy(f"{label} #{i}", self.shorts[i], [*p.details, p.approx])
        return problems

    def perturbed(self, out) -> list[tuple[str, list[str]]]:
        """Damaged copies of the first filter's outputs; an output whose
        operation failed is already counted in ``failed`` and skipped."""
        f, sig, img, shorts = out[0]
        h = np.asarray(f.h)
        tests = []
        if sig is not None:
            p, rec = sig
            bands = [*p.details, p.approx]
            top = max(range(len(bands)), key=lambda i: np.sum(bands[i] ** 2))
            bands[top] = 1.001 * bands[top]
            tests += [
                ("1-d band sign", oracles.first_level_1d("", self.signal, -p.details[0], h, f.start)),
                ("1-d reconstruction", oracles.roundtrip("", self.signal, rec + 1e-6 * np.abs(self.signal).max())),
                ("strongest band scaled", oracles.energy("", self.signal, bands)),
            ]
        if img is not None:
            t = img[0].details[0]
            tests.append(("2-d plane sign", oracles.first_level_2d("", self.image, (t.h, -t.v, t.d), h, f.start)))
        if shorts[0] is not None:
            d = -shorts[0][0].details[0]
            tests.append(("short band sign", oracles.first_level_1d("", self.shorts[0], d, h, f.start)))
        return tests


# ---------------------------------------------------------------------------
# scalogram: in-process cwt -> icwt round trips

SCALOGRAM_NS = (256, 512, 1024)
CASCADE_LEVEL = 8


def _counting(wk, psi, counter):
    """The same wavelet with an evaluator that counts the samples it
    returns."""
    fn = psi.fn

    def counted(x):
        counter[0] += np.size(x)
        return fn(x)

    return wk.cwt.AnalyzingWavelet(name=psi.name, support=psi.support, fn=counted, native_dx=psi.native_dx)


class Scalogram:
    name = "scalogram"

    def build(self, seed: int, traced: bool = False) -> None:
        wk = _wk()
        self.db4 = wk.filters.builtin_filter("db4")
        mex = wk.cwt.named_wavelet("mexican_hat")
        cas = wk.cwt.wavelet_from_filter(self.db4, CASCADE_LEVEL)
        # Set-up readies both wavelets as a caller would; each pass builds
        # its own fresh ones, so these only count in setup_s.
        wk.cwt.admissibility(mex)
        wk.cwt.admissibility(cas)
        # Scale ladders: 8 voices per octave up to n/2, starting where the
        # support still spans 4 samples (mexican_hat 16 wide, db4 psi 3 wide).
        self.grids = {
            (n, kind): wk.cwt.CwtGrid(wk.cwt.geometric_scales(r0, n / 2, 8), np.arange(n, dtype=float))
            for n in SCALOGRAM_NS
            for kind, r0 in (("mexican_hat", 1.0), ("cascade", 2.0))
        }
        box_grid = -2.0 + 2.0**-10 * np.arange(6 * 1024)
        self.box = wk.cwt.SampledFunction(-2.0, 2.0**-10, ((box_grid >= 0) & (box_grid < 1)).astype(float))
        self.counter = [0]
        self.wrap = (lambda psi: _counting(wk, psi, self.counter)) if traced else (lambda psi: psi)

    def make_inputs(self, seed: int, workdir: str) -> None:
        wk = _wk()
        rng = np.random.default_rng([seed, 2])
        self.signals = {n: wk.cwt.SampledFunction(0.0, 1.0, gen.bandlimited(rng, n)) for n in SCALOGRAM_NS}
        # Cells to check: three rows (first, middle, last scale) by four shifts.
        self.picks = {}
        for key, grid in self.grids.items():
            rows = (0, grid.scales.size // 2, grid.scales.size - 1)
            cols = rng.choice(key[0], size=4, replace=False)
            self.picks[key] = [(i, int(j)) for i in rows for j in cols]

    def run_pass(self, ops: Ops):
        cwt = _wk().cwt
        self.counter[0] = 0
        mex = self.wrap(cwt.named_wavelet("mexican_hat"))
        out = {"C": ops.run("admissibility", cwt.admissibility, mex)}
        cas = ops.run("wavelet_from_filter", cwt.wavelet_from_filter, self.db4, CASCADE_LEVEL)
        cas = cas and self.wrap(cas)
        for n in SCALOGRAM_NS:
            for kind, psi in (("mexican_hat", mex), ("cascade", cas)):
                grid = self.grids[(n, kind)]
                out[(n, kind)] = ops.run(
                    "roundtrip", lambda: (c := cwt.cwt(self.signals[n], psi, grid), cwt.icwt(c, psi))
                )
        out["parseval"] = ops.run("parseval", cwt.parseval_ratio, self.box, self.wrap(cwt.named_wavelet("haar_psi")), (-8, 4))
        out["psi_evals"] = self.counter[0]
        return out

    def ops_per_pass(self) -> int:
        return 3 + 2 * len(SCALOGRAM_NS)

    def _psi(self, kind):
        if kind == "mexican_hat":
            return oracles.mexican_hat
        d = _wk().cascade.wavelet_function(self.db4, CASCADE_LEVEL)
        return oracles.step_function(d.x0, d.step, np.asarray(d.values))

    def check(self, out) -> list[str]:
        problems = []
        if out["C"] is not None:
            problems += oracles.admissibility_constant("admissibility(mexican_hat)", out["C"])
        if out["parseval"] is not None:
            problems += oracles.parseval("parseval_ratio(haar_psi)", out["parseval"])
        for n in SCALOGRAM_NS:
            x = self.signals[n].values
            for kind in ("mexican_hat", "cascade"):
                if out[(n, kind)] is None:
                    continue
                c, rec = out[(n, kind)]
                label = f"{kind} n={n}"
                problems += oracles.cells(label, x, c.matrix, c.scales, c.shifts, self._psi(kind), self.picks[(n, kind)])
                problems += oracles.inversion(label, x, rec.values, oracles.INVERSION_BOUND[kind])
        return problems

    def perturbed(self, out) -> list[tuple[str, list[str]]]:
        """Damaged copies of the outputs; one whose operation failed is
        already counted in ``failed`` and skipped."""
        n, kind = SCALOGRAM_NS[0], "mexican_hat"
        x = self.signals[n].values
        tests = [("parseval low", oracles.parseval("", 0.9))]
        if out["C"] is not None:
            tests.append(("admissibility off", oracles.admissibility_constant("", out["C"] * 1.02)))
        if out[(n, kind)] is not None:
            c, rec = out[(n, kind)]
            row = self.picks[(n, kind)][0][0]
            bad = c.matrix.copy()
            bad[row] *= math.sqrt(2.0)
            tests += [
                ("row scaled by sqrt 2", oracles.cells("", x, bad, c.scales, c.shifts, oracles.mexican_hat, self.picks[(n, kind)])),
                ("reconstruction scaled", oracles.inversion("", x, 1.1 * rec.values, oracles.INVERSION_BOUND[kind])),
            ]
        return tests


# ---------------------------------------------------------------------------
# verify: filter checks over a generated orthogonal family

CUNTZ_N = 256
CASCADE_J = 10


class Verify:
    name = "verify"

    def build(self, seed: int, traced: bool = False) -> None:
        fl = _wk().filters
        rng = np.random.default_rng([seed, 3])
        lattice = [(f"lattice{2 * k}", gen.random_lattice_filter(rng, k)) for k in range(1, 11)]
        # (spec, orthonormal translates expected)
        self.family = [(fl.FilterSpec(name, h), True) for name, h in lattice]
        self.family += [(fl.builtin_filter(name), name != "stretched_haar") for name in ("haar", "db4", "stretched_haar")]
        self.family += [(fl.FilterSpec(f"{name}x3", gen.upsample(h, 3)), False) for name, h in lattice]

    def make_inputs(self, seed: int, workdir: str) -> None:
        pass

    def run_pass(self, ops: Ops):
        wk = _wk()

        def checks(f, onb):
            q = wk.filters.qmf_check(f)
            c = wk.subband.cuntz_check(f, CUNTZ_N)
            v = wk.transfer.lawton_test(f)
            if not onb:
                return q, c, v, None, None
            return q, c, v, wk.cascade.scaling_function(f, CASCADE_J), wk.cascade.wavelet_function(f, CASCADE_J)

        return [(f, onb, ops.run("filter", checks, f, onb)) for f, onb in self.family]

    def ops_per_pass(self) -> int:
        return len(self.family)

    def check(self, out) -> list[str]:
        problems = []
        for f, onb, res in out:
            if res is None:
                continue
            q, c, v, phi, psi = res
            h = np.asarray(f.h)
            problems += oracles.qmf(f.name, h, q.max_residual, q.passed)
            problems += oracles.cuntz(f.name, c.n, c.max_deviation, c.passed, CUNTZ_N)
            problems += oracles.lawton(f.name, v.verdict, v.multiplicity, v.bucket_multiplicity, onb)
            if onb:
                problems += oracles.cascade(f.name, h, f.start, CASCADE_J, np.asarray(phi.values), np.asarray(psi.values), psi.x0)
        return problems

    def perturbed(self, out) -> list[tuple[str, list[str]]]:
        """Damaged copies of one ONB filter's results (a generated length-8
        filter) and of one upsampled filter's verdict; a result whose
        operation failed is already counted in ``failed`` and skipped."""
        tests = []
        f, _, res = out[3]
        if res is not None:
            q, c, v, phi, psi = res
            h = np.asarray(f.h)
            bumped = np.asarray(phi.values).copy()
            bumped[bumped.size // 3] += 1e-6
            tests += [
                ("qmf residual", oracles.qmf("", h, q.max_residual + 1e-9, q.passed)),
                ("cuntz verdict", oracles.cuntz("", c.n, c.max_deviation, False, CUNTZ_N)),
                ("cascade scaled", oracles.cascade("", h, f.start, CASCADE_J, 1.001 * np.asarray(phi.values), np.asarray(psi.values), psi.x0)),
                ("cascade bumped", oracles.cascade("", h, f.start, CASCADE_J, bumped, np.asarray(psi.values), psi.x0)),
            ]
        _, _, res = out[-1]
        if res is not None:
            vu = res[2]
            tests.append(("lawton verdict", oracles.lawton("", "ONB", vu.multiplicity, vu.bucket_multiplicity, False)))
        return tests


# ---------------------------------------------------------------------------
# cli: one wavekit process at a time

CLI_SIGNAL_N = 1 << 16
CLI_IMAGE_N = 512
CLI_CWT_N = 512
CLI_CASCADE_J = 10
CLI_SCALES = "1:256:8"

#: (kind, argv, documented exit status)
COMMANDS = (
    ("verify", ["verify", "--filter", "db4", "--lawton"], 0),
    ("verify", ["verify", "--filter", "stretched_haar", "--lawton"], 1),
    ("transform_dwt1d", ["transform", "dwt1d", "--in", "signal.csv", "--filter", "db4", "--out", "signal.pyr"], 0),
    ("transform_idwt1d", ["transform", "idwt1d", "--in", "signal.pyr", "--out", "signal.back.csv"], 0),
    ("transform_dwt2d", ["transform", "dwt2d", "--in", "image.pgm", "--filter", "db4", "--out", "image.pyr", "--preview", "mosaic.pgm"], 0),
    ("transform_idwt2d", ["transform", "idwt2d", "--in", "image.pyr", "--out", "image.back.pgm"], 0),
    ("cascade", ["cascade", "--filter", "db4", "--resolution", str(CLI_CASCADE_J), "--which", "psi", "--out", "psi.csv"], 0),
    ("cwt", ["cwt", "--in", "tone.csv", "--wavelet", "mexican_hat", "--scales", CLI_SCALES, "--out", "scalogram.csv", "--heatmap", "heat.pgm", "--invert"], 0),
)


def write_csv(path, values) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{v:.17g}\n" for v in values))


def write_p5(path, pixels: np.ndarray) -> None:
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def read_p5(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, cols, rows, maxval, raster = data.split(maxsplit=4)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 file")
    return np.frombuffer(raster, dtype=np.uint8).reshape(int(rows), int(cols))


def read_block(path, label) -> np.ndarray:
    """One ``[label]`` block of a pyramid container, parsed here."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = lines.index(f"[{label}]") + 1
    j = i
    while j < len(lines) and not lines[j].startswith("["):
        j += 1
    return np.array([[float(v) for v in line.split(",")] for line in lines[i:j]]).squeeze()


class Cli:
    """Not a workload of its own: the traced run of ``run.CLI_HOST`` runs one
    pass of these commands after its timed loop."""

    name = "cli"

    def build(self, seed: int, traced: bool = False) -> None:
        # The filters and the wavelet the commands name; set-up builds them
        # the way each command does after its import.
        wk = _wk()
        self.filters = [wk.filters.builtin_filter(n) for n in ("db4", "stretched_haar")]
        self.psi = wk.cwt.named_wavelet("mexican_hat")
        self.traced = traced

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        self.signal = gen.bandlimited(rng, CLI_SIGNAL_N)
        self.image = gen.image(rng, CLI_IMAGE_N)
        self.tone = gen.bandlimited(rng, CLI_CWT_N)
        write_csv(self._path("signal.csv"), self.signal)
        write_p5(self._path("image.pgm"), self.image)
        write_csv(self._path("tone.csv"), self.tone)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _spawn(self, argv):
        """Run one wavekit command to exit; returns (status, stdout, stderr)."""
        done = subprocess.run(
            [sys.executable, "-m", "wavekit", *argv], cwd=self.workdir, env=self.env, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

    def run_pass(self, ops: Ops):
        out = []
        for kind, argv, want in COMMANDS:
            status, text, err = ops.run(kind, self._spawn, argv) or (None, "", "")
            # An uncaught exception also exits 1, the documented NOT_ONB status.
            if status not in (0, 1) or "Traceback" in err:
                ops.failed.append(f"{' '.join(argv)}: exit status {status}: {err.strip()[-200:].splitlines()[-1:]}")
                status = None
            out.append((kind, argv, want, status, text))
        if self.traced:
            self.time_io()
        return out

    def time_io(self) -> None:
        """The io layer in-process, on the files the commands read and
        wrote; the traced run's spans time each call."""
        io = _wk().io
        cwt = _wk().cwt
        x = io.read_signal_csv(self._path("signal.csv"))
        io.write_signal_csv(self._path("io.csv"), x)
        img = io.read_pgm(self._path("image.pgm"))
        io.write_pgm(self._path("io.pgm"), img)
        pyr, name = io.read_pyramid_container(self._path("image.pyr"))
        io.write_pyramid_container(self._path("io.pyr"), pyr, name)
        with open(self._path("scalogram.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        grid = cwt.CwtGrid([float(v) for v in rows[0][1:]], [float(v) for v in rows[1][1:]])
        matrix = np.array([[float(v) for v in r] for r in rows[2:]])
        coeffs = cwt.CwtCoefficients(matrix=matrix, grid=grid, x_min=0.0, dx=1.0, n_samples=CLI_CWT_N)
        io.write_scalogram_csv(self._path("io.scalogram.csv"), coeffs)

    def container_bytes(self) -> int:
        return sum(os.path.getsize(self._path(p)) for p in ("signal.pyr", "image.pyr"))

    def ops_per_pass(self) -> int:
        return len(COMMANDS)

    def check(self, out) -> list[str]:
        problems = []
        for kind, argv, want, status, text in out:
            if status is None:
                continue  # counted as failed
            problems += oracles.exit_status(" ".join(argv[:3]), status, want)
            if kind == "verify":
                expected = "lawton: ONB" if want == 0 else "lawton: NOT_ONB"
                if expected not in text:
                    problems.append(f"{' '.join(argv)}: output lacks {expected!r}")
        if not self.all_ran(out):
            return problems  # the missing files belong to a failed command
        files = self.file_outputs(out)
        problems += self.check_files(*files)
        scalogram_shape = files[5].shape
        for name, shape in (("mosaic.pgm", (CLI_IMAGE_N, CLI_IMAGE_N)), ("heat.pgm", scalogram_shape)):
            got = read_p5(self._path(name)).shape
            if got != shape:
                problems.append(f"{name}: shape {got}, expected {shape}")
        return problems

    @staticmethod
    def all_ran(out) -> bool:
        """Every command ended with its documented status, so every file
        the checks read was written."""
        return all(status == want for *_, want, status, _ in out)

    def file_outputs(self, out):
        back = np.loadtxt(self._path("signal.back.csv"))
        detail1 = read_block(self._path("signal.pyr"), "detail-1")
        image_back = read_p5(self._path("image.back.pgm"))
        cwt_text = out[-1][4]
        err = float(cwt_text.split("inversion relative L2 error:")[1].split()[0])
        with open(self._path("scalogram.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        scales = np.array(rows[0][1:], dtype=float)
        matrix = np.array(rows[2:], dtype=float)
        psi = np.loadtxt(self._path("psi.csv"), delimiter=",")
        return back, detail1, image_back, err, scales, matrix, psi

    def check_files(self, back, detail1, image_back, err, scales, matrix, psi) -> list[str]:
        db4 = self.filters[0]
        h = np.asarray(db4.h)
        problems = oracles.roundtrip("idwt1d CSV", self.signal, back, tol=1e-12)
        problems += oracles.first_level_1d("dwt1d container", self.signal, detail1, h, db4.start)
        problems += oracles.exact("idwt2d PGM", image_back, self.image.astype(np.uint8))
        problems += oracles.bounded("cwt --invert error", err, oracles.INVERSION_BOUND["mexican_hat"])
        shifts = np.arange(CLI_CWT_N, dtype=float)
        picks = [(i, j) for i in (0, scales.size // 2, scales.size - 1) for j in (CLI_CWT_N // 4, CLI_CWT_N // 2)]
        problems += oracles.cells("cwt scalogram CSV", self.tone, matrix, scales, shifts, oracles.mexican_hat, picks)
        step = 2.0**-CLI_CASCADE_J
        if psi.shape[0] != 3 * (1 << CLI_CASCADE_J) + 1 or abs(psi[:, 1].sum() * step) > 1e-9:
            problems.append(f"cascade psi CSV: {psi.shape[0]} rows, integral {psi[:, 1].sum() * step!r}")
        return problems

    def perturbed(self, out) -> list[tuple[str, list[str]]]:
        tests = [("stretched_haar exit 0", oracles.exit_status("", 0, 1))]
        if not self.all_ran(out):
            return tests
        back, detail1, image_back, err, scales, matrix, psi = self.file_outputs(out)
        flipped = image_back.copy()
        flipped[7, 11] ^= 1
        scaled = matrix.copy()
        scaled[0] *= math.sqrt(2.0)
        return tests + [
            ("CSV off by 1e-9", self.check_files(back + 1e-9 * np.abs(self.signal).max(), detail1, image_back, err, scales, matrix, psi)),
            ("container band sign", self.check_files(back, -detail1, image_back, err, scales, matrix, psi)),
            ("one pixel", self.check_files(back, detail1, flipped, err, scales, matrix, psi)),
            ("inversion error", self.check_files(back, detail1, image_back, 0.2, scales, matrix, psi)),
            ("scalogram row", self.check_files(back, detail1, image_back, err, scales, scaled, psi)),
        ]


WORKLOADS = {w.name: w for w in (Pyramid, Scalogram, Verify)}
