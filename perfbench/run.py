"""wavekit benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload pyramid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 30     # reference figures

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md for what each one means).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the load is this one process, and on a small shared
# machine a second BLAS thread mostly adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

#: Fresh interpreters timed for setup_s, this many before the timed loop and
#: as many after it, so the two halves fall in different stretches of time.
SETUP_REPEATS = 4
#: Traced runs per workload in --repeat, after its untraced runs.
TRACED_RUNS = 2

# Metric names and units are those of BENCHMARK.json; the code below only
# says where each per-layer metric comes from.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# (metric, span name, input size or None for any, scale)
SPAN_METRICS = (
    ("subband.dwt1d_ms", "subband.dwt1d", 1 << 20, 1e3),
    ("subband.idwt1d_ms", "subband.idwt1d", 1 << 20, 1e3),
    ("subband.analysis_step_ms", "subband.analysis_step", 1 << 20, 1e3),
    ("subband.synthesis_step_ms", "subband.synthesis_step", 1 << 20, 1e3),
    ("subband.dwt1d_short_us", "subband.dwt1d", 64, 1e6),
    ("subband.idwt1d_short_us", "subband.idwt1d", 64, 1e6),
    ("subband.cuntz_check_ms", "subband.cuntz_check", None, 1e3),
    ("image2d.dwt2d_ms", "image2d.dwt2d", 2048 * 2048, 1e3),
    ("image2d.idwt2d_ms", "image2d.idwt2d", 2048 * 2048, 1e3),
    ("image2d.dwt2d_step_ms", "image2d.dwt2d_step", 2048 * 2048, 1e3),
    *(
        (f"cwt.{fn}_ms.n{n}", f"cwt.{fn}", n, 1e3)
        for fn in ("cwt", "icwt")
        for n in (256, 512, 1024)
    ),
    ("cascade.scaling_function_ms", "cascade.scaling_function", None, 1e3),
    ("cascade.wavelet_function_ms", "cascade.wavelet_function", None, 1e3),
    ("transfer.lawton_test_us", "transfer.lawton_test", None, 1e6),
    ("filters.qmf_check_us", "filters.qmf_check", None, 1e6),
    ("io.write_pyramid_container_ms", "io.write_pyramid_container", None, 1e3),
    ("io.read_pyramid_container_ms", "io.read_pyramid_container", None, 1e3),
    ("io.read_signal_csv_ms", "io.read_signal_csv", None, 1e3),
    ("io.write_signal_csv_ms", "io.write_signal_csv", None, 1e3),
    ("io.read_pgm_ms", "io.read_pgm", None, 1e3),
    ("io.write_pgm_ms", "io.write_pgm", None, 1e3),
    ("io.write_scalogram_csv_ms", "io.write_scalogram_csv", None, 1e3),
)
# (metric, operation kind): calls the workload times itself. admissibility
# is read here, not from spans, because icwt's own calls hit the cache.
OP_METRICS = (
    ("cwt.admissibility_ms", "admissibility"),
    ("cwt.parseval_ratio_ms", "parseval"),
    ("cascade.wavelet_from_filter_ms", "wavelet_from_filter"),
)
# The traced run of this workload also runs the eight CLI commands once after
# its timed loop, and the io layer in-process on their files. Start-up makes
# command times too unsteady for an end-to-end metric (README.md, Noise).
CLI_HOST = "verify"
CLI_KINDS = ("verify", "transform_dwt1d", "transform_idwt1d", "transform_dwt2d", "transform_idwt2d", "cascade", "cwt")


def setup_child(workload: str, seed: int) -> None:
    """Body of one set-up interpreter: import wavekit, build the workload's
    filters and wavelets, print the import time."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import wavekit  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    WORKLOADS[workload]().build(seed)
    print(import_s)


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Spawn-to-exit seconds and import seconds of fresh set-up interpreters."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
        )
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"set-up interpreter failed:\n{done.stderr}")
        imports.append(float(done.stdout.split()[-1]))
    return walls, imports


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _kind_median(passes, kind: str) -> float:
    return _median([t for p in passes for k, t in p.times if k == kind])


def fastest_pass(passes) -> float:
    """Sum over the pass's operations of each one's fastest time in the run
    (the i-th operation is the same call in every pass). The machine's speed
    changes in phases of seconds to minutes (README.md, Noise); the fastest
    repeat follows an unhindered core, where a median follows the share of
    the run spent in slow phases."""
    return sum(min(p.times[i][1] for p in passes) for i in range(len(passes[0].times)))


def checked(w, out) -> list[str]:
    """The workload's checks, then its perturbation self-test."""
    problems = w.check(out)
    dead = [label for label, found in w.perturbed(out) if not found]
    return problems + [f"check did not reject a perturbed output: {label}" for label in dead]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_walls, import_times = time_setup(workload, seed)

    sys.path.insert(0, SRC)
    import spans
    from workloads import WORKLOADS, Cli, Ops

    w = WORKLOADS[workload]()
    w.build(seed, traced=traced)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        w.make_inputs(seed, workdir)
        rec = spans.Recorder()
        if traced:
            spans.install(rec)

        passes, out, failures = [], None, []
        deadline = time.perf_counter() + seconds
        while True:
            out = None  # let the previous pass's outputs go before the next
            ops = Ops()
            out = w.run_pass(ops)
            passes.append(ops)
            failures += ops.failed
            if time.perf_counter() >= deadline:
                break

        walls, imports = time_setup(workload, seed)
        setup_walls += walls
        import_times += imports

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = {
            "setup_s": _median(setup_walls),
            "peak_rss_mb": peak_kb / 1024.0,
            "pass_s": fastest_pass(passes),
        }
        problems = checked(w, out)
        attempted = len(passes) * w.ops_per_pass()

        cli_ops, container_bytes = Ops(), 0
        if traced and workload == CLI_HOST:
            cli = Cli()
            cli.build(seed, traced=True)
            cli.make_inputs(seed, workdir)
            cli_out = cli.run_pass(cli_ops)
            container_bytes = cli.container_bytes()
            problems += checked(cli, cli_out)
            attempted += cli.ops_per_pass()
            failures += cli_ops.failed

        layers = {name: scale * _median(rec.durations(span, size)) for name, span, size, scale in SPAN_METRICS}
        layers["cwt.psi_evals"] = out["psi_evals"] if workload == "scalogram" else 0
        layers["io.container_bytes"] = container_bytes
        for name, kind in OP_METRICS:
            layers[name] = 1e3 * _kind_median(passes, kind)
        for kind in CLI_KINDS:
            layers[f"cli.{kind}_s"] = _kind_median([cli_ops], kind)
        layers["wavekit.import_s"] = _median(import_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures + problems:
        print(line, file=sys.stderr)
    metrics = layers if traced else e2e
    units = PER_LAYER_UNITS if traced else UNITS
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_e2e": e2e,
    }


def repeat(workloads, count: int, seconds: float) -> None:
    """Run each workload ``count`` times (seeds 1..count), one process at a
    time, and print each metric's median and quartiles as markdown."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"BLAS {blas['name']} {blas['version']} with {os.environ['OPENBLAS_NUM_THREADS']} thread, "
          f"{seconds:g} s per run\n")
    overhead = []
    for workload in workloads:
        results, traced = [], []
        for seed in range(1, count + TRACED_RUNS + 1):
            trace_flag = int(seed > count)
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace_flag)]
            t0 = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
            res = json.loads(lines[-1])
            res["wall"] = wall
            if trace_flag:
                res["traced_e2e"] = json.loads(lines[-2].split(" ", 1)[1])
                traced.append(res)
            else:
                results.append(res)
        print(f"### {workload}\n")
        print(f"runs {count}, wall per run {statistics.median([r['wall'] for r in results]):.1f} s, "
              f"attempted {statistics.median([r['attempted'] for r in results]):g}, "
              f"failed share {sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"all correct {all(r['correct'] for r in results + traced)}\n")
        print("| metric | median | q1 | q3 | (q3-q1)/median | runs, by seed |\n|---|---|---|---|---|---|")
        for name in UNITS:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            runs = " ".join(f"{v:.4g}" for v in values)
            print(f"| {name} | {q2:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / q2:.3f} | {runs} |")
        if traced:
            print("\nper-layer medians over the traced runs:\n")
            print("| metric | unit | median |\n|---|---|---|")
            for name, unit in PER_LAYER_UNITS.items():
                value = statistics.median(r["metrics"][name]["value"] for r in traced)
                if value:
                    print(f"| {name} | {unit} | {value:.5g} |")
            untraced = statistics.median(r["metrics"]["pass_s"]["value"] for r in results)
            with_spans = statistics.median(r["traced_e2e"]["pass_s"] for r in traced)
            overhead.append((workload, untraced, with_spans))
        print()
    if overhead:
        print("tracing overhead on pass_s:\n\n| workload | untraced | traced | change |\n|---|---|---|---|")
        for workload, a, b in overhead:
            print(f"| {workload} | {a:.4g} | {b:.4g} | {(b - a) / a:+.1%} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("pyramid", "scalogram", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds 1..N")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wavekit", "__init__.py")):
        print(f"error: no wavekit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.repeat:
        workloads = [args.workload] if args.workload else ["pyramid", "scalogram", "verify"]
        repeat(workloads, args.repeat, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = result.pop("_e2e")
    if args.trace:
        print("traced-end-to-end " + json.dumps(e2e))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
