#!/usr/bin/env python3
"""Benchmark for radialcal: calibration sessions, point warping, localization.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from its
``src/``. ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the same operations once untraced and once with every public layer function
wrapped, and reports per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a fuller report (workload-specific timings, machine, seed).
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
# One BLAS thread. With two, OpenBLAS spins its threads on the many small
# matrices of a 5-view calibration, which made the median compare time swing
# by 30 % between 5-second windows on a shared 2-core machine; with one it
# swings by 7 %. Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
LINEAR_STAGE = (
    "calibration.estimate_homography",
    "calibration.intrinsics_from_homographies",
    "calibration.extrinsics_from_homography",
    "calibration.init_distortion",
)
PER_CALL_US = (
    "cubic.undistort_component",
    "cubic.real_roots",
    "distortion.invert_radius_newton",
    "geometry.to_normalized",
    "distortion.distort_normalized",
    "geometry.to_pixel",
    "localize.intersect_ground",
)


def import_library():
    """Import radialcal from this checkout's src/, and nothing else."""
    if not (SRC / "radialcal" / "__init__.py").is_file():
        sys.exit(f"error: no radialcal sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import radialcal

    if Path(radialcal.__file__).resolve().parent != SRC / "radialcal":
        sys.exit(f"error: imported radialcal from {radialcal.__file__}, not {SRC}")
    import workloads

    return workloads


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, seconds: float, tally, tracer=None, count: int | None = None, whole_cycles: bool = False):
    """Run units until ``seconds`` have passed, or exactly ``count`` units.

    A timed run always completes the workload's first cycle of units (every
    kind of operation once); with ``whole_cycles`` it stops only at the end
    of a cycle.
    """
    units = []
    cycle = workload.cycle
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        n = len(units)
        if count is not None:
            return n < count
        if n < cycle or (whole_cycles and n % cycle):
            return True
        return time.perf_counter() < deadline

    while more():
        units.append(workload.run_unit(len(units), tally, tracer))
    return units


def run_untraced(wl, workload, seed: int, seconds: float, work: Path, import_s: float):
    setup_times = []
    for _ in range(SETUP_REPS):
        target = wl.fresh_dir(work / "setup")
        t0 = time.perf_counter()
        workload.setup(target, seed)
        setup_times.append(time.perf_counter() - t0)
    tally = wl.Tally()
    units = measure(workload, seconds, tally)
    metrics, report = workload.end_to_end(units)
    metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    report["setup_s_reps"] = {"value": setup_times, "unit": "s", "import_s": import_s}
    return tally, metrics, report


def run_traced(wl, workload, seed: int, seconds: float, work: Path, spans_path: Path):
    import numpy as np
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(wl.fresh_dir(work / "setup"), seed)
    finally:
        tracer.uninstall()
    setup_spans = np.arange(len(tracer))
    tally = wl.Tally()
    base = measure(workload, seconds / 4.0, tally, whole_cycles=True)
    tracer.install()
    try:
        traced = measure(workload, 0.0, tally, tracer, count=len(base))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    spans_path.parent.mkdir(exist_ok=True)
    spans.write(spans_path)

    n = len(traced)
    ranges = {}
    for unit in traced:
        for kind, rs in unit.ranges.items():
            ranges.setdefault(kind, []).extend(rs)
    all_ranges = [r for rs in ranges.values() for r in rs]
    everything = spans.select(all_ranges)
    layers = spans.layer_totals(everything)
    m = {}
    for layer, (self_s, calls) in layers.items():
        m[f"{layer}.self_ms"] = (1e3 * self_s / n, "ms")
        if layer != "cli":
            m[f"{layer}.calls"] = (calls / n, "count")

    def per_call(qualname, rs, scale):
        total, calls = spans.function_totals(qualname, rs)
        return scale * total / calls if calls else 0.0

    def rate(qualname, n_bytes):
        total, _ = spans.function_totals(qualname, everything)
        return n_bytes / 1e6 / total if total > 0 else 0.0

    iterations = [(i, k) for i, k in tracer.refine_iterations if any(a <= i < b for a, b in all_ranges)]
    refine_s = sum(float(spans.duration[i]) for i, _ in iterations)
    total_iter = sum(k for _, k in iterations)
    m["calibration.refine_ms_per_iter"] = (1e3 * refine_s / total_iter if total_iter else 0.0, "ms")
    m["calibration.lm_iterations"] = (total_iter / len(iterations) if iterations else 0.0, "count")
    m["calibration.jacobian_eval_ms"] = (
        1e3 * workload.jacobian_eval_s() if hasattr(workload, "jacobian_eval_s") else 0.0, "ms"
    )
    m["calibration.linear_stage_ms"] = (
        1e3 * sum(spans.function_totals(f, everything)[0] for f in LINEAR_STAGE) / n, "ms"
    )
    for model in ("model1", "model2", "model3"):
        m[f"distortion.undistort_us_m{model[-1]}"] = (
            per_call("distortion.undistort", spans.select(ranges.get(f"inverse-{model}")), 1e6), "us"
        )
    for qualname in PER_CALL_US:
        m[f"{qualname}_us"] = (per_call(qualname, everything, 1e6), "us")
    moved = {}
    for unit in traced:
        for key, value in unit.bytes.items():
            moved[key] = moved.get(key, 0) + value
    m["fileio.read_points_MBps"] = (rate("fileio.read_points", moved.get("read_points", 0)), "MB/s")
    m["fileio.write_points_MBps"] = (rate("fileio.write_points", moved.get("write_points", 0)), "MB/s")
    m["fileio.read_correspondences_MBps"] = (
        rate("fileio.read_correspondences", moved.get("correspondences", 0)), "MB/s"
    )
    m["synth.generate_scene_ms"] = (per_call("synth.generate_scene", setup_spans, 1e3), "ms")
    localize_calls = spans.function_totals("localize.localize", everything)[1]
    m["localize.self_us"] = (1e6 * layers["localize"][0] / localize_calls if localize_calls else 0.0, "us")

    def wall(units):
        return sum(w for u in units for ws in u.walls.values() for w in ws)

    m["trace.overhead_frac"] = (wall(traced) / wall(base) - 1.0, "ratio")
    report = {"units_traced": n, "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, m, report


def main(argv: list[str] | None = None) -> int:
    wl = import_library()
    import_s = time.perf_counter() - T_START
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload](wl.Sizes())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            tally, metrics, report = run_traced(wl, workload, args.seed, args.seconds, work, spans_path)
        else:
            tally, metrics, report = run_untraced(wl, workload, args.seed, args.seconds, work, import_s)
    except wl.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    report.update(
        workload=args.workload,
        why=next(w["why"] for w in declared["workloads"] if w["name"] == args.workload),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failed_frac=tally.failed / tally.attempted,
        failures=tally.messages,
        machine=machine_info(),
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
