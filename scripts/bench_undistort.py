#!/usr/bin/env python3
"""Layer benchmark of point undistortion and the point-CSV writer.

Times, per distortion model, scalar ``undistort`` (one call per point) and
``undistort_array`` (one call for all points) on the same seeded points;
``undistort_array`` on observed radii that reach past the fold of a folding
spec of each model; and ``write_points``/``read_points`` on an image-sized
point file. Sizes and seeds are fixed so that runs on different commits
compare; the JSON written also records the machine.

    PYTHONPATH=src python scripts/bench_undistort.py [--output BENCH_undistort.json]
"""

import argparse
import json
import math
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from radialcal.distortion import (
    DistortionSpec,
    Model,
    distort_normalized,
    undistort,
    undistort_array,
)
from radialcal.fileio import read_points, write_points
from radialcal.geometry import NormalizedPoint

SEED = 0
N_POINTS = 20_000
# Undistorted radii up to about the image corner of a 640x480 camera with a
# 520 px focal length, inside every spec's monotone domain.
R_MAX = 0.75
CSV_ROWS = 76_800  # a 320x240 grid
REPEATS = 5
# The coefficients of the repository benchmark's point workload, then model3
# with its default k2 = 0, where the radius equation is a quadratic.
SPECS = {
    "model1": DistortionSpec(Model.MODEL1, -0.2, 0.05),
    "model2": DistortionSpec(Model.MODEL2, -0.15),
    "model3": DistortionSpec(Model.MODEL3, -0.1, -0.05),
    "model3_k2_0": DistortionSpec(Model.MODEL3, -0.1),
}
# Observed radii up to FOLD_R_MAX, drawn from their own generator so that the
# rows above keep their inputs. Each spec folds inside that radius: rows past
# the fold have no root, and rows near it need damped Newton steps (model1)
# or the general cubic solve (model2, model3).
FOLD_SEED = 1
FOLD_R_MAX = 3.0
FOLD_SPECS = {
    "model1": DistortionSpec(Model.MODEL1, -0.5, 0.0),
    "model2": DistortionSpec(Model.MODEL2, -0.5),
    "model3": DistortionSpec(Model.MODEL3, -0.6, -0.2),
}


def median_seconds(fn) -> float:
    fn()  # warm-up: caches and lazy imports
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def distorted_points(spec: DistortionSpec, rng) -> np.ndarray:
    r = R_MAX * np.sqrt(rng.uniform(size=N_POINTS))
    phi = rng.uniform(-math.pi, math.pi, N_POINTS)
    out = [
        distort_normalized(spec, NormalizedPoint(x, y))
        for x, y in zip((r * np.cos(phi)).tolist(), (r * np.sin(phi)).tolist())
    ]
    return np.array([(n.x, n.y) for n in out])


def bench_undistort(rng) -> dict:
    results = {}
    for name, spec in SPECS.items():
        xy = distorted_points(spec, rng)
        points = [NormalizedPoint(x, y) for x, y in xy.tolist()]
        scalar = median_seconds(lambda: [undistort(spec, d) for d in points])
        array = median_seconds(lambda: undistort_array(spec, xy))
        results[name] = {
            "scalar_us_per_point": 1e6 * scalar / N_POINTS,
            "array_us_per_point": 1e6 * array / N_POINTS,
            "speedup": scalar / array,
        }
    return results


def bench_past_the_fold(rng) -> dict:
    results = {}
    for name, spec in FOLD_SPECS.items():
        r = FOLD_R_MAX * np.sqrt(rng.uniform(size=N_POINTS))
        phi = rng.uniform(-math.pi, math.pi, N_POINTS)
        xy = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        array = median_seconds(lambda: undistort_array(spec, xy))
        results[name] = {
            "coefficients": list(spec.coefficients),
            "nan_rows": int(np.isnan(undistort_array(spec, xy)).any(axis=1).sum()),
            "array_us_per_point": 1e6 * array / N_POINTS,
        }
    return results


def bench_csv(rng) -> dict:
    pts = np.column_stack([rng.uniform(0, 640, CSV_ROWS), rng.uniform(0, 480, CSV_ROWS)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        write = median_seconds(lambda: write_points(path, pts))
        read = median_seconds(lambda: read_points(path))
        size = path.stat().st_size
    return {
        "rows": CSV_ROWS,
        "bytes": size,
        "write_points_MBps": size / write / 1e6,
        "read_points_MBps": size / read / 1e6,
    }


def machine_info() -> dict:
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="BENCH_undistort.json")
    args = parser.parse_args()
    rng = np.random.default_rng(SEED)
    report = {
        "seed": SEED,
        "n_points": N_POINTS,
        "r_max": R_MAX,
        "repeats": REPEATS,
        "statistic": "median",
        "undistort": bench_undistort(rng),
        "past_the_fold": {
            "seed": FOLD_SEED,
            "r_max": FOLD_R_MAX,
            **bench_past_the_fold(np.random.default_rng(FOLD_SEED)),
        },
        "points_csv": bench_csv(rng),
        "machine": machine_info(),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
