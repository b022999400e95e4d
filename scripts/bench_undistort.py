#!/usr/bin/env python3
"""Layer benchmark of point undistortion, the ground-line fix and the
point-CSV writer.

Times, per distortion model, scalar ``undistort`` (one call per point) and
``undistort_array`` (one call for all points) on the same seeded points;
``undistort_array`` on observed radii that reach past the fold of a folding
spec of each model; one ``localize`` fix, per model, over seeded noiseless
fixes; and ``write_points``/``read_points`` on an image-sized point file.
Sizes and seeds are fixed so that runs on different commits compare; the
JSON written also records the machine.

The cases are interleaved: after one warm-up pass, each of the repeats
times every case once, so a drift in the host's speed reaches all rows
alike. Each figure is reported as its median, minimum and interquartile
range over the repeats.

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

from radialcal.calibration import project_views
from radialcal.distortion import (
    DistortionSpec,
    Model,
    distort_array,
    undistort,
    undistort_array,
)
from radialcal.fileio import read_points, write_points
from radialcal.geometry import (
    IntrinsicMatrix,
    NormalizedPoint,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    rotation_blocks,
)
from radialcal.localize import LineMap, localize

SEED = 0
N_POINTS = 20_000
# Undistorted radii up to about the image corner of a 640x480 camera with a
# 520 px focal length, inside every spec's monotone domain.
R_MAX = 0.75
CSV_ROWS = 76_800  # a 320x240 grid
REPEATS = 21
# The coefficients of the repository benchmark's point workload, then model3
# with its default k2 = 0, where the radius equation is a quadratic.
SPECS = {
    "model1": DistortionSpec(Model.MODEL1, -0.2, 0.05),
    "model2": DistortionSpec(Model.MODEL2, -0.15),
    "model3": DistortionSpec(Model.MODEL3, -0.1, -0.05),
    "model3_k2_0": DistortionSpec(Model.MODEL3, -0.1),
}
# Observed radii up to FOLD_R_MAX, drawn from their own generator so that the
# rows above keep their inputs. Each spec folds inside that radius: rows above
# F(fold) have no root (they are flagged before any Newton step), and rows
# near it take more Newton steps.
FOLD_SEED = 1
FOLD_R_MAX = 3.0
FOLD_SPECS = {
    "model1": DistortionSpec(Model.MODEL1, -0.5, 0.0),
    "model2": DistortionSpec(Model.MODEL2, -0.5),
    "model3": DistortionSpec(Model.MODEL3, -0.6, -0.2),
}
# Noiseless ground-line fixes, from their own generator: N_FIXES per model
# of SPECS, seen by the repository benchmark's camera.
LOCALIZE_SEED = 2
N_FIXES = 200
LOCALIZE_MODELS = ("model1", "model2", "model3")
CAMERA = IntrinsicMatrix(520.0, 515.0, 0.4, 321.5, 239.0)


def summary(values) -> dict:
    """Median, minimum and interquartile range of one row's repeats."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "min": float(min(values)), "iqr": float(q3 - q1)}


def disk_points(r_max: float, rng) -> np.ndarray:
    r = r_max * np.sqrt(rng.uniform(size=N_POINTS))
    phi = rng.uniform(-math.pi, math.pi, N_POINTS)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def undistort_rows(rng) -> dict:
    """Each SPECS entry's observed points: seeded undistorted points, warped."""
    return {name: distort_array(spec, disk_points(R_MAX, rng)) for name, spec in SPECS.items()}


def fold_rows() -> dict:
    """Each FOLD_SPECS entry's observed points, up to FOLD_R_MAX."""
    rng = np.random.default_rng(FOLD_SEED)
    return {name: disk_points(FOLD_R_MAX, rng) for name in FOLD_SPECS}


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    """Rotation by angle about coordinate axis 0 (x) or 2 (z)."""
    w = np.zeros((1, 3))
    w[0, axis] = angle
    return rotation_blocks(w)[0][0].T


def localize_cases(rng, spec: DistortionSpec, count: int, yaw=None, tilt=None) -> list[tuple]:
    """Arguments of count noiseless localize fixes observed through spec.

    The assumed pose looks down from 0.8-1.5 above the floor, as
    ``Rz(yaw) Rx(pi - tilt)``; yaw and tilt are drawn when None. The true
    pose differs by a yaw in (-pi/2, pi/2) and a shift in the floor plane.
    The ground points and pixels are computed here and by project_views, not
    by the localizer.
    """
    cases = []
    while len(cases) < count:
        rot = _axis_rotation(2, rng.uniform(-math.pi, math.pi) if yaw is None else yaw)
        rot = rot @ _axis_rotation(0, math.pi - (rng.uniform(0.25, 0.8) if tilt is None else tilt))
        position = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)])
        assumed = ViewExtrinsics.from_rotation(rot, position)
        delta = rng.uniform(-math.pi / 2, math.pi / 2)
        dt = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
        true = ViewExtrinsics.from_rotation(_axis_rotation(2, -delta) @ assumed.rotation, assumed.t - dt)
        rays = np.column_stack([rng.uniform(-0.35, 0.35, (2, 2)), np.ones(2)]) @ true.rotation.T
        if np.any(rays[:, 2] > -1e-3):
            continue
        ground = true.t + (-true.t[2] / rays[:, 2])[:, None] * rays
        if math.hypot(*(ground[1, :2] - ground[0, :2])) < 0.2:
            continue
        ground[:, 2] = 0.0
        pose_row = np.concatenate([true.axis_angle, true.t])[None, :]
        pixels = project_views(CAMERA, spec, pose_row, ground, np.zeros(2, dtype=int), (0,)).pixels
        line = LineMap(WorldPoint(*ground[0]), WorldPoint(*ground[1]))
        cases.append((line, PixelPoint(*pixels[0]), PixelPoint(*pixels[1]), CAMERA, spec, assumed))
    return cases


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_cases(cases: dict) -> dict:
    """Seconds per call of each case: a warm-up pass, then REPEATS
    interleaved passes."""
    for fn in cases.values():
        fn()
    seconds = {key: [] for key in cases}
    for _ in range(REPEATS):
        for key, fn in cases.items():
            seconds[key].append(timed(fn))
    return {key: np.array(times) for key, times in seconds.items()}


def bench(rng, tmp: Path) -> dict:
    rows, folded = undistort_rows(rng), fold_rows()
    pts = np.column_stack([rng.uniform(0, 640, CSV_ROWS), rng.uniform(0, 480, CSV_ROWS)])
    csv = tmp / "points.csv"
    cases = {}
    for name, spec in SPECS.items():
        xy = rows[name]
        points = [NormalizedPoint(x, y) for x, y in xy.tolist()]
        cases["scalar", name] = lambda spec=spec, points=points: [undistort(spec, d) for d in points]
        cases["array", name] = lambda spec=spec, xy=xy: undistort_array(spec, xy)
    for name, spec in FOLD_SPECS.items():
        cases["fold", name] = lambda spec=spec, xy=folded[name]: undistort_array(spec, xy)
    fix_rng = np.random.default_rng(LOCALIZE_SEED)
    for name in LOCALIZE_MODELS:
        fixes = localize_cases(fix_rng, SPECS[name], N_FIXES)
        cases["localize", name] = lambda fixes=fixes: [localize(*args) for args in fixes]
    cases["csv", "write"] = lambda: write_points(csv, pts)
    cases["csv", "read"] = lambda: read_points(csv)
    seconds = run_cases(cases)

    us = {key: 1e6 * times / N_POINTS for key, times in seconds.items()}
    undistort_report = {
        name: {
            "scalar_us_per_point": summary(us["scalar", name]),
            "array_us_per_point": summary(us["array", name]),
            "speedup": float(np.median(seconds["scalar", name] / seconds["array", name])),
        }
        for name in SPECS
    }
    fold_report = {
        name: {
            "coefficients": list(spec.coefficients),
            "nan_rows": int(np.isnan(undistort_array(spec, folded[name])).any(axis=1).sum()),
            "array_us_per_point": summary(us["fold", name]),
        }
        for name, spec in FOLD_SPECS.items()
    }
    localize_report = {
        name: {"us_per_fix": summary(1e6 * seconds["localize", name] / N_FIXES)} for name in LOCALIZE_MODELS
    }
    size = csv.stat().st_size
    csv_report = {
        "rows": CSV_ROWS,
        "bytes": size,
        "write_points_MBps": summary(size / seconds["csv", "write"] / 1e6),
        "read_points_MBps": summary(size / seconds["csv", "read"] / 1e6),
    }
    return {
        "undistort": undistort_report,
        "past_the_fold": {"seed": FOLD_SEED, "r_max": FOLD_R_MAX, **fold_report},
        "localize": {"seed": LOCALIZE_SEED, "fixes": N_FIXES, **localize_report},
        "points_csv": csv_report,
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
    with tempfile.TemporaryDirectory() as tmp:
        results = bench(np.random.default_rng(SEED), Path(tmp))
    report = {
        "seed": SEED,
        "n_points": N_POINTS,
        "r_max": R_MAX,
        "repeats": REPEATS,
        "statistic": "median, min and interquartile range over the repeats",
        **results,
        "machine": machine_info(),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
