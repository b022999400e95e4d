#!/usr/bin/env python3
"""Layer benchmark of the calibration pipeline.

On one seeded scene family (seed 3, a 12x12 target grid, model3 warp,
sigma = 0.3 px pixel noise; the camera and warp of the repository
benchmark's 100-view session) at 10, 30 and 100 views, times:

* one evaluation of the residuals and their Jacobian at the fitted
  parameters: each point's rows ``[G | J_c | r]`` and each view's pose map;
* the normal equations from one Gram product per view plus one damped
  Schur-complement step, as one Levenberg-Marquardt iteration forms and
  solves them;
* ``refine`` per LM iteration (its time over its iteration count);
* the linear stage: homographies, intrinsics, extrinsics and the
  distortion initialization;
* ``calibrate`` end to end.

The view counts are interleaved: each of the repeats times every stage at
every view count once, so a drift in the host's speed reaches all rows
alike. Each time is reported as its median, minimum and interquartile
range over the repeats. ``peak_rss_mb`` is the peak resident memory
(``ru_maxrss``) of a fresh process that builds the scene and runs
``calibrate`` once at that view count. BLAS runs one thread unless
OPENBLAS_NUM_THREADS is set, as in the repository benchmark. The JSON
written also records the machine.

    PYTHONPATH=src python scripts/bench_calibrate.py [--output BENCH_calibrate.json]
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_undistort import machine_info, summary  # noqa: E402
from radialcal.calibration import (  # noqa: E402
    _normal_equations,
    _pack_params,
    _residuals_and_blocks,
    _schur_step,
    _Start,
    calibrate,
    init_distortion,
    linear_stage,
    refine,
)
from radialcal.distortion import DistortionSpec, Model  # noqa: E402
from radialcal.geometry import IntrinsicMatrix  # noqa: E402
from radialcal.synth import SynthSpec, generate_scene  # noqa: E402

SEED = 3
VIEWS = (10, 30, 100)
REPEATS = 21
MODEL = Model.MODEL3
SCENE = dict(
    intrinsics=IntrinsicMatrix(alpha=277.0, beta=270.5, gamma=-0.57, u0=154.0, v0=119.8),
    distortion=DistortionSpec(MODEL, -0.25, -0.05),
    grid_nx=12,
    grid_ny=12,
    spacing=0.1,
    noise_sigma=0.3,
)


def scene(n_views: int):
    return generate_scene(SynthSpec(seed=SEED, n_views=n_views, **SCENE))[0]


def linear_start(corr):
    stage = linear_stage(corr)
    spec0 = init_distortion(stage.corr, stage.intrinsics, stage.poses, MODEL)
    return stage, _Start(stage.intrinsics, spec0, stage.poses)


def normal_equations_step(blocks, offsets) -> np.ndarray:
    ne = _normal_equations(*blocks, offsets)
    return _schur_step(ne, 1e-3 * float(ne.u.diagonal().max()))


def peak_rss_mb(n_views: int) -> float:
    """Run in a fresh process: build the scene, calibrate once, report the peak."""
    calibrate(scene(n_views), MODEL)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Case:
    """One view count: its scene, its fit, and the stages timed on them."""

    def __init__(self, n_views: int):
        self.n_views = n_views
        self.corr = corr = scene(n_views)
        stage, init = linear_start(corr)
        self.fit = fit = refine(stage.corr, init)
        theta = _pack_params(fit.intrinsics, fit.distortion, fit.extrinsics)
        blocks = _residuals_and_blocks(theta, stage.corr, MODEL)
        self.n_params = theta.size
        self.stages = {
            "jacobian_eval_ms": (1e3, lambda: _residuals_and_blocks(theta, stage.corr, MODEL)),
            "normal_equations_step_ms": (1e3, lambda: normal_equations_step(blocks, stage.corr.offsets)),
            "refine_ms_per_iter": (1e3 / fit.n_iterations, lambda: refine(stage.corr, init)),
            "linear_stage_ms": (1e3, lambda: linear_start(corr)),
            "calibrate_s": (1.0, lambda: calibrate(corr, MODEL)),
        }
        self.times = {name: [] for name in self.stages}

    def run_once(self) -> None:
        for name, (scale, fn) in self.stages.items():
            start = time.perf_counter()
            fn()
            self.times[name].append(scale * (time.perf_counter() - start))

    def report(self, rss_mb: float) -> dict:
        row = {
            "views": self.n_views,
            "points": self.corr.n_points,
            "parameters": self.n_params,
            "lm_iterations": self.fit.n_iterations,
        }
        for name, times in self.times.items():
            row[name] = summary(times)
        row["rms_px"] = self.fit.rms_px
        row["peak_rss_mb"] = rss_mb
        return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="BENCH_calibrate.json")
    args = parser.parse_args()
    rss = {}
    for n_views in VIEWS:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            rss[n_views] = pool.submit(peak_rss_mb, n_views).result()
    cases = [Case(n) for n in VIEWS]
    for _ in range(REPEATS):
        for case in cases:
            case.run_once()
    report = {
        "seed": SEED,
        "scene": {
            "grid": [SCENE["grid_nx"], SCENE["grid_ny"]],
            "spacing": SCENE["spacing"],
            "model": MODEL.value,
            "coefficients": list(SCENE["distortion"].coefficients),
            "noise_sigma_px": SCENE["noise_sigma"],
        },
        "repeats": REPEATS,
        "statistic": "median, min and interquartile range over the repeats",
        "calibration": [case.report(rss[case.n_views]) for case in cases],
        "machine": {**machine_info(), "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
