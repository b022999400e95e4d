#!/usr/bin/env python3
"""Layer benchmark of the calibration pipeline.

On one seeded scene family (seed 3, a 12x12 target grid, model3 warp,
sigma = 0.3 px pixel noise; the camera and warp of the repository
benchmark's 100-view session) at 10, 30 and 100 views, times:

* one residual+Jacobian evaluation at the fitted parameters;
* the dense normal equations ``J^T J`` plus one damped solve, as one
  Levenberg-Marquardt step forms them;
* ``refine`` per LM iteration (its time over its iteration count);
* the linear stage: homographies, intrinsics, extrinsics and the
  distortion initialization;
* ``calibrate`` end to end;

and the process's peak resident memory (``ru_maxrss``) once that view
count is done. The peak never falls, so each figure covers every smaller
view count too.

Each time is the median of a fixed number of repeats. BLAS runs one thread
unless OPENBLAS_NUM_THREADS is set, as in the repository benchmark. The
JSON written also records the machine.

    PYTHONPATH=src python scripts/bench_calibrate.py [--output BENCH_calibrate.json]
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_undistort import machine_info  # noqa: E402
from radialcal.calibration import (  # noqa: E402
    _build_result,
    _linear_stage,
    _pack_params,
    _residuals_and_jacobian,
    calibrate,
    init_distortion,
    refine,
)
from radialcal.distortion import DistortionSpec, Model  # noqa: E402
from radialcal.geometry import IntrinsicMatrix  # noqa: E402
from radialcal.synth import SynthSpec, generate_scene  # noqa: E402

SEED = 3
VIEWS = (10, 30, 100)
REPEATS = 3
MODEL = Model.MODEL3
SCENE = dict(
    intrinsics=IntrinsicMatrix(alpha=277.0, beta=270.5, gamma=-0.57, u0=154.0, v0=119.8),
    distortion=DistortionSpec(MODEL, -0.25, -0.05),
    grid_nx=12,
    grid_ny=12,
    spacing=0.1,
    noise_sigma=0.3,
)


def timed(fn, repeats: int = REPEATS):
    """Median wall time of ``repeats`` calls, and the last call's result."""
    times = []
    for _ in range(repeats):
        # The last result can be a dense Jacobian: never hold two at once.
        result = None
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def linear_stage(corr):
    stage = _linear_stage(corr)
    spec0 = init_distortion(stage.corr, stage.intrinsics, stage.extrinsics, MODEL)
    return stage, _build_result(stage.corr, stage.intrinsics, spec0, stage.extrinsics)


def normal_equations_step(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    hess = jac.T @ jac
    mu = 1e-3 * float(hess.diagonal().max())
    return np.linalg.solve(hess + mu * np.eye(hess.shape[0]), -(jac.T @ res))


def bench_views(n_views: int) -> dict:
    corr, _ = generate_scene(SynthSpec(seed=SEED, n_views=n_views, **SCENE))
    linear_s, (stage, init) = timed(lambda: linear_stage(corr))
    refine_s, fit = timed(lambda: refine(stage.corr, init))
    calibrate_s, _ = timed(lambda: calibrate(corr, MODEL))
    theta = _pack_params(fit.intrinsics, fit.distortion, fit.extrinsics)
    eval_s, (res, jac) = timed(lambda: _residuals_and_jacobian(theta, stage.corr, MODEL))
    solve_s, _ = timed(lambda: normal_equations_step(jac, res))
    return {
        "views": n_views,
        "points": corr.n_points,
        "jacobian_shape": list(jac.shape),
        "jacobian_nonzero_frac": float(np.count_nonzero(jac) / jac.size),
        "lm_iterations": fit.n_iterations,
        "jacobian_eval_ms": 1e3 * eval_s,
        "normal_equations_solve_ms": 1e3 * solve_s,
        "refine_ms_per_iter": 1e3 * refine_s / fit.n_iterations,
        "linear_stage_ms": 1e3 * linear_s,
        "calibrate_s": calibrate_s,
        "rms_px": fit.rms_px,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="BENCH_calibrate.json")
    args = parser.parse_args()
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
        "statistic": "median",
        "calibration": [bench_views(n) for n in VIEWS],
        "machine": {**machine_info(), "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
