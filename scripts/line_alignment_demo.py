#!/usr/bin/env python3
"""Ground-line localization accuracy versus observation noise.

Calibrates a synthetic camera, then repeatedly: place the robot at a random
true pose, offset its believed pose by a random planar deviation (yaw plus
in-plane translation), observe a mapped floor line through the distorted
camera, and recover the deviation from the single view. Prints error
quantiles per noise level; at zero noise the recovery is exact to solver
precision.
"""

import argparse
import math

import numpy as np

from radialcal.calibration import calibrate, project
from radialcal.distortion import Model, distort_array
from radialcal.geometry import (
    IntrinsicMatrix,
    NormalizedPoint,
    PixelPoint,
    ViewExtrinsics,
    rotation_blocks,
    to_normalized,
    to_pixel_array,
)
from radialcal.localize import LineMap, intersect_ground, localize
from radialcal.synth import SynthSpec, generate_scene
from radialcal.distortion import DistortionSpec


def rotation(w) -> np.ndarray:
    """Rotation matrix of one axis-angle."""
    return rotation_blocks(np.array([w], dtype=float))[0][0].T


def downward_pose(rng):
    yaw = rng.uniform(-math.pi, math.pi)
    tilt = rng.uniform(0.3, 0.8)
    R = rotation([0.0, 0.0, yaw]) @ rotation([math.pi - tilt, 0.0, 0.0])
    t = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.4)])
    return ViewExtrinsics.from_rotation(R, t)


def run_trials(A, spec, rng, n_trials, sigma):
    angle_err = []
    trans_err = []
    trials = 0
    while trials < n_trials:
        pose1 = downward_pose(rng)
        na = NormalizedPoint(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        nb = NormalizedPoint(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        try:
            pa = intersect_ground(na, pose1)
            pb = intersect_ground(nb, pose1)
        except ValueError:
            continue
        if math.hypot(pb.x - pa.x, pb.y - pa.y) < 0.2:
            continue

        delta_theta = rng.uniform(-math.pi / 2, math.pi / 2)
        dt = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0])
        pose2 = ViewExtrinsics.from_rotation(
            rotation([0.0, 0.0, delta_theta]) @ pose1.rotation, pose1.t + dt
        )

        observed = []
        for P in (pa, pb):
            n = to_normalized(project(P, pose1, A), A)
            ((u, v),) = to_pixel_array(distort_array(spec, np.array([[n.x, n.y]])), A).tolist()
            observed.append(
                PixelPoint(u + rng.normal(0.0, sigma), v + rng.normal(0.0, sigma)) if sigma > 0 else PixelPoint(u, v)
            )

        fix = localize(LineMap(pa, pb), observed[0], observed[1], A, spec, pose2)
        angle_err.append(abs(fix.delta_theta - delta_theta))
        trans_err.append(float(np.linalg.norm(fix.t1 - pose1.t)))
        trials += 1
    return np.asarray(angle_err), np.asarray(trans_err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--trials", type=int, default=300)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    true_A = IntrinsicMatrix(alpha=800.0, beta=800.0, gamma=0.0, u0=320.0, v0=240.0)
    true_spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)

    corr, _ = generate_scene(
        SynthSpec(seed=args.seed, intrinsics=true_A, distortion=true_spec, noise_sigma=0.2)
    )
    result = calibrate(corr, Model.MODEL3)
    print(
        f"calibrated: J = {result.j_final:.4g}, rms = {result.rms_px:.4g} px, "
        f"k = ({result.distortion.k1:.5f}, {result.distortion.k2:.5f})"
    )

    print(f"\n{'sigma_px':>9} {'p50_angle':>11} {'p95_angle':>11} {'p50_trans':>11} {'p95_trans':>11}")
    for sigma in (0.0, 0.25, 0.5, 1.0):
        a, t = run_trials(result.intrinsics, result.distortion, rng, args.trials, sigma)
        print(
            f"{sigma:>9.2f} {np.quantile(a, 0.5):>11.3e} {np.quantile(a, 0.95):>11.3e} "
            f"{np.quantile(t, 0.5):>11.3e} {np.quantile(t, 0.95):>11.3e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
