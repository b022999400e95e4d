"""Seeded synthetic calibration scenes: planar grids seen by posed cameras.

Stands in for real extracted feature data in tests and experiments. A scene
is fully determined by its spec (including the RNG seed), so generated
correspondences are bit-reproducible. The pixels come from the forward
model that calibration fits, ``calibration.project_views``, so a noiseless
scene has objective exactly 0 at its generating parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CorrespondenceSet, project_views
from .distortion import DistortionSpec
from .geometry import DepthNotPositive, IntrinsicMatrix, ViewExtrinsics, rotation_blocks


@dataclass(frozen=True)
class PoseRanges:
    """Sampling ranges for the per-view camera placement.

    ``distance`` is the depth of the plane center along the optical axis,
    ``tilt_deg`` the magnitude range of the two tilt angles (random signs),
    and ``offset`` the lateral displacement range.
    """

    distance: tuple[float, float] = (1.1, 1.5)
    tilt_deg: tuple[float, float] = (10.0, 30.0)
    offset: tuple[float, float] = (-0.1, 0.1)


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to synthesize one correspondence set."""

    seed: int
    intrinsics: IntrinsicMatrix
    distortion: DistortionSpec
    grid_nx: int = 8
    grid_ny: int = 8
    spacing: float = 0.15
    n_views: int = 3
    noise_sigma: float = 0.0
    pose: PoseRanges = field(default_factory=PoseRanges)

    def __post_init__(self) -> None:
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ValueError("grid must be at least 2x2")
        if self.spacing <= 0.0 or not math.isfinite(self.spacing):
            raise ValueError("spacing must be positive")
        if self.n_views < 1:
            raise ValueError("need at least one view")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError("noise sigma must be finite and nonnegative")


@dataclass(frozen=True)
class SceneTruth:
    """Generating parameters of a synthetic scene (the sidecar ground truth)."""

    intrinsics: IntrinsicMatrix
    distortion: DistortionSpec
    extrinsics: tuple[ViewExtrinsics, ...]
    noise_sigma: float
    seed: int


def _grid_points(spec: SynthSpec) -> np.ndarray:
    xs = (np.arange(spec.grid_nx) - (spec.grid_nx - 1) / 2.0) * spec.spacing
    ys = (np.arange(spec.grid_ny) - (spec.grid_ny - 1) / 2.0) * spec.spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _sample_pose(spec: SynthSpec, rng: np.random.Generator) -> ViewExtrinsics:
    lo, hi = spec.pose.tilt_deg
    tilt_x = math.radians(rng.uniform(lo, hi)) * rng.choice([-1.0, 1.0])
    tilt_y = math.radians(rng.uniform(lo, hi)) * rng.choice([-1.0, 1.0])
    roll = rng.uniform(-math.pi / 8.0, math.pi / 8.0)
    tx = rng.uniform(*spec.pose.offset)
    ty = rng.uniform(*spec.pose.offset)
    tz = rng.uniform(*spec.pose.distance)
    # The camera sees the world through P_c = Rx Ry Rz P_w + (tx, ty, tz);
    # the stored pose is that map's inverse.
    (rx_t, ry_t, rz_t), _ = rotation_blocks(np.diag([tilt_x, tilt_y, roll]))
    rot = rz_t @ ry_t @ rx_t
    return ViewExtrinsics.from_rotation(rot, -rot @ np.array([tx, ty, tz]))


def generate_scene(spec: SynthSpec) -> tuple[CorrespondenceSet, SceneTruth]:
    """Draw each view's pose (then its noise), project all views in one
    ``project_views`` call, and add the noise.

    Returns the observed correspondences together with the generating
    truth. The correspondences are the projected stack as it comes: view k
    is rows ``k m:(k + 1) m``, for the grid's ``m`` points.
    Raises ValueError if a sampled pose places target points at non-positive
    depth (choose distance ranges larger than the plane's tilted extent).
    """
    rng = np.random.default_rng(spec.seed)
    world = _grid_points(spec)
    ids = range(spec.n_views)
    extrinsics, noise = [], []
    for _ in ids:
        extrinsics.append(_sample_pose(spec, rng))
        if spec.noise_sigma > 0.0:
            noise.append(rng.normal(0.0, spec.noise_sigma, world.shape))
    poses = np.array([[*E.axis_angle, *E.t] for E in extrinsics])
    m = len(world)
    world3 = np.tile(np.column_stack([world, np.zeros(m)]), (spec.n_views, 1))
    try:
        s = project_views(spec.intrinsics, spec.distortion, poses, world3, np.repeat(ids, m), ids)
    except DepthNotPositive as exc:
        raise ValueError(
            f"sampled poses put target points behind the camera ({exc}); "
            "widen the distance range"
        ) from exc
    pixels = s.pixels + np.concatenate(noise) if noise else s.pixels
    truth = SceneTruth(
        intrinsics=spec.intrinsics,
        distortion=spec.distortion,
        extrinsics=tuple(extrinsics),
        noise_sigma=spec.noise_sigma,
        seed=spec.seed,
    )
    offsets = np.arange(spec.n_views + 1) * m
    return CorrespondenceSet(tuple(ids), world3[:, :2], pixels, offsets), truth
