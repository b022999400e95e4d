"""Non-iterative pose correction from one observed ground line.

A robot that believes it is at an assumed pose sees a mapped line segment on
the floor (z = 0). Undistorting the observed endpoints and intersecting their
viewing rays with the ground under the assumed pose yields where the map
endpoints would have to be if the assumption were right. The in-plane
rotation between the mapped segment and the recovered segment is the yaw
deviation, and the true camera position follows in closed form:

    t_true = P_A_map - dR(-yaw_deviation) @ (P_A_recovered - t_assumed)

Everything here is exact for planar deviations (yaw about the world z axis
plus in-plane translation) and noiseless observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionSpec, undistort
from .geometry import (
    IntrinsicMatrix,
    NormalizedPoint,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    to_normalized,
)


class RayParallelToGround(ValueError):
    """Viewing ray does not intersect the ground plane."""


class PointBehindCamera(ValueError):
    """Ground intersection lies at non-positive depth."""


class DegenerateLine(ValueError):
    """Segment endpoints are too close to define a direction."""


class EndpointsCoincide(ValueError):
    """Undistorted observations collapse to a single point."""


_MIN_SEGMENT = 1e-9


@dataclass(frozen=True)
class LineMap:
    """Known world endpoints of the observed ground line (z = 0)."""

    a: WorldPoint
    b: WorldPoint

    def __post_init__(self) -> None:
        if math.hypot(self.b.x - self.a.x, self.b.y - self.a.y) <= _MIN_SEGMENT:
            raise DegenerateLine("mapped endpoints must be distinct")


# Compared and hashed by identity: it holds arrays.
@dataclass(frozen=True, eq=False)
class LocalizationFix:
    """Recovered planar deviation plus diagnostics.

    ``length_discrepancy`` is the relative difference between the mapped and
    recovered segment lengths; it is zero for noiseless planar deviations and
    grows with observation noise, so it doubles as a quality indicator.
    ``translation_consistency`` is the distance between the translation
    recovered from endpoint A (the reported one) and from endpoint B.
    ``t1`` is stored as a read-only ``(3,)`` array.
    """

    delta_theta: float
    t1: np.ndarray
    recovered_a: WorldPoint
    recovered_b: WorldPoint
    length_discrepancy: float
    translation_consistency: float

    def __post_init__(self) -> None:
        # No finiteness check, unlike geometry's frozen arrays: t1 comes
        # from finite points and poses, and np.isfinite with np.all would
        # add about 7 us to a fix of 30-50 us.
        t1 = np.array(self.t1, dtype=float)
        if t1.shape != (3,):
            raise ValueError(f"t1 must have shape (3,), got {t1.shape}")
        t1.setflags(write=False)
        object.__setattr__(self, "t1", t1)


def _wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def intersect_ground(n: NormalizedPoint, pose: ViewExtrinsics) -> WorldPoint:
    """Intersect the viewing ray of a normalized point with the z = 0 plane.

    The ray is ``P_w = t + s * R @ (x, y, 1)`` with s equal to the camera
    depth, so the intersection must have s > 0 to be visible. Written by
    components in floats: numpy on 3-vectors costs more than the arithmetic.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = pose.rotation.tolist()
    tx, ty, tz = pose.t.tolist()
    x, y = n.x, n.y
    dz = r20 * x + r21 * y + r22
    if abs(dz) < 1e-12:
        raise RayParallelToGround(
            "viewing ray is parallel to the ground plane"
        )
    s = -tz / dz
    if s <= 0.0:
        raise PointBehindCamera(
            f"ground intersection has camera depth {s}; point is not visible"
        )
    return WorldPoint(tx + s * (r00 * x + r01 * y + r02), ty + s * (r10 * x + r11 * y + r12), 0.0)


def recover_delta_rotation(
    line: LineMap, recovered_a: WorldPoint, recovered_b: WorldPoint
) -> float:
    """Signed planar angle from the mapped segment to the recovered segment.

    Satisfies ``recovered_b - recovered_a = Rz(delta) @ (map_b - map_a)`` in
    direction; wrapped to (-pi, pi].
    """
    v1 = (line.b.x - line.a.x, line.b.y - line.a.y)
    v2 = (recovered_b.x - recovered_a.x, recovered_b.y - recovered_a.y)
    if math.hypot(*v1) <= _MIN_SEGMENT or math.hypot(*v2) <= _MIN_SEGMENT:
        raise DegenerateLine("segments must have positive length")
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    return _wrap_angle(math.atan2(cross, dot))


def _camera_center(
    mapped: WorldPoint,
    recovered: WorldPoint,
    c: float,
    s: float,
    t: list[float],
) -> tuple[float, float, float]:
    """``mapped - Rz(delta)^T (recovered - t)`` by components, with
    ``c, s = cos(delta), sin(delta)``."""
    dx, dy = recovered.x - t[0], recovered.y - t[1]
    return (
        mapped.x - (c * dx + s * dy),
        mapped.y - (c * dy - s * dx),
        mapped.z - (recovered.z - t[2]),
    )


def localize(
    line: LineMap,
    observed_a: PixelPoint,
    observed_b: PixelPoint,
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    assumed_pose: ViewExtrinsics,
) -> LocalizationFix:
    """Full fix from two observed (distorted) endpoint pixels.

    ``observed_a`` must be the image of ``line.a`` and ``observed_b`` that
    of ``line.b``. Swapping them recovers the same two ground points, so
    the segment lengths, and with them ``length_discrepancy``, cannot tell
    the orders apart; a swapped pair reports a yaw deviation off by pi.
    """
    n_a = undistort(spec, to_normalized(observed_a, A))
    n_b = undistort(spec, to_normalized(observed_b, A))
    if math.hypot(n_b.x - n_a.x, n_b.y - n_a.y) < 1e-12:
        raise EndpointsCoincide("undistorted observations collapse to one point")

    rec_a = intersect_ground(n_a, assumed_pose)
    rec_b = intersect_ground(n_b, assumed_pose)
    delta = recover_delta_rotation(line, rec_a, rec_b)
    # The camera center recovered from each endpoint; A's is the reported one.
    c, s, t = math.cos(delta), math.sin(delta), assumed_pose.t.tolist()
    t1 = _camera_center(line.a, rec_a, c, s, t)
    t1_from_b = _camera_center(line.b, rec_b, c, s, t)

    len_map = math.hypot(line.b.x - line.a.x, line.b.y - line.a.y)
    len_rec = math.hypot(rec_b.x - rec_a.x, rec_b.y - rec_a.y)
    return LocalizationFix(
        delta_theta=delta,
        t1=t1,
        recovered_a=rec_a,
        recovered_b=rec_b,
        length_discrepancy=abs(len_rec - len_map) / len_map,
        translation_consistency=math.dist(t1, t1_from_b),
    )
