"""Pinhole projection geometry: value types, intrinsics, extrinsics.

Conventions used throughout the package:

* The world-to-camera map is ``P_c = R^-1 (P_w - t)``, so ``t`` is the camera
  center in world coordinates and ``R`` columns are the camera axes expressed
  in the world frame.
* Rotations are stored as axis-angle 3-vectors (Rodrigues), valid for
  ``norm(w) < pi``.
* The intrinsic matrix is upper triangular with entries
  ``[[alpha, gamma, u0], [0, beta, v0], [0, 0, 1]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DepthNotPositive(ValueError):
    """Point has non-positive depth in the camera frame; cannot project."""


class InvalidParameters(ValueError):
    """Camera or warp parameters outside their domain: not finite, or a
    focal scale that is not positive."""


class NotARotation(ValueError):
    """Matrix is not a rotation within tolerance."""


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _frozen_array(obj, name: str, value, shape: tuple[int, ...]) -> None:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class WorldPoint:
    """3-D point in the world frame (calibration targets live on z = 0)."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self) -> None:
        if not _finite(self.x, self.y, self.z):
            raise ValueError("world point components must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class NormalizedPoint:
    """Point on the unit focal plane (intrinsics removed).

    Both undistorted and distorted coordinates live in this type; the radius
    is always derived from the current components.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("normalized point components must be finite")

    @property
    def radius(self) -> float:
        # np.hypot, as every array path computes the radius.
        return float(np.hypot(self.x, self.y))


@dataclass(frozen=True)
class PixelPoint:
    """Image-plane point in pixels.

    Deliberately not clamped to any sensor bounds: residual arithmetic needs
    out-of-frame values.
    """

    u: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("pixel components must be finite")


@dataclass(frozen=True)
class IntrinsicMatrix:
    """The five intrinsic parameters of the upper-triangular camera matrix."""

    alpha: float
    beta: float
    gamma: float
    u0: float
    v0: float

    def __post_init__(self) -> None:
        if not _finite(self.alpha, self.beta, self.gamma, self.u0, self.v0):
            raise InvalidParameters("intrinsic parameters must be finite")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParameters("focal scales alpha and beta must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.alpha, self.gamma, self.u0],
                [0.0, self.beta, self.v0],
                [0.0, 0.0, 1.0],
            ]
        )

    @property
    def inverse_matrix(self) -> np.ndarray:
        a, b, g, u0, v0 = self.alpha, self.beta, self.gamma, self.u0, self.v0
        return np.array(
            [
                [1.0 / a, -g / (a * b), (g * v0 - b * u0) / (a * b)],
                [0.0, 1.0 / b, -v0 / b],
                [0.0, 0.0, 1.0],
            ]
        )


def rotation_from_axis_angle(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: axis-angle 3-vector to rotation matrix."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("axis-angle vector must have shape (3,)")
    theta = float(np.linalg.norm(w))
    K = np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )
    if theta < 1e-8:
        # Second-order series keeps the result orthogonal to machine precision.
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def axis_angles_from_rotations(R: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Inverse Rodrigues map of each rotation of a ``(v, 3, 3)`` stack, to
    ``(v, 3)``, on the domain ``norm(w) < pi``.

    Raises NotARotation when some ``R^T R`` deviates from the identity beyond
    ``tol`` or some determinant is not +1.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1:] != (3, 3):
        raise ValueError("rotation matrices must have shape (v, 3, 3)")
    if np.any(np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)) > tol):
        raise NotARotation("R^T R deviates from the identity beyond tolerance")
    if np.any(np.linalg.det(R) < 0.0):
        raise NotARotation("determinant is negative (improper rotation)")

    # 2 s = vee(R - R^T) = 2 sin(theta) * axis, cos(theta) from the trace.
    s = 0.5 * np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1)
    c = 0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0)
    sin_norm = np.linalg.norm(s, axis=1)
    theta = np.arctan2(sin_norm, c)
    small, near_pi = theta < 1e-7, theta > math.pi - 1e-3
    # w = s * theta / sin(theta); below theta = 1e-7, w ~ s * (1 + theta^2 / 6).
    # The near-pi rows, replaced below, divide by 1 rather than by ~0.
    sin_or_one = np.where(small | near_pi, 1.0, sin_norm)
    w = s * np.where(small, 1.0 + theta * theta / 6.0, theta / sin_or_one)[:, None]
    if np.any(near_pi):
        # sin(theta) ~ 0: recover the axis from the symmetric part instead.
        # (R + R^T)/2 - c I = (1 - c) a a^T; its largest-diagonal column is
        # (1 - c) a_k a with a_k^2 >= 1/3, so normalizing it keeps the
        # rounding error linear (a sqrt of the diagonal would amplify it).
        Rn, cn = R[near_pi], c[near_pi]
        M = (Rn + Rn.transpose(0, 2, 1)) / 2.0 - cn[:, None, None] * np.eye(3)
        k = np.argmax(np.diagonal(M, axis1=1, axis2=2), axis=1)
        column = M[np.arange(len(M)), :, k]
        axis = column / np.linalg.norm(column, axis=1)[:, None]
        # The skew part is sin(theta) * a: it still carries the sign.
        flip = np.einsum("vi,vi->v", axis, s[near_pi]) < 0.0
        w[near_pi] = theta[near_pi, None] * np.where(flip[:, None], -axis, axis)
    return w


@dataclass(frozen=True)
class ViewExtrinsics:
    """Camera pose for one view: axis-angle rotation plus camera center.

    ``rotation`` maps camera-frame directions into the world frame and the
    stored ``t`` is the camera center, so ``P_c = rotation.T @ (P_w - t)``.
    """

    axis_angle: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        _frozen_array(self, "axis_angle", self.axis_angle, (3,))
        _frozen_array(self, "t", self.t, (3,))

    @cached_property
    def rotation(self) -> np.ndarray:
        R = rotation_from_axis_angle(self.axis_angle)
        R.setflags(write=False)
        return R

    @classmethod
    def from_rotation(cls, R: np.ndarray, t: np.ndarray) -> "ViewExtrinsics":
        w = axis_angles_from_rotations(np.asarray(R, dtype=float)[None])[0]
        return cls(w, np.asarray(t, dtype=float))

    @classmethod
    def from_world_to_camera(cls, R: np.ndarray, t: np.ndarray) -> "ViewExtrinsics":
        """Build from the ``P_c = R P_w + t`` form used by projection algebra."""
        R = np.asarray(R, dtype=float)
        t = np.asarray(t, dtype=float)
        return cls.from_rotation(R.T, -R.T @ t)

    def world_to_camera(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(R, t)`` such that ``P_c = R P_w + t``."""
        R = self.rotation
        return R.T.copy(), -R.T @ self.t


def to_pixel(n: NormalizedPoint, A: IntrinsicMatrix) -> PixelPoint:
    """Apply the intrinsic matrix: ``u = alpha x + gamma y + u0``, ``v = beta y + v0``."""
    return PixelPoint(
        A.alpha * n.x + A.gamma * n.y + A.u0,
        A.beta * n.y + A.v0,
    )


def to_normalized(p: PixelPoint, A: IntrinsicMatrix) -> NormalizedPoint:
    """Remove the intrinsics by the explicit upper-triangular inverse.

    Grouped about the principal point so (u0, v0) maps to exactly (0, 0).
    """
    a, b, g = A.alpha, A.beta, A.gamma
    du = p.u - A.u0
    dv = p.v - A.v0
    return NormalizedPoint(du / a - g * dv / (a * b), dv / b)


def to_pixel_array(xy: np.ndarray, A: IntrinsicMatrix) -> np.ndarray:
    """to_pixel for an ``(n, 2)`` array of normalized points, same arithmetic."""
    x, y = xy[:, 0], xy[:, 1]
    return np.column_stack([A.alpha * x + A.gamma * y + A.u0, A.beta * y + A.v0])


def to_normalized_array(uv: np.ndarray, A: IntrinsicMatrix) -> np.ndarray:
    """to_normalized for an ``(n, 2)`` array of pixels, same arithmetic."""
    a, b, g = A.alpha, A.beta, A.gamma
    du = uv[:, 0] - A.u0
    dv = uv[:, 1] - A.v0
    return np.column_stack([du / a - g * dv / (a * b), dv / b])
