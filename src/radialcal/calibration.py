"""Planar-target calibration pipeline and the three-model comparison harness.

Stages follow the classic plane-based recipe: per-view homography by
normalized DLT, intrinsics from the absolute conic constraints, per-view
extrinsics from the decomposed homography, a linear least-squares guess for
the distortion coefficients, and finally joint Levenberg-Marquardt refinement
of the squared reprojection error

    J = sum_i sum_j || m_ij - mhat(A, k, R_i, t_i, M_j) ||^2

where the prediction mhat is the forward model: pinhole projection, the
radial warp on the unit focal plane, the intrinsics. ``project_views`` is the
package's one code for it, over all views in one array pass: every stage
after the linear one, ``project`` and ``synth.generate_scene`` call it. Each
view's pose enters through two 3x3 matrices built once per view: ``R^T`` and
the right Jacobian ``J_r`` of SO(3).

The Jacobian is block-sparse: each point depends on the shared parameters
(intrinsics and coefficients) and on its own view's six pose parameters
only, and those six enter through one 6x6 map per view, ``M_k =
blockdiag(J_r, -R^T)``. ``_residuals_and_blocks`` returns each point's rows
``[G | J_c | r]`` and each view's ``M_k``; its pose block ``G M_k`` is never
formed. The normal equations come from one Gram product ``Q_k = A_k^T A_k``
of each view's rows A_k, with ``M_k`` applied to it once per view, and each
damped step is solved by the Schur complement on the shared block, so one
LM iteration costs time and memory linear in the number of views. One
``refine`` allocates those rows once and every evaluation writes into them.

A session, ``CorrespondenceSet``, is held once, as the stacked rows of all
its views and the offsets of each view's rows. The linear stage,
``linear_stage``, also runs over all views at once: the views are grouped
by point count, each group's DLT designs are solved as one stack, and the
conic rows, the Procrustes rotations and their axis-angles are batched;
the poses reach the LM as one ``(v, 6)`` array. A view without a
homography is dropped, and the stage returns each dropped view's id with
the reason."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .distortion import (
    DistortionSpec,
    Model,
    coefficient_basis,
    n_coefficients,
    warp_factor,
    warp_slope,
)
from .geometry import (
    DepthNotPositive,
    IntrinsicMatrix,
    InvalidParameters,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    axis_angles_from_rotations,
    radius_array,
    rotation_blocks,
    to_pixel_array,
)


class DegenerateConfiguration(ValueError):
    """Point configuration cannot support the requested estimate."""


class SingularConfiguration(ValueError):
    """Stacked constraints are rank-deficient or the conic is not definite."""


class BehindCamera(ValueError):
    """No sign choice places the target plane in front of the camera."""


# Records that hold arrays compare and hash by identity (eq=False): a
# generated __eq__ would compare their arrays elementwise and raise.
@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """All views of one calibration session, as stacked rows.

    Built from each view's id, the target points ``world_xy`` on z = 0 as
    ``(n, 2)``, the observed ``pixels`` as ``(n, 2)``, and ``offsets``: view
    k's points are rows ``offsets[k]:offsets[k + 1]``, so a view without
    points is a repeated offset. ``world`` holds the target points as
    ``(n, 3)``, of which ``world_xy`` is a view, and ``view_index`` the
    position in ``view_ids`` of each point's view. Every array is a
    read-only copy.
    """

    view_ids: tuple[int, ...]
    world_xy: np.ndarray = field(repr=False)
    pixels: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    world: np.ndarray = field(init=False, repr=False)
    view_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        view_ids = tuple(self.view_ids)
        if len(set(view_ids)) != len(view_ids):
            raise ValueError("view ids must be unique")
        world_xy = np.asarray(self.world_xy, dtype=float)
        pixels = np.array(self.pixels, dtype=float)
        if world_xy.ndim != 2 or world_xy.shape[1] != 2:
            raise ValueError("world_xy must have shape (n, 2)")
        if pixels.shape != world_xy.shape:
            raise ValueError("pixels must match world_xy in shape")
        if not (np.all(np.isfinite(world_xy)) and np.all(np.isfinite(pixels))):
            raise ValueError("correspondences must be finite")
        offsets = np.asarray(self.offsets)
        if offsets.shape != (len(view_ids) + 1,) or offsets.dtype.kind not in "iu":
            raise ValueError(f"offsets must be {len(view_ids) + 1} integers, one more than the views")
        offsets = offsets.astype(int)
        counts = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != len(pixels) or np.any(counts < 0):
            raise ValueError(f"offsets must rise from 0 to the {len(pixels)} points")
        world = np.column_stack([world_xy, np.zeros(len(world_xy))])
        view_index = np.repeat(np.arange(len(view_ids)), counts)
        object.__setattr__(self, "view_ids", view_ids)
        for name, value in zip(("world", "world_xy", "pixels", "view_index", "offsets"),
                               (world, world[:, :2], pixels, view_index, offsets)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_views(self) -> int:
        return len(self.view_ids)

    @property
    def n_points(self) -> int:
        return len(self.view_index)


@dataclass(frozen=True)
class OptimizerOptions:
    """Stopping contract for the nonlinear refinement."""

    tol_x: float = 1e-5
    tol_fun: float = 1e-5
    max_iter: int = 120

    def __post_init__(self) -> None:
        # NaN compares false and inf stops LM after one step: both rejected.
        tols = (self.tol_x, self.tol_fun)
        if not all(math.isfinite(t) and t > 0 for t in tols):
            raise ValueError(f"tolerances must be finite and positive: tol_x, tol_fun = {tols}")
        # A bool, or a cap such as 2.5 or inf, would run and be written to a
        # calibration file that read_calibration refuses.
        cap = self.max_iter
        whole = isinstance(cap, numbers.Integral) or (isinstance(cap, float) and cap.is_integer())
        if isinstance(cap, bool) or not whole:
            raise ValueError(f"the iteration cap must be an integer, got {cap!r}")
        if cap <= 0:
            raise ValueError("the iteration cap must be positive")
        object.__setattr__(self, "max_iter", int(cap))


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Estimated parameters, the exact objective they achieve, the options
    the refinement ran with and how it ended.

    ``poses`` holds each view's axis-angle and camera center ``[w, t]`` as a
    read-only ``(v, 6)`` array; ``extrinsics`` is the same poses as
    ViewExtrinsics, built when first read. Read back by
    ``fileio.read_calibration``, ``per_point_residuals`` is None, as is each
    outcome (``converged`` to ``stop_reason``) that the file lacks.
    """

    intrinsics: IntrinsicMatrix
    distortion: DistortionSpec
    view_ids: tuple[int, ...]
    poses: np.ndarray
    j_final: float
    rms_px: float
    per_point_residuals: tuple[np.ndarray, ...] | None
    options: OptimizerOptions
    converged: bool | None
    n_iterations: int | None
    j_init: float | None
    stop_reason: str | None

    def __post_init__(self) -> None:
        poses = np.array(self.poses, dtype=float).reshape(-1, 6)
        poses.setflags(write=False)
        object.__setattr__(self, "poses", poses)

    @cached_property
    def extrinsics(self) -> tuple[ViewExtrinsics, ...]:
        return tuple(ViewExtrinsics(pose[:3], pose[3:]) for pose in self.poses)


@dataclass(frozen=True)
class ModelReport:
    """One column of the comparison table."""

    model: Model
    result: CalibrationResult | None
    init_coefficients: tuple[float, ...] | None
    error: str | None = None


# ---------------------------------------------------------------------------
# Linear estimation


def _conditioning_transforms(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic normalization of each of k point sets ``(k, m, 2)``: centroid
    to origin, mean radius sqrt(2). Returns the transforms ``(k, 3, 3)`` and
    which sets are (nearly) coincident; those get the scale sqrt(2)."""
    centroid = pts.mean(axis=1)
    dx, dy = (pts - centroid[:, None, :]).transpose(2, 0, 1)
    mean_dist = np.sqrt(dx * dx + dy * dy).mean(axis=1)
    coincident = mean_dist < 1e-12
    s = math.sqrt(2.0) / np.where(coincident, 1.0, mean_dist)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return T, coincident


def _homographies(world_xy: np.ndarray, pixels: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Normalized DLT for k views of m points each, both arrays ``(k, m, 2)``.

    Returns each view's homography ``(k, 3, 3)``, not yet canonical, and for
    each view None or why it has none: fewer than four points, (nearly)
    coincident points, a rank-deficient design matrix (collinear points), or
    a singular homography (collinear pixels of points that are not). The
    matrix of a view without a homography means nothing.
    """
    k, m, _ = world_xy.shape
    if m < 4:
        return np.zeros((k, 3, 3)), [f"homography estimation needs at least 4 points, got {m}"] * k
    Tw, world_coincident = _conditioning_transforms(world_xy)
    Tp, pixels_coincident = _conditioning_transforms(pixels)
    w = world_xy * Tw[:, None, None, 0, 0] + Tw[:, None, :2, 2]
    p = pixels * Tp[:, None, None, 0, 0] + Tp[:, None, :2, 2]

    # Point j's rows 2j and 2j + 1: [w~, 0, -p_u w~] and [0, w~, -p_v w~],
    # with w~ = (w, 1).
    wh = np.concatenate([w, np.ones((k, m, 1))], axis=2)
    design = np.zeros((k, m, 2, 9))
    design[:, :, 0, 0:3] = design[:, :, 1, 3:6] = wh
    design[:, :, :, 6:9] = -p[:, :, :, None] * wh[:, :, None, :]

    design = design.reshape(k, 2 * m, 9)
    if m > 4:
        # design = QR: R (9 x 9) has the singular values and right singular
        # vectors of design, and its SVD costs less than that of design.
        design = np.linalg.qr(design, mode="r")
    # Four points give 8 rows, and only the full V^T holds the null vector.
    _, sv, vt = np.linalg.svd(design)
    rank_deficient = sv[:, 7] < 1e-10 * sv[:, 0]
    H = np.linalg.inv(Tp) @ vt[:, -1].reshape(k, 3, 3) @ Tw
    singular = np.linalg.matrix_rank(H) < 3
    reasons = [
        "points are (nearly) coincident" if coincident
        else "design matrix is rank-deficient (collinear points?)" if deficient
        else "homography is singular (collinear pixels?)" if degenerate
        else None
        for coincident, deficient, degenerate in zip(world_coincident | pixels_coincident, rank_deficient, singular)
    ]
    return H, reasons


def _canonical_homographies(H: np.ndarray) -> np.ndarray:
    """Each homography of a ``(k, 3, 3)`` stack of rank 3, scaled to unit
    Frobenius norm and signed so that its bottom-right entry (or, where that
    is zero, its largest entry) is positive: maps equal up to scale become
    identical."""
    H = H / np.linalg.norm(H, axis=(1, 2))[:, None, None]
    flat = H.reshape(len(H), 9)
    anchor = flat[:, 8]
    largest = flat[np.arange(len(H)), np.argmax(np.abs(flat), axis=1)]
    anchor = np.where(anchor == 0.0, largest, anchor)
    return np.where(anchor[:, None, None] < 0.0, -H, H)


def _conic_rows(H: np.ndarray) -> np.ndarray:
    """The two orthonormality constraints that each homography of a
    ``(k, 3, 3)`` stack puts on the conic, as ``(k, 2, 6)``."""

    def v(i: int, j: int) -> np.ndarray:
        hi, hj = H[:, :, i].T, H[:, :, j].T
        return np.stack(
            [
                hi[0] * hj[0],
                hi[0] * hj[1] + hi[1] * hj[0],
                hi[1] * hj[1],
                hi[2] * hj[0] + hi[0] * hj[2],
                hi[2] * hj[1] + hi[1] * hj[2],
                hi[2] * hj[2],
            ],
            axis=-1,
        )

    return np.stack([v(0, 1), v(0, 0) - v(1, 1)], axis=1)


def intrinsics_from_conic(B: np.ndarray) -> IntrinsicMatrix:
    """Closed-form extraction of the five intrinsics from the symmetric
    ``3x3`` ``B ~ A^-T A^-1`` (the image of the absolute conic), up to sign."""
    if B[0, 0] < 0.0:
        B = -B
    b11, b12, b22 = B[0, 0], B[0, 1], B[1, 1]
    b13, b23, b33 = B[0, 2], B[1, 2], B[2, 2]
    den = b11 * b22 - b12 * b12
    if b11 <= 0.0 or den <= 0.0:
        raise SingularConfiguration("conic is not positive definite up to sign")
    v0 = (b12 * b13 - b11 * b23) / den
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0.0:
        raise SingularConfiguration("conic is not positive definite up to sign")
    alpha = math.sqrt(lam / b11)
    beta = math.sqrt(lam * b11 / den)
    gamma = -b12 * alpha * alpha * beta / lam
    u0 = gamma * v0 / beta - b13 * alpha * alpha / lam
    return IntrinsicMatrix(alpha, beta, gamma, u0, v0)


def _intrinsics(H: np.ndarray) -> IntrinsicMatrix:
    """The intrinsics from a ``(k, 3, 3)`` stack of homographies of at least
    three non-parallel plane views.

    Stacks both conic constraints per homography and solves the homogeneous
    least-squares problem for the six distinct entries of B. Raises
    SingularConfiguration when the constraints do not determine B (for
    example mutually parallel target planes) or B is not definite.
    """
    if len(H) < 3:
        raise SingularConfiguration(f"intrinsics need at least 3 views, got {len(H)}")
    _, sv, vt = np.linalg.svd(_conic_rows(H).reshape(-1, 6), full_matrices=False)
    if sv[4] < 1e-10 * sv[0]:
        raise SingularConfiguration(
            "conic constraints are rank-deficient (parallel planes provide "
            "the same information)"
        )
    b = vt[-1]
    B = np.array(
        [
            [b[0], b[1], b[3]],
            [b[1], b[2], b[4]],
            [b[3], b[4], b[5]],
        ]
    )
    return intrinsics_from_conic(B)


def _poses_from_homographies(H: np.ndarray, A: IntrinsicMatrix) -> np.ndarray:
    """Each view's pose ``[w, t]`` as ``(k, 6)``, from a ``(k, 3, 3)`` stack of
    homographies and known intrinsics.

    The first two rotation columns come from the scaled ``A^-1 H``; the
    closest proper rotation (orthogonal Procrustes) replaces the raw columns,
    and the overall sign is fixed so the target plane sits at positive depth.
    The first view that fails names the error.
    """
    G = A.inverse_matrix @ H
    scale = np.linalg.norm(G[:, :, 0], axis=1)
    collapsed = scale < 1e-12
    G = G / np.where(collapsed, 1.0, scale)[:, None, None]
    G = np.where(G[:, 2:, 2:] < 0.0, -G, G)
    t = G[:, :, 2]
    failed = collapsed | (np.abs(t[:, 2]) < 1e-12)
    if np.any(failed):
        if collapsed[np.argmax(failed)]:
            raise SingularConfiguration("homography column collapses under A^-1")
        raise BehindCamera("target plane passes through the camera center")
    Q = np.stack([G[:, :, 0], G[:, :, 1], np.cross(G[:, :, 0], G[:, :, 1])], axis=2)
    u, _, vt = np.linalg.svd(Q)
    flip = np.ones((len(H), 1, 3))
    flip[:, 0, 2] = np.linalg.det(u @ vt)
    # The world-to-camera R becomes the stored camera-to-world R^T, and t
    # the camera center -R^T t.
    rotation = ((u * flip) @ vt).transpose(0, 2, 1)
    center = -(rotation @ t[:, :, None])[:, :, 0]
    return np.concatenate([axis_angles_from_rotations(rotation), center], axis=1)


# ---------------------------------------------------------------------------
# Objective and derivatives


@dataclass(frozen=True)
class _Stacked:
    """The forward model at every stacked point, and what its derivatives need."""

    A: IntrinsicMatrix
    spec: DistortionSpec
    rotation_t: np.ndarray  # (v, 3, 3) each view's R^T, from rotation_blocks
    jr: np.ndarray  # (v, 3, 3) each view's right Jacobian J_r(w)
    pc: np.ndarray  # (n, 3) camera points R^T (P - t)
    xy: np.ndarray  # (n, 2) pinhole points on the unit focal plane
    r: np.ndarray
    f: np.ndarray  # warp factors f(r)
    pixels: np.ndarray  # (n, 2) predicted pixels


def project_views(
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    poses: np.ndarray,
    world: np.ndarray,
    view_index: np.ndarray,
    view_ids: Sequence[int],
) -> _Stacked:
    """The forward model: world points of many views to pixels in one array pass.

    poses holds each view's axis-angle and camera center ``[w, t]`` as
    ``(v, 6)``, world the points as ``(n, 3)``, and view_index each point's
    row of poses. Pinhole projection ``P_c = R^T (P - t)``, the radial warp
    on the unit focal plane, then the intrinsics. Raises DepthNotPositive
    naming (by view_ids) the view of the point with the smallest depth when
    any point is behind (or on) its camera plane.
    """
    if not np.all(np.isfinite(poses)):
        raise InvalidParameters("view poses must be finite")
    rotation_t, jr = rotation_blocks(poses[:, :3])
    # np.take gathers each point's view rows several times faster than fancy
    # indexing does.
    rotation_t_of, center_of = (np.take(a, view_index, axis=0) for a in (rotation_t, poses[:, 3:]))
    pc = np.einsum("nij,nj->ni", rotation_t_of, world - center_of)
    z = pc[:, 2:]
    if np.any(z <= 0.0):
        where = f"view {view_ids[view_index[np.argmin(z)]]} has a point at camera depth"
        raise DepthNotPositive(f"{where} {z.min()}; must be positive")
    xy = pc[:, :2] / z
    r = radius_array(xy)
    f = warp_factor(spec, r)
    pixels = to_pixel_array(xy * f[:, None], A)
    return _Stacked(A, spec, rotation_t, jr, pc, xy, r, f, pixels)


def project(P: WorldPoint, E: ViewExtrinsics, A: IntrinsicMatrix) -> PixelPoint:
    """Undistorted pinhole projection of one world point: project_views with
    model2 at k1 = 0, whose f = 1 + 0 r r is exactly 1 at every finite radius.
    Raises DepthNotPositive when the point is behind (or on) the camera plane.
    """
    pose = np.concatenate([E.axis_angle, E.t])[None, :]
    no_warp = DistortionSpec(Model.MODEL2, 0.0)
    s = project_views(A, no_warp, pose, P.array[None, :], np.zeros(1, dtype=int), (0,))
    return PixelPoint(*s.pixels[0].tolist())


def _forward(theta: np.ndarray, corr: CorrespondenceSet, model: Model) -> _Stacked:
    """project_views at the packed parameters theta for all views of corr."""
    A, spec, poses = _unpack_params(theta, model, corr.n_views)
    return project_views(A, spec, poses, corr.world, corr.view_index, corr.view_ids)


def objective(
    corr: CorrespondenceSet,
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    extrinsics: Sequence[ViewExtrinsics] | np.ndarray,
) -> float:
    """Sum of squared pixel distances between observations and predictions.

    extrinsics is one ViewExtrinsics per view, or their ``(v, 6)`` rows
    ``[w, t]``; so in init_distortion and objective_gradient. At a fit's
    parameters this is the fit's ``j_final``, to the bit.
    """
    if len(extrinsics) != corr.n_views:
        raise ValueError("one extrinsics entry per view is required")
    diff = _forward(_pack_params(A, spec, extrinsics), corr, spec.model).pixels - corr.pixels
    return _cost(diff)


def init_distortion(
    corr: CorrespondenceSet,
    A: IntrinsicMatrix,
    extrinsics: Sequence[ViewExtrinsics] | np.ndarray,
    model: Model,
) -> DistortionSpec:
    """Linear least-squares distortion coefficients from pixel displacements.

    Each observation contributes two equations linear in the coefficients,
    relating the observed minus predicted pixel offsets about the principal
    point to the model's radial basis. Falls back to zero coefficients when
    the normal equations are rank-deficient (e.g. all radii equal).
    """
    nk = n_coefficients(model)
    # With zero coefficients f = 1 exactly: the predictions are undistorted.
    s = _forward(_pack_params(A, DistortionSpec(model, 0.0), extrinsics), corr, model)
    basis = coefficient_basis(model, s.r)
    design = np.einsum("ni,nk->nik", s.pixels - (A.u0, A.v0), basis)
    target = corr.pixels - s.pixels
    coeffs, _, rank, _ = np.linalg.lstsq(design.reshape(-1, nk), target.ravel(), rcond=None)
    if rank < nk:
        coeffs = np.zeros(nk)
    return DistortionSpec.from_coefficients(model, coeffs)


def _pose_rows(extrinsics: Sequence[ViewExtrinsics] | np.ndarray) -> np.ndarray:
    """Each view's pose as a row ``[w, t]`` of a ``(v, 6)`` array; such an
    array is returned as it is."""
    if isinstance(extrinsics, np.ndarray):
        return extrinsics
    return np.array([np.concatenate([E.axis_angle, E.t]) for E in extrinsics]).reshape(-1, 6)


def _pack_params(
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    extrinsics: Sequence[ViewExtrinsics] | np.ndarray,
) -> np.ndarray:
    intrinsics = [A.alpha, A.beta, A.gamma, A.u0, A.v0]
    return np.concatenate([intrinsics, spec.coefficients, _pose_rows(extrinsics).ravel()])


def _unpack_params(
    theta: np.ndarray, model: Model, n_views: int
) -> tuple[IntrinsicMatrix, DistortionSpec, np.ndarray]:
    """The intrinsics, the warp and the ``(v, 6)`` poses packed in theta."""
    nk = n_coefficients(model)
    A = IntrinsicMatrix(*theta[:5])
    spec = DistortionSpec.from_coefficients(model, theta[5 : 5 + nk])
    return A, spec, theta[5 + nk :].reshape(n_views, 6)


def _jacobian_workspace(n_points: int, n_views: int, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Storage for the columns and pose maps of ``_residuals_and_blocks``,
    holding the entries that no parameter moves: the structural zeros, and
    the ones of ``d(pixel)/d(u0, v0)``."""
    columns = np.zeros((12 + n_coefficients(model), n_points, 2))
    columns[9, :, 0] = columns[10, :, 1] = 1.0
    return columns, np.zeros((n_views, 6, 6))


def _residuals_and_blocks(
    theta: np.ndarray,
    corr: CorrespondenceSet,
    model: Model,
    workspace: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel residuals and their Jacobian, as per-point columns and per-view maps.

    Returns the columns of every point's two rows ``[G | J_c | r]`` as
    ``(7 + p, n, 2)``: ``r`` is the residual (predicted minus observed),
    ``J_c`` its derivative in the p shared columns ``[alpha, beta, gamma,
    u0, v0, coefficients]``, and ``G = [g x P_c, g]`` with ``g =
    d(pixel)/d(P_c)``. Also returns each view's pose map ``M_k =
    blockdiag(J_r, -R^T)`` as ``(v, 6, 6)``: a point's derivative in the
    columns ``[w, t]`` of its own view k is ``G M_k``, and every other entry
    of the Jacobian is zero. Stored by column, each entry is written
    contiguously.

    Both are written into workspace, from ``_jacobian_workspace``, when it is
    given: every evaluation of one fit can then share one allocation.
    """
    s = _forward(theta, corr, model)
    A, (x, y) = s.A, s.xy.T
    columns, maps = workspace or _jacobian_workspace(corr.n_points, corr.n_views, model)

    # d(pixel)/d(intrinsics), columns [alpha, beta, gamma, u0, v0]; those of
    # u0 and v0 are constant.
    jc = columns[6:-1]
    jc[0, :, 0], jc[2, :, 0], jc[1, :, 1] = x * s.f, y * s.f, y * s.f
    # d(pixel)/d(coefficients) through the warp basis
    basis = coefficient_basis(model, s.r).T
    dxd_dk, dyd_dk = x * basis, y * basis
    jc[5:, :, 0] = A.alpha * dxd_dk + A.gamma * dyd_dk
    jc[5:, :, 1] = A.beta * dyd_dk

    # g = d(pixel)/d(camera point) = MA D [I/z, -(x, y)/z], with MA = [[alpha,
    # gamma], [0, beta]] and D = f I + (f'/r) (x, y)(x, y)^T the derivative of
    # the distorted point by the normalized one; entry by entry.
    r = s.r
    slope_over_r = np.where(r > 1e-12, warp_slope(s.spec, r) / np.where(r > 1e-12, r, 1.0), 0.0)
    d01 = slope_over_r * x * y
    d00, d11 = s.f + slope_over_r * x * x, s.f + slope_over_r * y * y
    m00, m01 = A.alpha * d00 + A.gamma * d01, A.alpha * d01 + A.gamma * d11
    m10, m11 = A.beta * d01, A.beta * d11
    iz = 1.0 / s.pc[:, 2]
    g0, g1, g2 = g = columns[3:6]
    for row, (m0, m1) in enumerate(((m00, m01), (m10, m11))):
        g[0, :, row] = m0 * iz
        g[1, :, row] = m1 * iz
        g[2, :, row] = -(m0 * x + m1 * y) * iz
    # d pc/dw = [pc]_x J_r, whose rows give (g cross pc) J_r for each row g;
    # d pc/dt = -R^T.
    p0, p1, p2 = s.pc.T[:, :, None]
    columns[0], columns[1], columns[2] = g1 * p2 - g2 * p1, g2 * p0 - g0 * p2, g0 * p1 - g1 * p0
    columns[-1] = s.pixels - corr.pixels
    maps[:, :3, :3], maps[:, 3:, 3:] = s.jr, -s.rotation_t
    return columns, maps


@dataclass(frozen=True)
class _NormalEquations:
    """``J^T J`` and ``J^T r`` by block: ``u`` is the shared block ``U``
    ``(p, p)``, ``wt[k]`` view k's pose-by-shared block ``W_k^T`` ``(6, p)``
    and ``v[k]`` its pose block ``V_k`` ``(6, 6)``; the pose blocks of two
    views never meet."""

    u: np.ndarray
    wt: np.ndarray
    v: np.ndarray
    grad: np.ndarray  # J^T r in packing order

    @property
    def diagonal(self) -> np.ndarray:
        """``diag(J^T J)`` in packing order."""
        return np.concatenate([self.u.diagonal(), np.einsum("kii->ki", self.v).ravel()])


def _normal_equations(columns: np.ndarray, maps: np.ndarray, offsets: np.ndarray) -> _NormalEquations:
    """The blocks of ``J^T J`` and ``J^T r`` from one Gram product per view.

    With ``A_k`` view k's rows ``[G | J_c | r]`` (offsets delimit them) and
    ``Q_k = A_k^T A_k``: ``U = sum_k Q_k[c, c]``, ``W_k^T = M_k^T Q_k[g, c]``,
    ``V_k = M_k^T Q_k[g, g] M_k``, and ``J^T r`` is ``sum_k Q_k[c, r]`` for
    the shared columns and ``M_k^T Q_k[g, r]`` for view k's. A view without
    points has ``Q_k = 0``.
    """
    flat = columns.reshape(len(columns), -1)
    grams = np.stack([a @ a.T for a in np.split(flat, 2 * offsets[1:-1], axis=1)])
    mq = maps.transpose(0, 2, 1) @ grams[:, :6]
    shared = grams[:, 6:, 6:].sum(axis=0)
    return _NormalEquations(
        u=shared[:-1, :-1],
        wt=mq[:, :, 6:-1],
        v=mq[:, :, :6] @ maps,
        grad=np.concatenate([shared[:-1, -1], mq[:, :, -1].ravel()]),
    )


def _schur_step(ne: _NormalEquations, damping: np.ndarray) -> np.ndarray:
    """Solve ``(J^T J + diag(damping)) delta = -J^T r`` by the Schur
    complement on the shared block (Triggs et al. 2000, *Bundle Adjustment
    -- A Modern Synthesis*, section 6); damping holds one entry per packed
    parameter.

    With ``D_U`` the shared entries of ``diag(damping)`` and ``D_k`` view
    k's six, eliminating each view's pose step leaves ``S = U + D_U - sum_k
    W_k (V_k + D_k)^-1 W_k^T`` for the shared step; each pose step then
    follows from its own view's block. The damped blocks are solved against
    ``[W_k^T, g_k]``, not inverted: on a 29-point test scene at mu = 1e-6 of
    the largest diagonal entry, an explicit inverse put the step 1e-9 off
    the exact one, and a solve 1e-12.
    """
    p = ne.u.shape[0]
    g_shared, g_pose = ne.grad[:p], ne.grad[p:].reshape(-1, 6)
    damped = ne.v + damping[p:].reshape(-1, 6, 1) * np.eye(6)
    solved = np.linalg.solve(damped, np.concatenate([ne.wt, g_pose[:, :, None]], axis=2))
    v_inv_wt, v_inv_g = solved[:, :, :p], solved[:, :, p]
    schur = ne.u + np.diag(damping[:p]) - np.tensordot(ne.wt, v_inv_wt, axes=([0, 1], [0, 1]))
    rhs = np.tensordot(ne.wt, v_inv_g, axes=([0, 1], [0, 1])) - g_shared
    try:
        d_shared = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        d_shared = np.linalg.lstsq(schur, rhs, rcond=None)[0]
    d_pose = -(v_inv_g + v_inv_wt @ d_shared)
    return np.concatenate([d_shared, d_pose.ravel()])


def objective_gradient(
    corr: CorrespondenceSet,
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    extrinsics: Sequence[ViewExtrinsics] | np.ndarray,
) -> np.ndarray:
    """Gradient of the objective with respect to the packed parameter vector."""
    theta = _pack_params(A, spec, extrinsics)
    columns, maps = _residuals_and_blocks(theta, corr, spec.model)
    return 2.0 * _normal_equations(columns, maps, corr.offsets).grad


# ---------------------------------------------------------------------------
# Levenberg-Marquardt refinement


def _cost(residuals: np.ndarray) -> float:
    """The objective J of the ``(n, 2)`` residuals: the package's one
    formula for it, so the LM's costs, ``j_init``, ``j_final`` and
    ``objective`` agree to the bit."""
    return float(np.vdot(residuals, residuals))


@dataclass(frozen=True)
class _LMResult:
    """Where the LM stopped: the objective at its start, and the residuals
    (predicted minus observed, ``(n, 2)``) at ``x``."""

    x: np.ndarray
    n_iterations: int
    converged: bool
    reason: str
    j_init: float
    residuals: np.ndarray


def _levenberg_marquardt(
    eval_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    opts: OptimizerOptions,
    offsets: np.ndarray,
) -> _LMResult:
    """Damped Gauss-Newton descent honoring the three stopping thresholds of
    opts; it also stops when the damping passes 1e32 without a descent step.

    Each step solves ``(J^T J + mu D) delta = -J^T r`` with Marquardt's
    scaling: ``D`` is the running maximum of ``diag(J^T J)`` over the
    iterations (Moré 1978, *The Levenberg-Marquardt Algorithm:
    Implementation and Theory*), so every parameter is damped by its own
    scale. ``mu`` starts at 1e-3 and follows Nielsen's update: scaled by
    the gain ratio on a descent step, by a doubling factor on a refusal.

    eval_fn returns the columns and pose maps of ``_residuals_and_blocks``;
    offsets delimit each view's rows. Only improving steps are accepted, so
    the final cost never exceeds the initial one. A trial point that raises
    DepthNotPositive (behind the camera) or InvalidParameters (out of the
    parameters' domain) is rejected and the step shrinks; any other error
    propagates.
    """
    x = np.array(x0, dtype=float)
    blocks = eval_fn(x)
    # eval_fn may write every evaluation into one workspace, which later
    # trials overwrite: the residuals of each accepted point are copied out.
    residuals = blocks[0][-1].copy()
    cost = j_init = _cost(residuals)
    scale = None
    mu = 1e-3
    nu = 2.0
    converged = False
    reason = "iteration limit reached"
    n_iter = 0

    while n_iter < opts.max_iter:
        n_iter += 1
        ne = _normal_equations(*blocks, offsets)
        # Hold one Jacobian at a time: the trial's is built next.
        blocks = blocks_new = None
        diag = ne.diagonal
        # A parameter that moves no residual, such as the pose of a view
        # without points, has a zero entry: it is damped by 1, as in MINPACK.
        scale = np.where(diag > 0.0, diag, 1.0) if scale is None else np.maximum(scale, diag)

        accepted = False
        while True:
            damping = mu * scale
            delta = _schur_step(ne, damping)
            if float(np.max(np.abs(delta) / (1.0 + np.abs(x)))) <= opts.tol_x:
                converged = True
                reason = "step below tol_x"
                break
            trial = x + delta
            try:
                blocks_new = eval_fn(trial)
                cost_new = _cost(blocks_new[0][-1])
            except (InvalidParameters, DepthNotPositive):
                cost_new = math.inf
            if cost_new < cost:
                gain_den = float(delta @ (damping * delta - ne.grad))
                rho = (cost - cost_new) / gain_den if gain_den > 0.0 else 1.0
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                decrease = cost - cost_new
                x, blocks, cost = trial, blocks_new, cost_new
                residuals = blocks[0][-1].copy()
                if decrease <= opts.tol_fun * (1.0 + cost_new):
                    converged = True
                    reason = "objective decrease below tol_fun"
                accepted = True
                break
            blocks_new = None
            mu *= nu
            nu *= 2.0
            if not math.isfinite(mu) or mu > 1e32:
                reason = "damping overflow (no descent direction)"
                break
        if converged or not accepted:
            break
    return _LMResult(x, n_iter, converged, reason, j_init, residuals)


def _build_result(
    corr: CorrespondenceSet,
    A: IntrinsicMatrix,
    spec: DistortionSpec,
    extrinsics: Sequence[ViewExtrinsics] | np.ndarray,
    options: OptimizerOptions = OptimizerOptions(),
    converged: bool = True,
    n_iterations: int = 0,
    j_init: float | None = None,
    stop_reason: str = "",
    residuals: np.ndarray | None = None,
) -> CalibrationResult:
    """The result at these parameters; residuals, when given, are the
    ``(n, 2)`` predicted minus observed pixels there, else computed."""
    if residuals is None:
        residuals = _forward(_pack_params(A, spec, extrinsics), corr, spec.model).pixels - corr.pixels
    total = _cost(residuals)
    dist = radius_array(residuals)
    dist.setflags(write=False)
    return CalibrationResult(
        intrinsics=A,
        distortion=spec,
        view_ids=corr.view_ids,
        poses=_pose_rows(extrinsics),
        j_final=total,
        rms_px=math.sqrt(total / corr.n_points),
        per_point_residuals=tuple(np.split(dist, corr.offsets[1:-1])),
        options=options,
        converged=converged,
        n_iterations=n_iterations,
        j_init=j_init,
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class _Start:
    """Parameters a refinement starts from, not yet evaluated."""

    intrinsics: IntrinsicMatrix
    distortion: DistortionSpec
    poses: np.ndarray  # (v, 6) each view's [w, t]


def refine(
    corr: CorrespondenceSet,
    init: CalibrationResult | _Start,
    opts: OptimizerOptions = OptimizerOptions(),
) -> CalibrationResult:
    """Jointly refine intrinsics, distortion, and all view poses.

    Starts from init's intrinsics, distortion and poses; ``j_init`` is the
    objective there on corr, and ``options`` is opts. Never increases the
    objective relative to the initialization. On hitting the iteration cap,
    the best parameters so far are returned with ``converged=False`` rather
    than raising.
    """
    model = init.distortion.model
    theta0 = _pack_params(init.intrinsics, init.distortion, init.poses)
    # Every evaluation writes into one workspace: a fresh array per
    # evaluation (3.5 MB at 100 views) is returned to the OS when dropped
    # and faulted in again by the next.
    workspace = _jacobian_workspace(corr.n_points, corr.n_views, model)
    lm = _levenberg_marquardt(
        lambda th: _residuals_and_blocks(th, corr, model, workspace), theta0, opts, corr.offsets
    )
    A, spec, poses = _unpack_params(lm.x, model, corr.n_views)
    return _build_result(
        corr,
        A,
        spec,
        poses,
        options=opts,
        converged=lm.converged,
        n_iterations=lm.n_iterations,
        j_init=lm.j_init,
        stop_reason=lm.reason,
        residuals=lm.residuals,
    )


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True, eq=False)
class LinearStage:
    """The linear start of a calibration, and the views it could not use."""

    corr: CorrespondenceSet  # the views kept
    intrinsics: IntrinsicMatrix
    poses: np.ndarray  # (v, 6) each kept view's [w, t]
    dropped: tuple[tuple[int, str], ...]  # (view id, reason) of each view dropped


def linear_stage(corr: CorrespondenceSet) -> LinearStage:
    """Homographies, intrinsics and poses of all views in one batched pass.

    The views are grouped by point count, and each group's DLT designs are
    solved as one stack. A view without a homography is dropped, and
    ``dropped`` holds its id and the reason (``calibrate`` and
    ``compare_models`` warn of it); fewer than three kept views raise
    DegenerateConfiguration.
    """
    counts = np.diff(corr.offsets)
    H = np.empty((corr.n_views, 3, 3))
    reasons: list[str | None] = [None] * corr.n_views
    for m in np.unique(counts).tolist():
        group = np.flatnonzero(counts == m)
        rows = corr.offsets[group, None] + np.arange(m)
        world_xy = np.take(corr.world, rows, axis=0)[:, :, :2]
        H[group], why = _homographies(world_xy, np.take(corr.pixels, rows, axis=0))
        for k, reason in zip(group.tolist(), why):
            reasons[k] = reason
    dropped = tuple((view_id, why) for view_id, why in zip(corr.view_ids, reasons) if why is not None)
    kept = [k for k, reason in enumerate(reasons) if reason is None]
    if len(kept) < 3:
        raise DegenerateConfiguration(
            f"calibration needs at least 3 usable views, got {len(kept)}"
        )
    if dropped:
        rows, ids = np.isin(corr.view_index, kept), [corr.view_ids[k] for k in kept]
        offsets = np.concatenate([[0], np.cumsum(counts[kept])])
        corr = CorrespondenceSet(ids, corr.world_xy[rows], corr.pixels[rows], offsets)
    H = _canonical_homographies(H[kept])
    A = _intrinsics(H)
    return LinearStage(corr, A, _poses_from_homographies(H, A), dropped)


def calibrate(
    corr: CorrespondenceSet,
    model: Model,
    opts: OptimizerOptions = OptimizerOptions(),
) -> CalibrationResult:
    """Full pipeline: linear estimation, distortion guess, then refinement.

    Each view that the linear stage drops is named in a RuntimeWarning.
    """
    stage = linear_stage(corr)
    for view_id, reason in stage.dropped:
        warnings.warn(f"dropping view {view_id}: {reason}", RuntimeWarning, stacklevel=2)
    spec0 = init_distortion(stage.corr, stage.intrinsics, stage.poses, model)
    return refine(stage.corr, _Start(stage.intrinsics, spec0, stage.poses), opts)


def compare_models(
    corr: CorrespondenceSet,
    opts: OptimizerOptions = OptimizerOptions(),
) -> tuple[ModelReport, ...]:
    """Refine all three distortion models from one shared linear start; one
    report per model, in the order model1, model2, model3.

    The distortion initialization is re-fit per model (the linear intrinsics
    and poses are shared); a model that fails is reported inline without
    stopping the others. Each view that the linear stage drops is named in
    a RuntimeWarning.
    """
    stage = linear_stage(corr)
    for view_id, reason in stage.dropped:
        warnings.warn(f"dropping view {view_id}: {reason}", RuntimeWarning, stacklevel=2)
    entries = []
    for model in (Model.MODEL1, Model.MODEL2, Model.MODEL3):
        try:
            spec0 = init_distortion(stage.corr, stage.intrinsics, stage.poses, model)
            result = refine(stage.corr, _Start(stage.intrinsics, spec0, stage.poses), opts)
            entries.append(
                ModelReport(
                    model=model,
                    result=result,
                    init_coefficients=spec0.coefficients,
                )
            )
        except ValueError as exc:  # every library error; reported inline
            entries.append(
                ModelReport(
                    model=model,
                    result=None,
                    init_coefficients=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return tuple(entries)
