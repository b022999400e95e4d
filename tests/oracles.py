"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own solution paths: cubic
roots come from derivative-bracketed bisection, scalar radius inversion from
numpy's companion-matrix roots, and projections from inline matrix algebra.
The exceptions are the paper's component form of the model3 inverse, written
over the public real_roots, which the bisection oracle checks in turn, and
two views of the calibration Jacobian that the finite-difference tests
check: a rotated point's derivative from the library's per-view rotation
blocks, and the dense matrix scattered from the per-point rows and the
per-view pose maps. The scalar Rodrigues formula is here as the reference
of the library's batched one, geometry.rotation_blocks. The linear calibration stage is also here one view at
a time, with the scalar inverse Rodrigues map and a scalar canonical form
of the homography, as the oracle of the library's batched linear_stage and
its kernels; it shares only the closed-form intrinsics_from_conic with
them, which the round trip through conic_from_intrinsics checks. The
ground-line fix is here in numpy matrix algebra, as the oracle of the
library's float arithmetic; it shares the undistortion, the signed angle
between the segments and the exception types with it. The CSV readers
are here as a per-line parse, by ``float`` and ``int`` conversions and a
dict of rows per view id, as the oracle of the library's one-pass
``np.loadtxt`` readers and their numpy grouping; they share only the
ParseError type. The correspondence reader returns its views one by one,
as the test records of ``conftest.View``, where the library stacks them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from radialcal.calibration import (
    DegenerateConfiguration,
    SingularConfiguration,
    intrinsics_from_conic,
)
from radialcal.geometry import WorldPoint, rotation_blocks, to_normalized
from radialcal.cubic import NoRealSolution, real_roots
from radialcal.distortion import undistort
from radialcal.fileio import ParseError
from radialcal.localize import (
    EndpointsCoincide,
    LocalizationFix,
    PointBehindCamera,
    RayParallelToGround,
    recover_delta_rotation,
)

from conftest import View, split_views

# Components at most COMPONENT_ZERO map to zero; roots within ROOT_ZERO of
# zero belong to neither sign branch.
COMPONENT_ZERO = 1e-12
ROOT_ZERO = 1e-14


def cubic_residual(y, p, q, x):
    return x + p * x * x + q * x ** 3 - y


def bisect_cubic_roots(
    ys: np.ndarray,
    ps: np.ndarray,
    qs: np.ndarray,
    span: float = 10.0,
    iterations: int = 80,
) -> tuple[np.ndarray, np.ndarray]:
    """All real roots of ``y = x + p x^2 + q x^3`` inside the standard bracket.

    The bracket is ``[-span (1 + |y|), span (1 + |y|)]``. Critical points of
    the cubic partition it into monotone intervals, so each interval holds at
    most one root and a plain sign-change bisection finds it. Returns
    ``(roots, counts)`` where roots is (n, 3) NaN-padded ascending.
    """
    ys = np.asarray(ys, dtype=float)
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    n = ys.size
    L = span * (1.0 + np.abs(ys))

    # Critical points: 3 q x^2 + 2 p x + 1 = 0. Where they do not exist the
    # edge collapses onto the bracket end, producing zero-width intervals that
    # the sign test skips automatically.
    quad = np.abs(qs) > 1e-300
    disc = 4.0 * ps * ps - 12.0 * qs
    has_two = quad & (disc > 0.0)
    sq = np.sqrt(np.where(has_two, disc, 0.0))
    # Citardauq pairing: u/a and c/u avoid the cancelling branch of the
    # quadratic formula (critical points must be accurate for the monotone
    # partition to hold).
    b2 = 2.0 * ps
    u = -0.5 * (b2 + np.where(b2 >= 0.0, sq, -sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(has_two & (u != 0.0), u / (3.0 * qs), -L)
        r2 = np.where(has_two & (u != 0.0), 1.0 / u, -L)
        lin = (~quad) & (np.abs(ps) > 1e-300)
        r_lin = np.where(lin, -1.0 / (2.0 * ps), -L)
    c1 = np.where(has_two, np.minimum(r1, r2), np.where(lin, r_lin, -L))
    c2 = np.where(has_two, np.maximum(r1, r2), -L)
    c1 = np.clip(c1, -L, L)
    c2 = np.clip(c2, -L, L)

    edges = np.stack([-L, c1, c2, L], axis=1)
    edges = np.sort(edges, axis=1)

    def g(x, idx):
        return x + ps[idx] * x * x + qs[idx] * x ** 3 - ys[idx]

    roots = np.full((n, 3), np.nan)
    counts = np.zeros(n, dtype=int)

    for k in range(3):
        a = edges[:, k].copy()
        b = edges[:, k + 1].copy()
        idx = np.arange(n)
        ga = g(a, idx)
        gb = g(b, idx)
        active = (ga * gb < 0.0) & (b > a)
        if not np.any(active):
            continue
        ai = a[active]
        bi = b[active]
        ids = idx[active]
        gai = g(ai, ids)
        for _ in range(iterations):
            mid = 0.5 * (ai + bi)
            gm = g(mid, ids)
            left = (gai * gm) <= 0.0
            bi = np.where(left, mid, bi)
            ai = np.where(left, ai, mid)
            gai = np.where(left, gai, gm)
        found = 0.5 * (ai + bi)
        roots[ids, counts[ids]] = found
        counts[ids] += 1

    roots = np.sort(roots, axis=1)  # NaNs sort to the end
    return roots, counts


def radius_from_distorted_model3(r_d: float, k1: float, k2: float, r_max: float) -> float:
    """Scalar-radius inversion through numpy's polynomial roots (companion
    eigenvalues): the unique root of ``k2 r^3 + k1 r^2 + r - r_d`` in
    ``[0, r_max]``."""
    roots = np.roots([k2, k1, 1.0, -r_d])
    real = roots[np.abs(roots.imag) < 1e-9].real
    in_domain = [r for r in real if -1e-12 <= r <= r_max * (1.0 + 1e-9)]
    assert len(in_domain) == 1, f"expected a unique in-domain radius, got {in_domain}"
    return float(max(in_domain[0], 0.0))


def forward_component_model3(x: float, c: float, k1: float, k2: float) -> float:
    """Direct evaluation of the odd component warp used by the cubic inverse."""
    scale = 1.0 + c * c
    return (
        x
        + k1 * math.sqrt(scale) * math.copysign(1.0, x) * x * x
        + k2 * scale * x ** 3
    )


def undistort_component(x_d: float, c: float, k1: float, k2: float) -> float:
    """Invert ``x_d = x + k1 sqrt(1+c^2) sgn(x) x^2 + k2 (1+c^2) x^3`` for x.

    The paper's candidate selection: zero (at working precision) maps to
    zero; otherwise the positive-sign and negative-sign branches are solved
    separately, each keeps the roots whose sign matches its assumption, and
    the candidate closest to the observed ``x_d`` wins.
    """
    if abs(x_d) <= COMPONENT_ZERO:
        return 0.0
    scale = 1.0 + c * c
    p, q = k1 * math.sqrt(scale), k2 * scale
    candidates = [x for x in real_roots(x_d, p, q) if x > ROOT_ZERO]
    candidates += [x for x in real_roots(x_d, -p, q) if x < -ROOT_ZERO]
    if not candidates:
        raise NoRealSolution(f"no sign-consistent real root for x_d={x_d!r}")
    return min(candidates, key=lambda x: abs(x - x_d))


def undistort_xy(x_d: float, y_d: float, k1: float, k2: float) -> tuple[float, float]:
    """Component-wise inverse of the odd radial warp on the normalized plane.

    The x component is recovered from the scalar cubic with ``c = y_d / x_d``
    and y follows as ``c x``; a (relatively) zero x component swaps the roles
    of the axes, which also keeps ``c`` bounded.
    """
    if abs(x_d) <= COMPONENT_ZERO * max(1.0, abs(y_d)):
        return 0.0, undistort_component(y_d, 0.0, k1, k2)
    c = y_d / x_d
    x = undistort_component(x_d, c, k1, k2)
    return x, c * x


def project_pinhole(
    world: np.ndarray, R_wc: np.ndarray, t_wc: np.ndarray, K: np.ndarray
) -> np.ndarray:
    """Inline projection ``u ~ K (R P + t)`` for (n, 3) points."""
    pc = world @ R_wc.T + t_wc
    uvw = pc @ K.T
    return uvw[:, :2] / uvw[:, 2:3]


def rotation_transpose_apply_jacobian(
    w: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values and w-derivatives of ``v = R(w)^T d`` for one w and rows of d."""
    rotation_t, jr = rotation_blocks(w[None, :])
    v = d @ rotation_t[0].T
    # Row i of [v]_x is e_i cross v.
    return v, np.cross(np.eye(3), v[:, None, :]) @ jr[0]


def dense_jacobian(columns: np.ndarray, maps: np.ndarray, view_index: np.ndarray) -> np.ndarray:
    """The dense ``(2n, P)`` Jacobian from the columns of the rows ``[G | J_c
    | r]`` and the pose maps ``M_k`` of ``_residuals_and_blocks``.

    Columns are in packing order: the shared block ``J_c`` first, then six
    pose columns per view, of which each point fills only its own view's,
    with ``G M_k``. Row 2j is point j's u residual and row 2j + 1 its v
    residual.
    """
    rows = columns.transpose(1, 2, 0)
    n, _, width = rows.shape
    n_shared = width - 7
    jac = np.zeros((n, 2, n_shared + 6 * len(maps)))
    jac[:, :, :n_shared] = rows[:, :, 6:-1]
    for j, view in enumerate(view_index):
        start = n_shared + 6 * view
        jac[j, :, start : start + 6] = rows[j, :, :6] @ maps[view]
    return jac.reshape(2 * n, -1)


def rotation_from_axis_angle(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula for one axis-angle, by the scalar formula
    ``R = I + a K + b K^2`` with ``K = [w]_x``; a series below theta = 1e-8."""
    theta = float(np.linalg.norm(w))
    K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    if theta < 1e-8:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def axis_angle_from_rotation(R: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues map of one rotation, by the scalar formula: the
    skew part gives sin(theta) times the axis, the trace cos(theta); a
    series below theta = 1e-7, and the symmetric part's largest-diagonal
    column above pi - 1e-3."""
    s = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    c = 0.5 * (np.trace(R) - 1.0)
    sin_norm = float(np.linalg.norm(s))
    theta = math.atan2(sin_norm, c)
    if theta < 1e-7:
        return s * (1.0 + theta * theta / 6.0)
    if theta > math.pi - 1e-3:
        M = (R + R.T) / 2.0 - c * np.eye(3)
        k = int(np.argmax(np.diag(M)))
        axis = M[:, k] / np.linalg.norm(M[:, k])
        if np.dot(axis, s) < 0.0:
            axis = -axis
        return theta * axis
    return s * (theta / sin_norm)


def _conditioning_transform(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    mean_dist = float(np.linalg.norm(pts - centroid, axis=1).mean())
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("points are (nearly) coincident")
    s = math.sqrt(2.0) / mean_dist
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def canonical(H: np.ndarray) -> np.ndarray:
    """H at unit Frobenius norm, with a positive bottom-right entry, or where
    that is zero a positive largest entry."""
    H = H / np.linalg.norm(H)
    anchor = H[2, 2] if H[2, 2] != 0.0 else H.flat[np.argmax(np.abs(H))]
    return -H if anchor < 0.0 else H


def homography(world_xy: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """One view's normalized DLT, canonical."""
    n = len(world_xy)
    if n < 4:
        raise DegenerateConfiguration(f"homography estimation needs at least 4 points, got {n}")
    Tw, Tp = _conditioning_transform(world_xy), _conditioning_transform(pixels)
    w = world_xy * Tw[0, 0] + Tw[:2, 2]
    p = pixels * Tp[0, 0] + Tp[:2, 2]
    design = np.zeros((2 * n, 9))
    design[0::2, 0:2] = w
    design[0::2, 2] = 1.0
    design[0::2, 6:8] = -p[:, :1] * w
    design[0::2, 8] = -p[:, 0]
    design[1::2, 3:5] = w
    design[1::2, 5] = 1.0
    design[1::2, 6:8] = -p[:, 1:2] * w
    design[1::2, 8] = -p[:, 1]
    _, sv, vt = np.linalg.svd(design, full_matrices=2 * n < 9)
    if sv[7] < 1e-10 * sv[0]:
        raise DegenerateConfiguration("design matrix is rank-deficient (collinear points?)")
    H = np.linalg.inv(Tp) @ vt[-1].reshape(3, 3) @ Tw
    if np.linalg.matrix_rank(H) < 3:
        raise DegenerateConfiguration("homography is singular (collinear pixels?)")
    return canonical(H)


def _conic_rows(H: np.ndarray) -> np.ndarray:
    def v(i: int, j: int) -> np.ndarray:
        hi, hj = H[:, i], H[:, j]
        return np.array(
            [
                hi[0] * hj[0],
                hi[0] * hj[1] + hi[1] * hj[0],
                hi[1] * hj[1],
                hi[2] * hj[0] + hi[0] * hj[2],
                hi[2] * hj[1] + hi[1] * hj[2],
                hi[2] * hj[2],
            ]
        )

    return np.vstack([v(0, 1), v(0, 0) - v(1, 1)])


def intrinsics(homographies: list[np.ndarray]):
    if len(homographies) < 3:
        raise SingularConfiguration(f"intrinsics need at least 3 views, got {len(homographies)}")
    _, sv, vt = np.linalg.svd(np.vstack([_conic_rows(H) for H in homographies]), full_matrices=False)
    if sv[4] < 1e-10 * sv[0]:
        raise SingularConfiguration(
            "conic constraints are rank-deficient (parallel planes provide the same information)"
        )
    b = vt[-1]
    B = np.array([[b[0], b[1], b[3]], [b[1], b[2], b[4]], [b[3], b[4], b[5]]])
    return intrinsics_from_conic(B)


def conic_from_intrinsics(A) -> np.ndarray:
    """The image of the absolute conic, ``B = A^-T A^-1``."""
    G = A.inverse_matrix
    return G.T @ G


def pose(H: np.ndarray, A) -> np.ndarray:
    """One view's ``[w, t]`` from its homography: scaled ``A^-1 H``, the sign
    that puts the plane in front, Procrustes, then the camera-to-world form."""
    G = A.inverse_matrix @ H
    G = G / float(np.linalg.norm(G[:, 0]))
    if G[2, 2] < 0.0:
        G = -G
    t = G[:, 2]
    Q = np.column_stack([G[:, 0], G[:, 1], np.cross(G[:, 0], G[:, 1])])
    u, _, vt = np.linalg.svd(Q)
    R = u @ np.diag([1.0, 1.0, float(np.linalg.det(u @ vt))]) @ vt
    return np.concatenate([axis_angle_from_rotation(R.T), -R.T @ t])


def linear_stage(corr):
    """The linear stage one view at a time: ``(A, poses (v, 6), dropped)``,
    where dropped holds ``(view id, reason)`` pairs.

    A view whose homography fails is dropped; fewer than three kept views
    raise DegenerateConfiguration.
    """
    kept, dropped = [], []
    for view in split_views(corr):
        try:
            kept.append(homography(view.world_xy, view.pixels))
        except DegenerateConfiguration as exc:
            dropped.append((view.view_id, str(exc)))
    if len(kept) < 3:
        raise DegenerateConfiguration(f"calibration needs at least 3 usable views, got {len(kept)}")
    A = intrinsics(kept)
    return A, np.array([pose(H, A) for H in kept]), tuple(dropped)


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def intersect_ground(n, pose) -> WorldPoint:
    """The viewing ray ``t + s R (x, y, 1)`` of n meets z = 0 at s > 0."""
    direction = pose.rotation @ np.array([n.x, n.y, 1.0])
    if abs(direction[2]) < 1e-12:
        raise RayParallelToGround("viewing ray is parallel to the ground plane")
    s = -pose.t[2] / direction[2]
    if s <= 0.0:
        raise PointBehindCamera(f"ground intersection has camera depth {s}; point is not visible")
    hit = pose.t + s * direction
    return WorldPoint(float(hit[0]), float(hit[1]), 0.0)


def camera_center(mapped: WorldPoint, recovered: WorldPoint, delta_theta: float, pose) -> np.ndarray:
    """``mapped - Rz(delta)^T (recovered - t)``."""
    return mapped.array - rot_z(delta_theta).T @ (recovered.array - pose.t)


def localize(line, observed_a, observed_b, A, spec, pose) -> LocalizationFix:
    """The ground-line fix, with the same checks in the same order."""
    n_a = undistort(spec, to_normalized(observed_a, A))
    n_b = undistort(spec, to_normalized(observed_b, A))
    if math.hypot(n_b.x - n_a.x, n_b.y - n_a.y) < 1e-12:
        raise EndpointsCoincide("undistorted observations collapse to one point")
    rec_a = intersect_ground(n_a, pose)
    rec_b = intersect_ground(n_b, pose)
    delta = recover_delta_rotation(line, rec_a, rec_b)
    t1 = camera_center(line.a, rec_a, delta, pose)
    t1_from_b = camera_center(line.b, rec_b, delta, pose)
    len_map = math.hypot(line.b.x - line.a.x, line.b.y - line.a.y)
    len_rec = math.hypot(rec_b.x - rec_a.x, rec_b.y - rec_a.y)
    return LocalizationFix(
        delta_theta=delta,
        t1=t1,
        recovered_a=rec_a,
        recovered_b=rec_b,
        length_discrepancy=abs(len_rec - len_map) / len_map,
        translation_consistency=float(np.linalg.norm(t1 - t1_from_b)),
    )


def _read_table(path, header: str, noun: str) -> tuple[list[int], list[str], np.ndarray]:
    """Line numbers and text of the rows under ``header``, and their fields
    as an (n, width) float array; ParseError names the first bad line."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", line=1)
    width = header.count(",") + 1
    linenos = [n for n, raw in enumerate(lines[1:], start=2) if raw.strip()]
    rows = [lines[n - 1] for n in linenos]
    try:
        if any(raw.count(",") != width - 1 for raw in rows):
            raise ValueError("wrong field count")
        values = np.array(",".join(rows).split(",") if rows else [], dtype=float)
    except ValueError:
        for n, raw in zip(linenos, rows):
            cells = raw.split(",")
            if len(cells) != width:
                message = f"expected {width} comma-separated fields, got {len(cells)}"
                raise ParseError(message, line=n) from None
            try:
                np.array(cells, dtype=float)
            except ValueError:
                raise ParseError(f"non-numeric {noun} in {raw!r}", line=n) from None
        raise
    return linenos, rows, values.reshape(-1, width)


def read_correspondences(path) -> list[View]:
    """``view_id,Xw,Yw,ud,vd`` rows grouped by ``int(view_id)`` in a dict,
    one View per id."""
    linenos, rows, values = _read_table(path, "view_id,Xw,Yw,ud,vd", "coordinate")
    if not rows:
        raise ParseError("file contains no correspondence rows")
    grouped: dict[int, list[int]] = {}
    for i, (n, raw) in enumerate(zip(linenos, rows)):
        field = raw.partition(",")[0]
        try:
            grouped.setdefault(int(field), []).append(i)
        except ValueError:
            raise ParseError(f"view_id {field!r} is not an integer", line=n) from None
    bad = np.flatnonzero(~np.isfinite(values[:, 1:]).all(axis=1))
    if bad.size:
        raise ParseError(f"non-finite coordinate in {rows[bad[0]]!r}", line=linenos[bad[0]])
    return [
        View(view_id=view_id, world_xy=values[idx, 1:3], pixels=values[idx, 3:5])
        for view_id, idx in grouped.items()
    ]


def read_points(path) -> np.ndarray:
    """``u,v`` rows as an (n, 2) array."""
    return _read_table(path, "u,v", "point")[2]
