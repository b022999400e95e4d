import math
import warnings
import weakref

import numpy as np
import pytest

from radialcal import calibration
from radialcal.calibration import (
    CalibrationView,
    CorrespondenceSet,
    DegenerateConfiguration,
    OptimizerOptions,
    SingularConfiguration,
    _build_result,
    _canonical_homographies,
    _forward,
    _homographies,
    _intrinsics,
    _normal_equations,
    _pack_params,
    _poses_from_homographies,
    _residuals_and_blocks,
    _schur_step,
    _unpack_params,
    calibrate,
    compare_models,
    init_distortion,
    intrinsics_from_conic,
    linear_stage,
    objective,
    objective_gradient,
    project_views,
    refine,
)
from radialcal.distortion import DistortionSpec, Model
from radialcal.geometry import (
    DepthNotPositive,
    IntrinsicMatrix,
    InvalidParameters,
    ViewExtrinsics,
    rotation_from_axis_angle,
)

import oracles
from conftest import make_scene
from oracles import (
    dense_jacobian,
    project_pinhole,
    rot_x,
    rot_y,
    rot_z,
    rotation_transpose_apply_jacobian,
)


def view_from_pose(world_xy, A, R_wc, t_wc, view_id=0):
    """Noiseless undistorted observations via the inline projection oracle."""
    world3 = np.column_stack([world_xy, np.zeros(len(world_xy))])
    pixels = project_pinhole(world3, R_wc, t_wc, A.matrix)
    return CalibrationView(view_id=view_id, world_xy=world_xy, pixels=pixels)


def ragged_scene(model=Model.MODEL3):
    """Views of 4, 9 and 16 points with ids 7, 2 and 40, plus the truth."""
    corr, truth = make_scene(44, model=model, grid_nx=4, grid_ny=4, noise_sigma=0.5)
    views = tuple(
        CalibrationView(view_id, v.world_xy[:n], v.pixels[:n])
        for view_id, n, v in zip((7, 2, 40), (4, 9, 16), corr.views)
    )
    return CorrespondenceSet(views), truth


def world3(view):
    return np.column_stack([view.world_xy, np.zeros(view.n_points)])


def one_view(A, spec, E, world, view_id=0):
    """project_views on the points of one view."""
    pose = np.concatenate([E.axis_angle, E.t])[None, :]
    return project_views(A, spec, pose, world, np.zeros(len(world), dtype=int), (view_id,))


def grid_xy(n=6, spacing=0.2):
    xs = (np.arange(n) - (n - 1) / 2) * spacing
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def homography(view):
    """The canonical homography of one view by the batched kernels, or
    DegenerateConfiguration naming why it has none."""
    H, (reason,) = _homographies(view.world_xy[None], view.pixels[None])
    if reason is not None:
        raise DegenerateConfiguration(reason)
    return _canonical_homographies(H)[0]


def oracle_homography(view):
    return oracles.homography(view.world_xy, view.pixels)


def same_error(fn, oracle, *args):
    """fn and its oracle raise the same error type with the same message."""
    with pytest.raises(ValueError) as got:
        fn(*args)
    with pytest.raises(ValueError) as want:
        oracle(*args)
    assert got.type is want.type
    assert str(got.value) == str(want.value)
    return got.value


def assert_intrinsics_close(got, want, rel):
    for name in ("alpha", "beta", "gamma", "u0", "v0"):
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= rel * max(1.0, abs(b)), name


class TestHomographies:
    def test_identity_mapping(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        H = homography(CalibrationView(0, pts, pts.copy()))
        assert np.allclose(H, np.eye(3) / math.sqrt(3.0), atol=1e-12)
        assert np.max(np.abs(H - oracles.homography(pts, pts))) <= 1e-12

    def test_matches_pose_construction(self):
        A = IntrinsicMatrix(832.5, 832.5, 0.2, 303.96, 206.59)
        R = rot_x(0.3) @ rot_y(-0.2)
        t = np.array([0.05, -0.1, 1.2])
        view = view_from_pose(grid_xy(), A, R, t)
        H = homography(view)
        expected = oracles.canonical(A.matrix @ np.column_stack([R[:, 0], R[:, 1], t]))
        assert np.max(np.abs(H - expected)) < 1e-8
        assert np.max(np.abs(H - oracles.homography(view.world_xy, view.pixels))) <= 1e-12

    def test_collinear_points_raise(self):
        world = np.column_stack([np.linspace(0, 1, 8), np.linspace(0, 2, 8)])
        view = CalibrationView(0, world, world * 100.0 + 5.0)
        error = same_error(homography, oracle_homography, view)
        assert "rank-deficient" in str(error)

    def test_collinear_pixels_raise(self):
        # The design matrix has full rank, since the points are not collinear;
        # the homography that solves it is singular. Only that view of a
        # stack gets the reason.
        pts = grid_xy()
        flat = np.column_stack([pts[:, 0], 100.0 + 0.5 * pts[:, 0]])
        _, reasons = _homographies(np.stack([pts, pts]), np.stack([pts * 50.0, flat]))
        assert reasons == [None, "homography is singular (collinear pixels?)"]
        with pytest.raises(DegenerateConfiguration, match=r"^homography is singular \(collinear pixels\?\)$"):
            oracles.homography(pts, flat)

    def test_too_few_points_raise(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        view = CalibrationView(0, pts, pts.copy())
        same_error(homography, oracle_homography, view)


class TestCanonicalHomographies:
    def test_canonical_scale(self):
        (H,) = _canonical_homographies(np.diag([2.0, 2.0, 2.0])[None])
        assert math.isclose(np.linalg.norm(H), 1.0, rel_tol=1e-15)
        assert H[2, 2] > 0

    def test_scale_and_sign_invariance(self):
        M = np.array([[1.0, 0.2, 3.0], [-0.1, 0.9, 1.0], [0.01, -0.02, 1.0]])
        H, H_scaled = _canonical_homographies(np.stack([M, -3.7 * M]))
        assert np.allclose(H, H_scaled, atol=1e-15)

    def test_stack_is_canonical_row_by_row(self):
        # A zero bottom-right entry takes the sign of the largest entry.
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 3, 3))
        stack[1, 2, 2] = 0.0
        stack[2] *= -7.0
        got = _canonical_homographies(stack)
        for row, M in zip(got, stack):
            assert np.max(np.abs(row - oracles.canonical(M))) <= 1e-15


class TestIntrinsicsFromConic:
    def test_identity_conic(self):
        A = intrinsics_from_conic(np.eye(3))
        assert (A.alpha, A.beta, A.gamma, A.u0, A.v0) == (1.0, 1.0, 0.0, 0.0, 0.0)

    def test_round_trip_random_intrinsics(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            A = IntrinsicMatrix(
                rng.uniform(200, 1500),
                rng.uniform(200, 1500),
                rng.uniform(-3, 3),
                rng.uniform(0, 600),
                rng.uniform(0, 600),
            )
            B = oracles.conic_from_intrinsics(A)
            np.linalg.cholesky(B)  # positive definite, else it raises
            scale = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert_intrinsics_close(intrinsics_from_conic(scale * B), A, 1e-9)

    def test_indefinite_conic_raises(self):
        with pytest.raises(SingularConfiguration):
            intrinsics_from_conic(np.diag([1.0, -1.0, 1.0]))


class TestIntrinsics:
    def _homographies(self, A, poses):
        views = [view_from_pose(grid_xy(), A, R, t, i) for i, (R, t) in enumerate(poses)]
        return np.array([homography(v) for v in views])

    def test_recovers_known_intrinsics(self):
        A = IntrinsicMatrix(832.5, 832.5, 0.2, 303.96, 206.59)
        poses = [
            (rot_x(0.3), np.array([0.0, 0.0, 1.2])),
            (rot_y(0.4), np.array([0.1, -0.1, 1.4])),
            (rot_x(-0.25) @ rot_y(0.2), np.array([-0.1, 0.05, 1.1])),
        ]
        H = self._homographies(A, poses)
        got = _intrinsics(H)
        assert_intrinsics_close(got, A, 1e-6)
        assert_intrinsics_close(got, oracles.intrinsics(list(H)), 1e-12)

    def test_parallel_planes_are_singular(self):
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        R = rot_x(0.3)
        poses = [(R, np.array([dx, 0.0, 1.2 + dz])) for dx, dz in ((0, 0), (0.2, 0.1), (-0.1, 0.3))]
        H = self._homographies(A, poses)
        error = same_error(lambda H: _intrinsics(H), lambda H: oracles.intrinsics(list(H)), H)
        assert isinstance(error, SingularConfiguration)

    def test_needs_three_views(self):
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        poses = [(rot_x(0.3), np.array([0.0, 0.0, 1.2])), (rot_y(0.2), np.array([0.0, 0.0, 1.3]))]
        H = self._homographies(A, poses)
        error = same_error(lambda H: _intrinsics(H), lambda H: oracles.intrinsics(list(H)), H)
        assert isinstance(error, SingularConfiguration)


def pose_of(H, A):
    """_poses_from_homographies on one homography, checked against the oracle
    to 1e-12, as ViewExtrinsics."""
    pose = _poses_from_homographies(H[None], A)[0]
    want = oracles.pose(H, A)
    assert np.max(np.abs(pose - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
    return ViewExtrinsics(pose[:3], pose[3:])


class TestPosesFromHomographies:
    def test_homography_equal_to_intrinsics(self):
        # H = A means R = I, t = e_z in the projection form.
        A = IntrinsicMatrix(832.5, 830.7, 0.2, 303.96, 206.59)
        R, t = pose_of(A.matrix, A).world_to_camera()
        assert np.max(np.abs(R - np.eye(3))) < 1e-10
        assert np.max(np.abs(t - np.array([0.0, 0.0, 1.0]))) < 1e-10

    def test_sign_flip_gives_same_pose(self):
        A = IntrinsicMatrix(832.5, 830.7, 0.2, 303.96, 206.59)
        E1, E2 = pose_of(A.matrix, A), pose_of(-A.matrix, A)
        assert np.allclose(E1.rotation, E2.rotation, atol=1e-14)
        assert np.allclose(E1.t, E2.t, atol=1e-14)

    def test_noiseless_recovery(self):
        A = IntrinsicMatrix(800.0, 790.0, 0.3, 310.0, 230.0)
        R = rot_x(0.35) @ rot_y(-0.15)
        t = np.array([0.12, -0.07, 1.3])
        E = pose_of(homography(view_from_pose(grid_xy(), A, R, t)), A)
        R_got, t_got = E.world_to_camera()
        assert np.max(np.abs(R_got - R)) < 1e-8
        assert np.max(np.abs(t_got - t)) < 1e-8

    def test_noisy_estimate_is_still_a_rotation(self):
        rng = np.random.default_rng(12)
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        R = rot_x(0.4)
        t = np.array([0.0, 0.1, 1.2])
        view = view_from_pose(grid_xy(8), A, R, t)
        noisy = CalibrationView(0, view.world_xy, view.pixels + rng.normal(0, 0.5, view.pixels.shape))
        R_got, _ = pose_of(homography(noisy), A).world_to_camera()
        assert np.max(np.abs(R_got.T @ R_got - np.eye(3))) < 1e-12
        # rotation error stays small for half-pixel noise on a 64-point grid
        angle = math.acos(min(1.0, (np.trace(R_got.T @ R) - 1.0) / 2.0))
        assert angle < 0.05


def linear_scene():
    """Views of 4, 9 and 64 points (ids 7, 2, 40), plus a collinear view (31),
    one whose pixels coincide (5), one of two points (11) and one whose
    pixels lie on a line though its points do not (23)."""
    corr, _ = make_scene(46, grid_nx=8, grid_ny=8, noise_sigma=0.5, n_views=6)
    v = corr.views
    corners = [0, 7, 56, 63]
    sub_grid = [ix * 8 + iy for ix in (0, 3, 7) for iy in (0, 3, 7)]
    row = [ix * 8 + 2 for ix in range(8)]
    views = (
        CalibrationView(7, v[0].world_xy[corners], v[0].pixels[corners]),
        CalibrationView(2, v[1].world_xy[sub_grid], v[1].pixels[sub_grid]),
        CalibrationView(31, v[2].world_xy[row], v[2].pixels[row]),
        CalibrationView(40, v[3].world_xy, v[3].pixels),
        CalibrationView(5, v[4].world_xy, np.tile(v[4].pixels[:1], (64, 1))),
        CalibrationView(11, v[5].world_xy[:2], v[5].pixels[:2]),
        CalibrationView(23, v[5].world_xy, np.column_stack([v[5].pixels[:, 0], 100.0 + 0.5 * v[5].pixels[:, 0]])),
    )
    return CorrespondenceSet(views)


def warned(fn, *args):
    """fn's result (or the error it raised) and the text of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValueError as exc:
            out = exc
    return out, [str(w.message) for w in caught]


class TestLinearStage:
    def test_matches_the_per_view_stage(self):
        corr = linear_scene()
        stage, messages = warned(linear_stage, corr)
        (A, poses, dropped), want_messages = warned(oracles.linear_stage, corr)
        assert messages == want_messages
        assert messages == [
            "dropping view 31: design matrix is rank-deficient (collinear points?)",
            "dropping view 5: points are (nearly) coincident",
            "dropping view 11: homography estimation needs at least 4 points, got 2",
            "dropping view 23: homography is singular (collinear pixels?)",
        ]
        assert stage.dropped == dropped
        assert [f"dropping view {i}: {reason}" for i, reason in stage.dropped] == messages
        assert stage.corr.view_ids == (7, 2, 40)
        assert stage.poses.shape == poses.shape == (3, 6)
        got = _pack_params(stage.intrinsics, DistortionSpec(Model.MODEL2, 0.0), stage.poses)
        want = _pack_params(A, DistortionSpec(Model.MODEL2, 0.0), poses)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_raises_the_per_view_stage_errors(self):
        corr = linear_scene()
        too_few = CorrespondenceSet(corr.views[:1] + corr.views[2:])
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        parallel = CorrespondenceSet(
            tuple(
                view_from_pose(grid_xy(), A, rot_x(0.3), np.array([dx, 0.0, 1.2 + dz]), i)
                for i, (dx, dz) in enumerate(((0, 0), (0.2, 0.1), (-0.1, 0.3)))
            )
        )
        for scene, error in ((too_few, DegenerateConfiguration), (parallel, SingularConfiguration)):
            (got, messages), (want, want_messages) = warned(linear_stage, scene), warned(oracles.linear_stage, scene)
            assert type(got) is type(want) is error
            assert str(got) == str(want)
            assert messages == want_messages


class TestInitDistortion:
    def _scene(self, model, k1, k2, seed=21):
        return make_scene(seed, model=model, k1=k1, k2=k2)

    def test_zero_distortion_gives_zero_coefficients(self):
        corr, truth = self._scene(Model.MODEL3, 0.0, 0.0)
        spec = init_distortion(corr, truth.intrinsics, truth.extrinsics, Model.MODEL3)
        assert abs(spec.k1) <= 1e-8 and abs(spec.k2) <= 1e-8

    @pytest.mark.parametrize(
        "model,k1,k2",
        [
            (Model.MODEL3, -0.12, -0.14),
            (Model.MODEL1, -0.3435, 0.1232),
            (Model.MODEL2, -0.2, 0.0),
        ],
    )
    def test_exact_recovery_from_true_linear_stage(self, model, k1, k2):
        corr, truth = self._scene(model, k1, k2)
        spec = init_distortion(corr, truth.intrinsics, truth.extrinsics, model)
        assert abs(spec.k1 - k1) <= 1e-6
        assert abs(spec.k2 - k2) <= 1e-6


class TestProjectViews:
    @pytest.mark.parametrize(
        "model,k1,k2",
        [
            (Model.MODEL1, -0.3435, 0.1232),
            (Model.MODEL2, -0.2, 0.0),
            (Model.MODEL3, -0.12, -0.14),
        ],
    )
    def test_matches_independent_projection(self, model, k1, k2):
        # Oracle: the inline pinhole u ~ K (R P + t) with K = I gives the
        # normalized point; the warp and the intrinsic rows are written out.
        rng = np.random.default_rng(41)
        R = rot_x(0.3) @ rot_y(-0.2) @ rot_z(0.4)
        t = np.array([0.05, -0.08, 1.3])
        world = np.column_stack([rng.uniform(-0.5, 0.5, (200, 2)), rng.uniform(-0.1, 0.1, 200)])
        xy = project_pinhole(world, R, t, np.eye(3))
        r = np.hypot(xy[:, 0], xy[:, 1])
        f = {
            Model.MODEL1: 1.0 + k1 * r**2 + k2 * r**4,
            Model.MODEL2: 1.0 + k1 * r**2,
            Model.MODEL3: 1.0 + k1 * r + k2 * r**2,
        }[model]
        xd, yd = xy[:, 0] * f, xy[:, 1] * f
        A = IntrinsicMatrix(832.5, 830.7, 0.21, 303.96, 206.59)
        expected = np.column_stack([A.alpha * xd + A.gamma * yd + A.u0, A.beta * yd + A.v0])

        E = ViewExtrinsics.from_world_to_camera(R, t)
        got = one_view(A, DistortionSpec(model, k1, k2), E, world).pixels
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_pinhole_step_matches_convention(self):
        # P_c = R^-1 (P_w - t) with R the stored rotation, then divide by depth.
        E = ViewExtrinsics(np.array([0.3, -0.2, 2.5]), np.array([1.0, 2.0, -3.0]))
        P = np.array([[0.4, -0.6, 0.2], [-1.5, 0.7, 0.0]])
        pc = (P - E.t) @ E.rotation
        assert np.all(pc[:, 2] > 0.0)
        expected = pc[:, :2] / pc[:, 2:]
        s = one_view(IntrinsicMatrix(1.0, 1.0, 0.0, 0.0, 0.0), DistortionSpec(Model.MODEL3, 0.0), E, P)
        assert np.max(np.abs(s.xy - expected)) <= 1e-15

    def test_requires_positive_depth(self):
        # Camera at z = 0.5 looking along +z: z = 0.5 is on the camera plane,
        # z = 0 behind it, z = 1 in front.
        E = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, 0.5]))
        A, spec = IntrinsicMatrix(1.0, 1.0, 0.0, 0.0, 0.0), DistortionSpec(Model.MODEL3, 0.0)
        assert one_view(A, spec, E, np.array([[0.0, 0.0, 1.0]])).xy.tolist() == [[0.0, 0.0]]
        for z in (0.5, 0.0):
            with pytest.raises(DepthNotPositive, match="^view 9 has a point at camera depth"):
                one_view(A, spec, E, np.array([[0.0, 0.0, 1.0], [0.1, 0.2, z]]), view_id=9)

    def test_rejects_non_finite_poses(self):
        A, spec = IntrinsicMatrix(1.0, 1.0, 0.0, 0.0, 0.0), DistortionSpec(Model.MODEL3, 0.0)
        pose = np.array([[0.0, 0.0, math.nan, 0.0, 0.0, -1.0]])
        with pytest.raises(InvalidParameters, match="poses must be finite"):
            project_views(A, spec, pose, np.zeros((1, 3)), np.zeros(1, dtype=int), (0,))

    @pytest.mark.parametrize("model", list(Model))
    def test_noiseless_scene_is_the_kernel_at_its_truth(self, model):
        # Synthesis runs the kernel that calibration fits: at the generating
        # parameters the predictions are the observations, bit for bit.
        for seed in range(5):
            corr, truth = make_scene(seed, model=model, k1=-0.2, k2=0.05, n_views=6)
            A, spec, extrinsics = truth.intrinsics, truth.distortion, truth.extrinsics
            predicted = _forward(_pack_params(A, spec, extrinsics), corr, model).pixels
            assert np.array_equal(predicted, corr.pixels)
            assert objective(corr, A, spec, extrinsics) == 0.0


class TestObjective:
    def test_zero_on_perfect_data(self):
        corr, truth = make_scene(31)
        J = objective(corr, truth.intrinsics, truth.distortion, truth.extrinsics)
        assert J <= 1e-18

    def test_single_perturbed_observation(self):
        corr, truth = make_scene(32)
        pixels = corr.views[0].pixels.copy()
        pixels[10] += (3.0, 4.0)
        views = (CalibrationView(0, corr.views[0].world_xy, pixels),) + corr.views[1:]
        J = objective(CorrespondenceSet(views), truth.intrinsics, truth.distortion, truth.extrinsics)
        assert abs(J - 25.0) <= 1e-9

    def test_residuals_add(self):
        corr, truth = make_scene(33)
        pixels0 = corr.views[0].pixels.copy()
        pixels0[3] += (3.0, 4.0)
        pixels1 = corr.views[1].pixels.copy()
        pixels1[7] += (6.0, 8.0)
        views = (
            CalibrationView(0, corr.views[0].world_xy, pixels0),
            CalibrationView(1, corr.views[1].world_xy, pixels1),
        ) + corr.views[2:]
        J = objective(CorrespondenceSet(views), truth.intrinsics, truth.distortion, truth.extrinsics)
        assert abs(J - 125.0) <= 1e-9

    def test_ragged_views_match_per_view_projection(self):
        corr, truth = ragged_scene()
        A, spec = truth.intrinsics, truth.distortion
        per_view = [
            one_view(A, spec, E, world3(v)).pixels - v.pixels
            for v, E in zip(corr.views, truth.extrinsics)
        ]
        want = sum(float(np.sum(d * d)) for d in per_view)
        assert abs(objective(corr, A, spec, truth.extrinsics) - want) <= 1e-12 * want
        result = _build_result(corr, A, spec, truth.extrinsics)
        assert result.view_ids == (7, 2, 40)
        assert [len(r) for r in result.per_point_residuals] == [4, 9, 16]
        for got, d in zip(result.per_point_residuals, per_view):
            assert np.allclose(got, np.linalg.norm(d, axis=1), rtol=1e-12, atol=1e-12)

    def test_depth_error_names_the_view_of_the_deepest_point_behind(self):
        # Views 2 and 40 are moved past the target along their optical
        # axes, view 40 furthest: its points have the smallest depths.
        corr, truth = ragged_scene()
        extrinsics = list(truth.extrinsics)
        for k, margin in ((1, 0.1), (2, 5.0)):
            E = extrinsics[k]
            axis = E.rotation[:, 2]
            depth = (world3(corr.views[k]) - E.t) @ axis
            extrinsics[k] = ViewExtrinsics(E.axis_angle, E.t + (depth.max() + margin) * axis)
        A, spec = truth.intrinsics, truth.distortion
        theta = _pack_params(A, spec, extrinsics)
        with pytest.raises(DepthNotPositive, match="^view 40 has a point at camera depth -5"):
            objective(corr, A, spec, extrinsics)
        with pytest.raises(DepthNotPositive, match="^view 40 has a point at camera depth -5"):
            _residuals_and_blocks(theta, corr, spec.model)
        with pytest.raises(DepthNotPositive, match="^view 40 "):
            init_distortion(corr, A, extrinsics, spec.model)

    def test_extrinsics_count_mismatch(self):
        corr, truth = make_scene(34)
        with pytest.raises(ValueError):
            objective(corr, truth.intrinsics, truth.distortion, truth.extrinsics[:-1])


class TestDerivatives:
    def test_rotation_point_jacobian_matches_finite_differences(self):
        # Scales on both sides of the series switch at theta = 1e-4, and near
        # pi, where downward-looking robot cameras sit.
        rng = np.random.default_rng(41)
        scales = (1e-9, 1e-5, 9.9e-5, 1.01e-4, 0.1, 1.0, 2.5, math.pi - 1e-3, math.pi - 1e-6)
        for theta_scale in scales:
            w = rng.normal(size=3)
            w *= theta_scale / np.linalg.norm(w)
            d = rng.normal(size=(5, 3))
            v, dv_dw = rotation_transpose_apply_jacobian(w, d)
            assert np.max(np.abs(v - d @ rotation_from_axis_angle(w))) < 1e-14
            h = 1e-7
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                vp, _ = rotation_transpose_apply_jacobian(w + e, d)
                vm, _ = rotation_transpose_apply_jacobian(w - e, d)
                fd = (vp - vm) / (2 * h)
                assert np.max(np.abs(dv_dw[:, :, k] - fd)) < 1e-6

    def test_residual_jacobian_matches_finite_differences(self):
        # The ragged views (4, 9 and 16 points, ids 7, 2, 40) catch row and
        # column offsets that equal-sized views numbered 0..V-1 would hide.
        for corr, truth in (make_scene(42, grid_nx=4, grid_ny=4), ragged_scene()):
            model = truth.distortion.model
            theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
            rng = np.random.default_rng(0)
            theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))

            columns, maps = _residuals_and_blocks(theta, corr, model)
            assert columns.shape == (6 + 5 + len(truth.distortion.coefficients) + 1, corr.n_points, 2)
            assert maps.shape == (corr.n_views, 6, 6)
            # Every column, the zero ones of the other views' poses included.
            jac = dense_jacobian(columns, maps, corr.view_index)
            assert jac.shape == (2 * corr.n_points, theta.size)
            h = 1e-6
            for k in range(theta.size):
                e = np.zeros(theta.size)
                e[k] = h * max(1.0, abs(theta[k]))
                rp = _residuals_and_blocks(theta + e, corr, model)[0][-1]
                rm = _residuals_and_blocks(theta - e, corr, model)[0][-1]
                fd = (rp - rm).ravel() / (2 * e[k])
                denom = max(1.0, float(np.max(np.abs(fd))))
                assert np.max(np.abs(jac[:, k] - fd)) / denom < 1e-5

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("scene", ["ragged", "five_views"])
    def test_schur_step_matches_dense_solve(self, scene, model):
        # One damped step from the blocks, against the dense normal
        # equations of the scattered Jacobian, at damping from far below to
        # far above the largest diagonal entry.
        if scene == "ragged":
            corr, truth = ragged_scene(model)
        else:
            corr, truth = make_scene(45, model=model, k1=-0.15, k2=-0.05, n_views=5, grid_nx=5, grid_ny=5)
        theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
        rng = np.random.default_rng(2)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        columns, maps = _residuals_and_blocks(theta, corr, model)
        ne = _normal_equations(columns, maps, corr.offsets)
        jac = dense_jacobian(columns, maps, corr.view_index)
        hess, grad = jac.T @ jac, jac.T @ columns[-1].ravel()
        assert np.linalg.norm(ne.grad - grad) <= 1e-12 * np.linalg.norm(grad)
        dmax = float(hess.diagonal().max())
        for factor in (1e-6, 1e-3, 1.0, 1e3):
            mu = factor * dmax
            want = np.linalg.solve(hess + mu * np.eye(theta.size), -grad)
            got = _schur_step(ne, mu)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), factor

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("scene", ["ragged", "empty_view"])
    def test_normal_equations_match_dense(self, scene, model):
        # U, every W_k^T and V_k, and J^T r from the per-view Gram products,
        # against J^T J and J^T r of the scattered dense Jacobian. A view
        # without points must come out exactly zero.
        corr, truth = ragged_scene(model)
        extrinsics = truth.extrinsics
        if scene == "empty_view":
            empty = CalibrationView(9, np.empty((0, 2)), np.empty((0, 2)))
            corr = CorrespondenceSet(corr.views[:1] + (empty,) + corr.views[1:])
            extrinsics = extrinsics[:1] + extrinsics
        theta = _pack_params(truth.intrinsics, truth.distortion, extrinsics)
        rng = np.random.default_rng(3)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        columns, maps = _residuals_and_blocks(theta, corr, model)
        ne = _normal_equations(columns, maps, corr.offsets)
        jac = dense_jacobian(columns, maps, corr.view_index)
        hess, grad = jac.T @ jac, jac.T @ columns[-1].ravel()
        p = ne.u.shape[0]
        blocks = [(ne.u, hess[:p, :p]), (ne.grad, grad)]
        for k in range(corr.n_views):
            cols = slice(p + 6 * k, p + 6 * k + 6)
            blocks += [(ne.wt[k], hess[cols, :p]), (ne.v[k], hess[cols, cols])]
        for got, want in blocks:
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_objective_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        models = [Model.MODEL1, Model.MODEL2, Model.MODEL3]
        for trial in range(20):
            model = models[trial % 3]
            corr, truth = make_scene(100 + trial, model=model, k1=-0.15, k2=-0.05, grid_nx=4, grid_ny=4)
            theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
            theta = theta + rng.normal(0, 2e-3, theta.size) * np.maximum(1.0, np.abs(theta))
            A, spec, extrinsics = _unpack_params(theta, model, corr.n_views)

            grad = objective_gradient(corr, A, spec, extrinsics)
            h = 1e-6
            fd = np.zeros_like(theta)
            for k in range(theta.size):
                e = np.zeros(theta.size)
                e[k] = h
                Ap, sp, ep = _unpack_params(theta + e, model, corr.n_views)
                Am, sm, em = _unpack_params(theta - e, model, corr.n_views)
                fd[k] = (objective(corr, Ap, sp, ep) - objective(corr, Am, sm, em)) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


class TestRefine:
    def test_immediate_convergence_at_ground_truth(self):
        corr, truth = make_scene(51)
        init = _build_result(corr, truth.intrinsics, truth.distortion, truth.extrinsics)
        result = refine(corr, init)
        assert result.converged
        assert result.j_final <= 1e-12
        assert result.j_final <= init.j_final

    def test_never_increases_objective(self):
        corr, _ = make_scene(52, noise_sigma=1.0)
        result = calibrate(corr, Model.MODEL3)
        assert result.j_final <= result.j_init

    def test_full_noiseless_pipeline_recovers_truth(self):
        corr, truth = make_scene(53, k1=-0.12, k2=-0.14)
        result = calibrate(corr, Model.MODEL3)
        A, A0 = result.intrinsics, truth.intrinsics
        assert result.j_final <= 1e-6
        assert abs(A.alpha - A0.alpha) <= 1e-3 * A0.alpha
        assert abs(A.beta - A0.beta) <= 1e-3 * A0.beta
        assert abs(A.u0 - A0.u0) <= 0.1
        assert abs(A.v0 - A0.v0) <= 0.1
        assert abs(result.distortion.k1 - truth.distortion.k1) <= 1e-3
        assert abs(result.distortion.k2 - truth.distortion.k2) <= 1e-3
        for E_got, E_true in zip(result.extrinsics, truth.extrinsics):
            assert np.max(np.abs(E_got.axis_angle - E_true.axis_angle)) <= 1e-4
            assert np.max(np.abs(E_got.t - E_true.t)) <= 1e-3

    def test_reported_objective_matches_recomputation(self):
        corr, _ = make_scene(54, noise_sigma=0.4)
        result = calibrate(corr, Model.MODEL1)
        J = objective(corr, result.intrinsics, result.distortion, result.extrinsics)
        assert abs(J - result.j_final) <= 1e-9 * max(1.0, J)
        assert math.isclose(
            result.rms_px, math.sqrt(J / corr.n_points), rel_tol=1e-12
        )

    def test_lm_holds_one_jacobian_at_a_time(self):
        # No evaluation may start while the LM still holds the Jacobian
        # blocks of an earlier one.
        corr, truth = make_scene(57, noise_sigma=0.5)
        theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
        rng = np.random.default_rng(1)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        held = []

        def evaluate(th):
            assert all(ref() is None for ref in held)
            columns, maps = _residuals_and_blocks(th, corr, truth.distortion.model)
            held.extend((weakref.ref(columns), weakref.ref(maps)))
            return columns, maps

        calibration._levenberg_marquardt(evaluate, theta, OptimizerOptions(), corr.offsets)
        assert len(held) >= 3

    def test_refine_reports_the_lm_evaluations(self, monkeypatch):
        # J_init and the final residuals come from the LM's own evaluations,
        # bit for bit what a separate forward pass gives.
        corr, truth = make_scene(57, noise_sigma=0.5)
        model = truth.distortion.model
        theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
        rng = np.random.default_rng(1)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        init = _build_result(corr, *_unpack_params(theta, model, corr.n_views))
        counts = {"_forward": 0, "_residuals_and_blocks": 0}
        for name in counts:
            def counting(*args, _fn=getattr(calibration, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(calibration, name, counting)
        fit = refine(corr, init)
        # Every forward pass is one of the LM's evaluations.
        assert counts["_forward"] == counts["_residuals_and_blocks"] >= 3
        monkeypatch.undo()
        again = _build_result(corr, fit.intrinsics, fit.distortion, fit.poses)
        assert fit.j_init == init.j_final
        assert (fit.j_final, fit.rms_px) == (again.j_final, again.rms_px)
        for got, want in zip(fit.per_point_residuals, again.per_point_residuals, strict=True):
            assert np.array_equal(got, want) and not got.flags.writeable

    def test_refine_writes_every_evaluation_into_one_workspace(self, monkeypatch):
        corr, truth = make_scene(57, noise_sigma=0.5)
        model = truth.distortion.model
        theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
        rng = np.random.default_rng(1)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        init = _build_result(corr, *_unpack_params(theta, model, corr.n_views))
        returned = []
        evaluate = calibration._residuals_and_blocks

        def recording(*args):
            # Holding every result keeps a fresh allocation from landing
            # on a freed one's address.
            returned.append(evaluate(*args))
            return returned[-1]

        monkeypatch.setattr(calibration, "_residuals_and_blocks", recording)
        fit = refine(corr, init)
        assert len(returned) >= 3
        for columns, maps in returned:
            assert columns.ctypes.data == returned[0][0].ctypes.data
            assert maps.ctypes.data == returned[0][1].ctypes.data
        # Bit for bit the fit of an evaluation that allocates afresh.
        lm = calibration._levenberg_marquardt(
            lambda th: evaluate(th, corr, model), theta, OptimizerOptions(), corr.offsets
        )
        assert np.array_equal(_pack_params(fit.intrinsics, fit.distortion, fit.poses), lm.x)
        assert (fit.n_iterations, fit.converged, fit.stop_reason) == (lm.n_iterations, lm.converged, lm.reason)

    @pytest.mark.parametrize(
        "error,rejected", [(InvalidParameters, True), (DepthNotPositive, True), (ValueError, False)]
    )
    def test_lm_rejects_a_trial_only_on_a_domain_error(self, error, rejected):
        # A trial point out of the parameters' domain or behind a camera is
        # rejected and the step shrinks; any other error is a fault and
        # propagates.
        corr, truth = make_scene(57, noise_sigma=0.5)
        theta = _pack_params(truth.intrinsics, truth.distortion, truth.extrinsics)
        rng = np.random.default_rng(1)
        theta = theta + rng.normal(0, 1e-3, theta.size) * np.maximum(1.0, np.abs(theta))
        calls = []

        def evaluate(th):
            calls.append(th)
            if len(calls) == 2:
                raise error("trial point refused")
            return _residuals_and_blocks(th, corr, truth.distortion.model)

        if rejected:
            lm = calibration._levenberg_marquardt(evaluate, theta, OptimizerOptions(), corr.offsets)
            assert lm.converged and lm.n_fev == len(calls) > 3
        else:
            with pytest.raises(ValueError, match="trial point refused"):
                calibration._levenberg_marquardt(evaluate, theta, OptimizerOptions(), corr.offsets)

    def test_view_without_points_is_left_alone(self):
        # A view without points has a zero Gram product: it must neither
        # move nor disturb the others.
        corr, truth = make_scene(57, noise_sigma=0.5)
        empty = CalibrationView(9, np.empty((0, 2)), np.empty((0, 2)))
        padded = CorrespondenceSet(corr.views[:1] + (empty,) + corr.views[1:])
        fits = [
            refine(c, _build_result(c, truth.intrinsics, truth.distortion, extrinsics))
            for c, extrinsics in ((corr, truth.extrinsics), (padded, truth.extrinsics[:1] + truth.extrinsics))
        ]
        assert fits[1].n_iterations == fits[0].n_iterations
        assert np.array_equal(fits[1].extrinsics[1].axis_angle, truth.extrinsics[0].axis_angle)
        assert np.array_equal(fits[1].extrinsics[1].t, truth.extrinsics[0].t)
        want = _pack_params(fits[0].intrinsics, fits[0].distortion, fits[0].extrinsics)
        got = _pack_params(fits[1].intrinsics, fits[1].distortion, fits[1].extrinsics[:1] + fits[1].extrinsics[2:])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_iteration_cap_flags_not_converged(self):
        corr, _ = make_scene(55, noise_sigma=0.5)
        opts = OptimizerOptions(tol_x=1e-14, tol_fun=1e-14, max_iter=2, max_fun_evals=8000)
        result = calibrate(corr, Model.MODEL3, opts)
        assert not result.converged
        assert result.j_final <= result.j_init

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tol_x", math.nan),
            ("tol_fun", math.nan),
            ("tol_x", math.inf),
            ("tol_fun", math.inf),
            ("tol_fun", 0.0),
            ("max_iter", 0),
            ("max_fun_evals", -3),
        ],
    )
    def test_options_reject_settings_that_cannot_stop_lm(self, field, value):
        # tol_fun = inf would stop a 5-view session after one iteration,
        # reported as converged, at about 60 times a full run's objective.
        with pytest.raises(ValueError, match="must be"):
            OptimizerOptions(**{field: value})


class TestPipelinePolicies:
    def _with_collinear_view(self, n_good):
        corr, _ = make_scene(61, n_views=n_good)
        bad_world = np.column_stack([np.linspace(-0.5, 0.5, 10), np.zeros(10)])
        bad = CalibrationView(99, bad_world, bad_world * 400 + 300)
        return CorrespondenceSet(corr.views + (bad,))

    def test_degenerate_view_dropped_with_warning(self):
        corr = self._with_collinear_view(3)
        with pytest.warns(RuntimeWarning, match="dropping view 99"):
            result = calibrate(corr, Model.MODEL3)
        assert result.view_ids == (0, 1, 2)
        assert result.j_final <= 1e-6

    def test_too_many_degenerate_views_abort(self):
        corr = self._with_collinear_view(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DegenerateConfiguration, match="3"):
                calibrate(corr, Model.MODEL3)


class TestCompareModels:
    def test_zero_distortion_ties_all_models(self):
        corr, _ = make_scene(71, k1=0.0, k2=0.0)
        report = compare_models(corr)
        js = [e.result.j_final for e in report.entries]
        assert max(js) - min(js) <= 1e-6

    def test_report_schema(self):
        corr, _ = make_scene(72)
        report = compare_models(corr)
        assert [e.model for e in report.entries] == [Model.MODEL1, Model.MODEL2, Model.MODEL3]
        for entry in report.entries:
            assert entry.error is None
            assert entry.result is not None
            assert len(entry.init_coefficients) == (1 if entry.model is Model.MODEL2 else 2)

    def test_ordering_on_even_model_data(self):
        # Data generated under the two-term even model: the odd low-order
        # model comes close (same parameter count) while the single-term
        # model lags well behind.
        corr, _ = make_scene(73, model=Model.MODEL1, k1=-0.3435, k2=0.1232, noise_sigma=0.3)
        report = compare_models(corr)
        j1 = report.entry(Model.MODEL1).result.j_final
        j2 = report.entry(Model.MODEL2).result.j_final
        j3 = report.entry(Model.MODEL3).result.j_final
        assert j1 <= j3 <= j2
        assert (j3 - j1) <= 0.5 * (j2 - j1)

    def test_library_error_reported_inline(self, monkeypatch):
        corr, _ = make_scene(72)
        real_refine = calibration.refine

        def refine(corr, init, opts):
            if init.distortion.model is Model.MODEL2:
                raise SingularConfiguration("normal equations are singular")
            return real_refine(corr, init, opts)

        monkeypatch.setattr(calibration, "refine", refine)
        report = compare_models(corr)
        entry = report.entry(Model.MODEL2)
        assert entry.result is None
        assert entry.error == "SingularConfiguration: normal equations are singular"
        assert report.entry(Model.MODEL1).result is not None
        assert report.entry(Model.MODEL3).result is not None

    def test_programming_error_propagates(self, monkeypatch):
        # Only the library's ValueError family is reported inline; a bug in
        # the code surfaces instead of becoming a table cell.
        def refine(corr, init, opts):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(calibration, "refine", refine)
        corr, _ = make_scene(72)
        with pytest.raises(TypeError, match="unsupported operand"):
            compare_models(corr)
