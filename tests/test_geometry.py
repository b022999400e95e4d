import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialcal.calibration import project
from radialcal.geometry import (
    DepthNotPositive,
    IntrinsicMatrix,
    InvalidParameters,
    NormalizedPoint,
    NotARotation,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    axis_angles_from_rotations,
    rotation_from_axis_angle,
    to_normalized,
    to_normalized_array,
    to_pixel,
    to_pixel_array,
)
import oracles
from oracles import rot_x

intrinsics_st = st.builds(
    IntrinsicMatrix,
    alpha=st.floats(100.0, 1000.0),
    beta=st.floats(100.0, 1000.0),
    gamma=st.floats(-2.0, 2.0),
    u0=st.floats(-300.0, 600.0),
    v0=st.floats(-300.0, 600.0),
)


class TestIntrinsicMatrix:
    def test_rejects_nonpositive_focal_scales(self):
        with pytest.raises(InvalidParameters):
            IntrinsicMatrix(0.0, 800.0, 0.0, 320.0, 240.0)
        with pytest.raises(InvalidParameters):
            IntrinsicMatrix(800.0, -1.0, 0.0, 320.0, 240.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameters):
            IntrinsicMatrix(800.0, 800.0, math.nan, 320.0, 240.0)

    @given(intrinsics_st)
    def test_explicit_inverse_matches_matrix_inverse(self, A):
        assert np.max(np.abs(A.matrix @ A.inverse_matrix - np.eye(3))) < 1e-12


class TestProject:
    def test_optical_axis_point_maps_to_principal_point(self):
        # Camera at z = -1 looking along +z; the world origin sits on the axis.
        E = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        A = IntrinsicMatrix(1.0, 1.0, 0.0, 5.0, 7.0)
        p = project(WorldPoint(0.0, 0.0, 0.0), E, A)
        assert (p.u, p.v) == (5.0, 7.0)

    def test_unit_depth_ground_point(self):
        E = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        A = IntrinsicMatrix(1.0, 1.0, 0.0, 0.0, 0.0)
        p = project(WorldPoint(0.2, 0.3, 0.0), E, A)
        assert math.isclose(p.u, 0.2, abs_tol=1e-15)
        assert math.isclose(p.v, 0.3, abs_tol=1e-15)

    def test_tilted_view_matches_hand_computation(self):
        # Independent oracle: apply P_c = R^-1 (P - t) with plain numpy, then
        # divide by depth and apply the intrinsic rows.
        R = rot_x(math.pi)
        t = np.array([0.0, 0.0, 1.0])
        P = np.array([0.1, 0.0, 0.0])
        pc = R.T @ (P - t)
        assert pc[2] > 0
        x, y = pc[0] / pc[2], pc[1] / pc[2]
        A = IntrinsicMatrix(832.5, 832.5, 0.0, 303.96, 206.59)
        expected_u = A.alpha * x + A.u0
        expected_v = A.beta * y + A.v0

        E = ViewExtrinsics.from_rotation(R, t)
        p = project(WorldPoint(0.1, 0.0, 0.0), E, A)
        assert math.isclose(p.u, expected_u, abs_tol=1e-9)
        assert math.isclose(p.v, expected_v, abs_tol=1e-9)
        # Frozen values from the same arithmetic done by hand.
        assert math.isclose(p.u, 387.21, abs_tol=1e-9)
        assert math.isclose(p.v, 206.59, abs_tol=1e-9)

    def test_point_behind_camera_raises(self):
        E = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DepthNotPositive):
            project(WorldPoint(0.0, 0.0, 0.0), E, IntrinsicMatrix(1, 1, 0, 0, 0))

    def test_projection_is_scale_free_along_the_ray(self):
        # Every point on the viewing ray t + s * R d projects to the same pixel.
        rng = np.random.default_rng(5)
        E = ViewExtrinsics(np.array([0.1, -0.2, 0.3]), np.array([0.2, 0.1, -1.5]))
        A = IntrinsicMatrix(700.0, 750.0, 0.4, 300.0, 200.0)
        d = np.array([0.2, -0.1, 1.0])
        pixels = []
        for s in rng.uniform(0.2, 5.0, size=10):
            P = E.t + s * (E.rotation @ d)
            p = project(WorldPoint(*P), E, A)
            pixels.append((p.u, p.v))
        pixels = np.asarray(pixels)
        assert np.max(np.abs(pixels - pixels[0])) < 1e-9


class TestPixelNormalizedMaps:
    def test_principal_point_maps_to_origin(self):
        A = IntrinsicMatrix(321.0, 543.0, -0.7, 150.0, 120.0)
        n = to_normalized(PixelPoint(150.0, 120.0), A)
        assert n.x == 0.0 and n.y == 0.0

    def test_back_substitution_case(self):
        # Oracle: solve A [x, y, 1]^T = [13, 28, 1]^T directly.
        A = IntrinsicMatrix(2.0, 4.0, 1.0, 10.0, 20.0)
        sol = np.linalg.solve(A.matrix, np.array([13.0, 28.0, 1.0]))
        assert np.allclose(sol[:2], [0.5, 2.0], atol=1e-14)
        n = to_normalized(PixelPoint(13.0, 28.0), A)
        assert math.isclose(n.x, 0.5, abs_tol=1e-14)
        assert math.isclose(n.y, 2.0, abs_tol=1e-14)

    def test_to_pixel_origin_and_diagonal(self):
        assert to_pixel(NormalizedPoint(0, 0), IntrinsicMatrix(3, 4, 1, 11, 22)) == PixelPoint(11.0, 22.0)
        p = to_pixel(NormalizedPoint(1, 1), IntrinsicMatrix(100, 200, 0, 0, 0))
        assert (p.u, p.v) == (100.0, 200.0)

    def test_to_pixel_inverse_of_back_substitution_case(self):
        p = to_pixel(NormalizedPoint(0.5, 2.0), IntrinsicMatrix(2, 4, 1, 10, 20))
        assert (p.u, p.v) == (13.0, 28.0)

    def test_round_trip_normalized_random(self):
        rng = np.random.default_rng(17)
        A = IntrinsicMatrix(832.5, 830.7, 0.21, 303.96, 206.59)
        for _ in range(1000):
            n = NormalizedPoint(*rng.uniform(-2.0, 2.0, size=2))
            back = to_normalized(to_pixel(n, A), A)
            assert abs(back.x - n.x) <= 1e-12
            assert abs(back.y - n.y) <= 1e-12

    def test_array_maps_equal_scalar_maps(self):
        # Same arithmetic per element, so the results are bit-identical.
        rng = np.random.default_rng(18)
        A = IntrinsicMatrix(832.5, 830.7, 0.21, 303.96, 206.59)
        uv = rng.uniform(-200.0, 900.0, (500, 2))
        xy = to_normalized_array(uv, A)
        normalized = [to_normalized(PixelPoint(u, v), A) for u, v in uv]
        assert xy.tolist() == [[n.x, n.y] for n in normalized]
        pixels = [to_pixel(NormalizedPoint(x, y), A) for x, y in xy]
        assert to_pixel_array(xy, A).tolist() == [[p.u, p.v] for p in pixels]

    @given(intrinsics_st, st.floats(-1500, 1500), st.floats(-1500, 1500))
    def test_round_trip_pixels(self, A, u, v):
        p = to_pixel(to_normalized(PixelPoint(u, v), A), A)
        assert abs(p.u - u) <= 1e-12 * max(1.0, abs(u))
        assert abs(p.v - v) <= 1e-12 * max(1.0, abs(v))


class TestRodrigues:
    def test_zero_vector_gives_identity(self):
        assert np.array_equal(rotation_from_axis_angle(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        R = rotation_from_axis_angle(np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(R @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-15)

    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(1e-12, math.pi - 1e-9),
    )
    @settings(max_examples=300)
    # Near pi the axis comes from the symmetric part, where a sqrt of its
    # diagonal would turn 1e-16 rounding into a 2.3e-8 axis error here.
    @example(0.0, 1.0, 0.5, 3.140625)
    def test_round_trip_inside_domain(self, ax, ay, az, theta):
        axis = np.array([ax, ay, az])
        norm = np.linalg.norm(axis)
        if norm < 1e-3:
            axis = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        w = axis / norm * theta
        R = rotation_from_axis_angle(w)
        (back,) = axis_angles_from_rotations(R[None])
        assert np.max(np.abs(back - w)) < 1e-10
        assert np.max(np.abs(back - oracles.axis_angle_from_rotation(R))) <= 1e-12

    def test_round_trip_near_pi(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            w = axis * (math.pi - 10 ** rng.uniform(-9, -2))
            R = rotation_from_axis_angle(w)
            (back,) = axis_angles_from_rotations(R[None])
            assert np.max(np.abs(back - w)) < 1e-9
            assert np.max(np.abs(back - oracles.axis_angle_from_rotation(R))) <= 1e-12

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=300)
    def test_derived_rotation_is_orthonormal(self, wx, wy, wz):
        R = rotation_from_axis_angle(np.array([wx, wy, wz]))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(R) - 1.0) < 1e-10

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            ViewExtrinsics.from_rotation(np.eye(3) * 1.1, np.zeros(3))
        with pytest.raises(NotARotation):
            ViewExtrinsics.from_rotation(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            ViewExtrinsics.from_rotation(np.eye(2), np.zeros(3))

    def test_batch_matches_the_scalar_formula_in_every_branch(self):
        # One stack through the series (theta < 1e-7), the generic formula
        # and the symmetric part (theta > pi - 1e-3).
        rng = np.random.default_rng(17)
        thetas = (0.0, 1e-9, 1e-5, 1.3, math.pi - 1e-4, math.pi - 1e-9)
        axes = rng.normal(size=(len(thetas), 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        R = np.array([rotation_from_axis_angle(a * t) for a, t in zip(axes, thetas)])
        got = axis_angles_from_rotations(R)
        assert got.shape == (len(thetas), 3)
        for row, rotation in zip(got, R):
            want = oracles.axis_angle_from_rotation(rotation)
            assert np.max(np.abs(row - want)) <= 1e-15 * max(1.0, np.linalg.norm(want))
            assert np.array_equal(ViewExtrinsics.from_rotation(rotation, np.zeros(3)).axis_angle, row)

    def test_batch_rejects_a_stack_with_one_non_rotation(self):
        good = rotation_from_axis_angle(np.array([0.1, 0.2, 0.3]))
        for bad in (np.eye(3) * 1.1, np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(NotARotation):
                axis_angles_from_rotations(np.stack([good, bad, good]))
        assert axis_angles_from_rotations(np.empty((0, 3, 3))).shape == (0, 3)


class TestViewExtrinsics:
    def test_world_to_camera_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.normal(size=3)
            w *= rng.uniform(0, 3.0) / np.linalg.norm(w)
            R = rotation_from_axis_angle(w)
            t = rng.normal(size=3)
            E = ViewExtrinsics.from_world_to_camera(R, t)
            R_back, t_back = E.world_to_camera()
            assert np.max(np.abs(R_back - R)) < 1e-12
            assert np.max(np.abs(t_back - t)) < 1e-12
