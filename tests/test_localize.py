import math

import numpy as np
import pytest

from radialcal.calibration import project
from radialcal.distortion import DistortionSpec, Model, distort_array
from radialcal.geometry import (
    IntrinsicMatrix,
    NormalizedPoint,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    to_normalized,
    to_pixel_array,
)
from radialcal.localize import (
    DegenerateLine,
    EndpointsCoincide,
    LineMap,
    PointBehindCamera,
    RayParallelToGround,
    intersect_ground,
    localize,
    recover_delta_rotation,
)
import oracles
from oracles import rot_x, rot_z

CAMERA = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
WARP = DistortionSpec(Model.MODEL3, -0.1, -0.05)
# One warp per model; model1 and model2 as in the point benchmark.
WARPS = {
    "model1": DistortionSpec(Model.MODEL1, -0.2, 0.05),
    "model2": DistortionSpec(Model.MODEL2, -0.15),
    "model3": WARP,
}


def downward_pose(yaw=0.0, tilt=0.5, position=(0.0, 0.0, 1.0)):
    """Camera above the floor looking down, pitched by ``tilt`` off vertical."""
    R = rot_z(yaw) @ rot_x(math.pi - tilt)
    return ViewExtrinsics.from_rotation(R, np.asarray(position, dtype=float))


def observe(point: WorldPoint, pose: ViewExtrinsics, spec: DistortionSpec = WARP) -> PixelPoint:
    """Synthesize the distorted observation of a ground point."""
    n = to_normalized(project(point, pose, CAMERA), CAMERA)
    ((u, v),) = to_pixel_array(distort_array(spec, np.array([[n.x, n.y]])), CAMERA).tolist()
    return PixelPoint(u, v)


class TestIntersectGround:
    def test_unit_depth_ground_point(self):
        pose = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        hit = intersect_ground(NormalizedPoint(0.2, 0.3), pose)
        assert np.allclose([hit.x, hit.y, hit.z], [0.2, 0.3, 0.0], atol=1e-15)

    def test_pitched_camera_reprojects_to_center(self):
        # 45 degrees off vertical at height 1; verify by projecting the hit back.
        pose = downward_pose(tilt=math.pi / 4)
        hit = intersect_ground(NormalizedPoint(0.0, 0.0), pose)
        assert abs(hit.z) < 1e-15
        back = project(hit, pose, IntrinsicMatrix(1.0, 1.0, 0.0, 0.0, 0.0))
        assert math.hypot(back.u, back.v) < 1e-12

    def test_horizontal_ray_raises(self):
        pose = downward_pose(tilt=math.pi / 2)  # optical axis parallel to floor
        with pytest.raises(RayParallelToGround):
            intersect_ground(NormalizedPoint(0.0, 0.0), pose)

    def test_upward_ray_raises(self):
        pose = ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(PointBehindCamera):
            intersect_ground(NormalizedPoint(0.0, 0.0), pose)


class TestRecoverDeltaRotation:
    LINE = LineMap(WorldPoint(0.0, 0.0, 0.0), WorldPoint(1.0, 0.0, 0.0))

    def test_identical_segments(self):
        assert recover_delta_rotation(self.LINE, self.LINE.a, self.LINE.b) == 0.0

    def test_quarter_turn(self):
        delta = recover_delta_rotation(
            self.LINE, WorldPoint(0.0, 0.0, 0.0), WorldPoint(0.0, 1.0, 0.0)
        )
        assert math.isclose(delta, math.pi / 2, abs_tol=1e-15)

    def test_constructed_rotation(self):
        delta = recover_delta_rotation(
            self.LINE, WorldPoint(0.0, 0.0, 0.0), WorldPoint(math.cos(0.3), math.sin(0.3), 0.0)
        )
        assert abs(delta - 0.3) <= 1e-12

    def test_satisfies_segment_identity(self):
        a2 = WorldPoint(0.4, -0.2, 0.0)
        b2 = WorldPoint(-0.3, 0.9, 0.0)
        delta = recover_delta_rotation(self.LINE, a2, b2)
        v1 = self.LINE.b.array - self.LINE.a.array
        v2 = b2.array - a2.array
        rotated = rot_z(delta) @ v1
        cross = rotated[0] * v2[1] - rotated[1] * v2[0]
        assert abs(cross) / (np.linalg.norm(rotated) * np.linalg.norm(v2)) < 1e-12

    def test_degenerate_segment_raises(self):
        with pytest.raises(DegenerateLine):
            recover_delta_rotation(self.LINE, WorldPoint(0.5, 0.5, 0.0), WorldPoint(0.5, 0.5, 0.0))

    def test_wrap_to_half_open_interval(self):
        delta = recover_delta_rotation(
            self.LINE, WorldPoint(0.0, 0.0, 0.0), WorldPoint(-1.0, -1e-18, 0.0)
        )
        assert delta == math.pi or abs(delta) <= math.pi


def synthesize_case(rng, spec=WARP):
    """Random true pose, deviated assumed pose, and the observations."""
    while True:
        pose1 = downward_pose(
            yaw=rng.uniform(-math.pi, math.pi),
            tilt=rng.uniform(0.25, 0.8),
            position=(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)),
        )
        # Pick endpoints through the camera so they are guaranteed visible.
        na = NormalizedPoint(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        nb = NormalizedPoint(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        try:
            pa = intersect_ground(na, pose1)
            pb = intersect_ground(nb, pose1)
        except (RayParallelToGround, PointBehindCamera):
            continue
        if math.hypot(pb.x - pa.x, pb.y - pa.y) < 0.2:
            continue
        delta_theta = rng.uniform(-math.pi / 2, math.pi / 2)
        dt = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
        pose2 = ViewExtrinsics.from_rotation(
            rot_z(delta_theta) @ pose1.rotation, pose1.t + dt
        )
        obs_a, obs_b = observe(pa, pose1, spec), observe(pb, pose1, spec)
        return LineMap(pa, pb), pose1, pose2, delta_theta, obs_a, obs_b


class TestLocalize:
    def test_no_deviation_recovers_assumed_pose(self):
        rng = np.random.default_rng(81)
        line, pose1, _, _, obs_a, obs_b = synthesize_case(rng)
        fix = localize(line, obs_a, obs_b, CAMERA, WARP, pose1)
        assert abs(fix.delta_theta) <= 1e-9
        assert np.max(np.abs(fix.t1 - pose1.t)) <= 1e-9
        assert fix.length_discrepancy <= 1e-9
        assert fix.translation_consistency <= 1e-9

    def test_documented_deviation_case(self):
        rng = np.random.default_rng(82)
        pose1 = downward_pose(yaw=0.3, tilt=0.55, position=(0.1, 0.4, 1.1))
        na, nb = NormalizedPoint(-0.25, 0.1), NormalizedPoint(0.3, -0.15)
        pa, pb = intersect_ground(na, pose1), intersect_ground(nb, pose1)
        delta_theta, dt = 0.25, np.array([0.3, -0.1, 0.0])
        pose2 = ViewExtrinsics.from_rotation(
            rot_z(delta_theta) @ pose1.rotation, pose1.t + dt
        )
        fix = localize(
            LineMap(pa, pb), observe(pa, pose1), observe(pb, pose1), CAMERA, WARP, pose2
        )
        assert abs(fix.delta_theta - delta_theta) <= 1e-6
        assert np.max(np.abs(fix.t1 - pose1.t)) <= 1e-6

    def test_noiseless_exactness_sweep(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            line, pose1, pose2, delta_theta, obs_a, obs_b = synthesize_case(rng)
            fix = localize(line, obs_a, obs_b, CAMERA, WARP, pose2)
            assert abs(fix.delta_theta - delta_theta) <= 1e-9
            assert np.max(np.abs(fix.t1 - pose1.t)) <= 1e-9
            # The recovered and mapped segments are parallel after rotation.
            v1 = line.b.array - line.a.array
            v2 = fix.recovered_b.array - fix.recovered_a.array
            rotated = rot_z(fix.delta_theta) @ v1
            sin_angle = abs(rotated[0] * v2[1] - rotated[1] * v2[0]) / (
                np.linalg.norm(rotated) * np.linalg.norm(v2)
            )
            assert sin_angle <= 1e-9

    def test_recovered_endpoints_reproject_to_observations(self):
        rng = np.random.default_rng(84)
        line, pose1, pose2, _, obs_a, obs_b = synthesize_case(rng)
        fix = localize(line, obs_a, obs_b, CAMERA, WARP, pose2)
        for endpoint, obs in ((fix.recovered_a, obs_a), (fix.recovered_b, obs_b)):
            p = observe(endpoint, pose2)
            assert math.hypot(p.u - obs.u, p.v - obs.v) <= 1e-9

    def test_rotation_deviation_matrix_structure(self):
        R = rot_z(0.7)
        assert R[0, 2] == 0.0 and R[1, 2] == 0.0
        assert R[2, 0] == 0.0 and R[2, 1] == 0.0 and R[2, 2] == 1.0

    def test_coincident_observations_raise(self):
        pose = downward_pose()
        p = PixelPoint(320.0, 240.0)
        with pytest.raises(EndpointsCoincide):
            localize(
                LineMap(WorldPoint(0, 0, 0), WorldPoint(1, 0, 0)),
                p,
                PixelPoint(320.0, 240.0),
                CAMERA,
                WARP,
                pose,
            )

    def test_noisy_monte_carlo_regression(self):
        # Half-pixel observation noise, camera about one unit from a roughly
        # unit-length line. The 95th-percentile errors below were recorded
        # from this exact seeded run with a 2x safety margin.
        rng = np.random.default_rng(86)
        angle_errors = []
        trans_errors = []
        for _ in range(200):
            line, pose1, pose2, delta_theta, obs_a, obs_b = synthesize_case(rng)
            noisy_a = PixelPoint(obs_a.u + rng.normal(0, 0.5), obs_a.v + rng.normal(0, 0.5))
            noisy_b = PixelPoint(obs_b.u + rng.normal(0, 0.5), obs_b.v + rng.normal(0, 0.5))
            fix = localize(line, noisy_a, noisy_b, CAMERA, WARP, pose2)
            assert math.isfinite(fix.delta_theta)
            assert np.all(np.isfinite(fix.t1))
            angle_errors.append(abs(fix.delta_theta - delta_theta))
            trans_errors.append(float(np.linalg.norm(fix.t1 - pose1.t)))
        # measured: p95 angle 6.7e-3 rad, p95 translation 8.0e-3 units
        assert np.quantile(angle_errors, 0.95) < 1.4e-2
        assert np.quantile(trans_errors, 0.95) < 1.6e-2


def assumed_pose_case(rng, spec, yaw, tilt):
    """A fix whose assumed pose is ``downward_pose(yaw, tilt)``: at yaw = +-pi
    its rotation angle is pi up to rounding, whatever the tilt. The true pose
    differs by a yaw in (-pi/2, pi/2) and an in-plane shift."""
    assumed = downward_pose(yaw, tilt, (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)))
    delta_theta = rng.uniform(-math.pi / 2, math.pi / 2)
    dt = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
    true = ViewExtrinsics.from_rotation(rot_z(-delta_theta) @ assumed.rotation, assumed.t - dt)
    while True:
        na = NormalizedPoint(*rng.uniform(-0.35, 0.35, 2))
        nb = NormalizedPoint(*rng.uniform(-0.35, 0.35, 2))
        pa, pb = intersect_ground(na, true), intersect_ground(nb, true)
        if math.hypot(pb.x - pa.x, pb.y - pa.y) >= 0.2:
            return LineMap(pa, pb), assumed, observe(pa, true, spec), observe(pb, true, spec)


def fix_values(fix) -> np.ndarray:
    return np.array(
        [
            fix.delta_theta,
            *fix.t1,
            fix.recovered_a.x,
            fix.recovered_a.y,
            fix.recovered_b.x,
            fix.recovered_b.y,
            fix.length_discrepancy,
            fix.translation_consistency,
        ]
    )


class TestAgainstOracle:
    """The fix in float arithmetic against the numpy oracle, within 1e-12."""

    @staticmethod
    def check(line, obs_a, obs_b, spec, pose):
        for a, b in ((obs_a, obs_b), (obs_b, obs_a)):
            args = (line, a, b, CAMERA, spec, pose)
            got, want = fix_values(localize(*args)), fix_values(oracles.localize(*args))
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("model", sorted(WARPS))
    def test_seeded_cases(self, model):
        rng = np.random.default_rng(87)
        for _ in range(30):
            yaw, tilt = rng.uniform(-math.pi, math.pi), rng.uniform(0.25, 0.8)
            line, pose, obs_a, obs_b = assumed_pose_case(rng, WARPS[model], yaw, tilt)
            self.check(line, obs_a, obs_b, WARPS[model], pose)

    @pytest.mark.parametrize("model", sorted(WARPS))
    @pytest.mark.parametrize("yaw", [math.pi, -math.pi])
    @pytest.mark.parametrize("tilt", [1e-6, 1e-3, 0.5])
    def test_assumed_pose_near_half_turn(self, model, yaw, tilt):
        rng = np.random.default_rng(88)
        for _ in range(5):
            line, pose, obs_a, obs_b = assumed_pose_case(rng, WARPS[model], yaw, tilt)
            assert abs(float(np.linalg.norm(pose.axis_angle)) - math.pi) <= 1e-6
            self.check(line, obs_a, obs_b, WARPS[model], pose)

    @staticmethod
    def raised(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("model", sorted(WARPS))
    def test_exceptions_match_the_oracle(self, model):
        center = PixelPoint(CAMERA.u0, CAMERA.v0)
        off_center = PixelPoint(CAMERA.u0 + 40.0, CAMERA.v0 - 25.0)
        line = LineMap(WorldPoint(0.0, 0.0, 0.0), WorldPoint(1.0, 0.0, 0.0))
        cases = {
            EndpointsCoincide: (center, PixelPoint(CAMERA.u0, CAMERA.v0), downward_pose()),
            # Optical axis parallel to the floor: the central ray never meets it.
            RayParallelToGround: (center, off_center, downward_pose(tilt=math.pi / 2)),
            # Looking up from height 1 (R = I exactly): every ray meets the
            # floor at depth -1.
            PointBehindCamera: (off_center, center, ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, 1.0]))),
            # A camera 1e-6 above the floor: points 0.05 px apart land 1e-10 apart.
            DegenerateLine: (
                center,
                PixelPoint(CAMERA.u0 + 0.05, CAMERA.v0),
                downward_pose(tilt=0.3, position=(0.0, 0.0, 1e-6)),
            ),
        }
        for error, (obs_a, obs_b, pose) in cases.items():
            args = (line, obs_a, obs_b, CAMERA, WARPS[model], pose)
            got = self.raised(localize, *args)
            assert got == self.raised(oracles.localize, *args)
            assert got[0] is error


def test_fix_translation_is_read_only():
    rng = np.random.default_rng(81)
    line, pose1, _, _, obs_a, obs_b = synthesize_case(rng)
    fix = localize(line, obs_a, obs_b, CAMERA, WARP, pose1)
    with pytest.raises(ValueError, match="read-only"):
        fix.t1[0] = 0.0
