"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s`` to see them live).

Headline objective values from real camera sessions are not reproducible
without the original extracted feature coordinates, so the criteria are
property-based on seeded synthetic scenes with fixed tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from radialcal.calibration import (
    _pack_params,
    _unpack_params,
    calibrate,
    compare_models,
    objective,
    objective_gradient,
)
from radialcal.cli import main
from radialcal.cubic import real_roots
from radialcal.distortion import (
    DistortionSpec,
    Model,
    WorkingDomain,
    distort_array,
    invert_radius_newton,
    undistort,
    validate_monotone,
    warp_factor,
)
from radialcal.fileio import read_calibration, read_correspondences
from radialcal.geometry import IntrinsicMatrix, NormalizedPoint
from radialcal.localize import localize

from conftest import make_scene
from test_distortion import disk_array
from test_localize import CAMERA as LOC_CAMERA
from test_localize import WARP as LOC_WARP
from test_localize import synthesize_case
from oracles import bisect_cubic_roots


@contextmanager
def criterion(label: str, budget: float | None = None):
    """Print the criterion's outcome and its time, next to the time budget
    that the test asserts, if it has one."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    of_budget = "" if budget is None else f" of its {budget:g}s budget"
    print(f"[PASS] {label} ({time.perf_counter() - start:.2f}s{of_budget})")


def test_criterion_1_analytic_undistortion_round_trip():
    with criterion("1: closed-form undistortion round trip <= 1e-9 (10 specs x 1e4 points)", budget=2.0):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        dom = WorkingDomain(0.8)
        specs = []
        while len(specs) < 10:
            k1, k2 = rng.uniform(-0.3, 0.3, 2)
            spec = DistortionSpec(Model.MODEL3, k1, k2)
            if validate_monotone(spec, dom):
                specs.append(spec)
        radii = 0.8 * np.sqrt(rng.uniform(size=(10, 10_000)))
        angles = rng.uniform(-math.pi, math.pi, size=(10, 10_000))
        xs = radii * np.cos(angles)
        ys = radii * np.sin(angles)
        worst = 0.0
        for s, spec in enumerate(specs):
            xy = np.column_stack([xs[s], ys[s]])
            for (x, y), (x_d, y_d) in zip(xy.tolist(), distort_array(spec, xy).tolist()):
                back = undistort(spec, NormalizedPoint(x_d, y_d))
                err = math.hypot(back.x - x, back.y - y)
                if err > worst:
                    worst = err
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst round-trip error {worst}"
        assert elapsed < 2.0, f"took {elapsed:.2f}s (budget 2s)"


def test_criterion_2_cubic_solver_oracle_equivalence():
    with criterion("2: cubic roots match bisection oracle on 1e5 triples", budget=10.0):
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        n = 100_000
        ys = rng.uniform(-3.0, 3.0, n)
        ps = rng.uniform(-2.0, 2.0, n)
        qs = rng.uniform(-2.0, 2.0, n)
        oracle_roots, oracle_counts = bisect_cubic_roots(ys, ps, qs)
        for i in range(n):
            y, p, q = ys[i], ps[i], qs[i]
            bracket = 10.0 * (1.0 + abs(y))
            roots = real_roots(y, p, q)
            for x in roots:
                ax = abs(x)
                scale = max(1.0, abs(y)) + ax + abs(p) * ax * ax + abs(q) * ax ** 3
                res = x + p * x * x + q * x ** 3 - y
                assert abs(res) <= 1e-9 * scale, (y, p, q, x)
            inside = [x for x in roots if abs(x) <= bracket]
            assert len(inside) == oracle_counts[i], (y, p, q, inside, oracle_roots[i])
            for got, want in zip(inside, oracle_roots[i][: oracle_counts[i]]):
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (y, p, q, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"


def test_criterion_3_end_to_end_synthetic_calibration():
    with criterion("3: noiseless synthetic calibration recovers the generator", budget=30.0):
        start = time.perf_counter()
        truth_A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        corr, truth = make_scene(
            1003, model=Model.MODEL3, k1=-0.12, k2=-0.14, intrinsics=truth_A,
            grid_nx=8, grid_ny=8, n_views=3, noise_sigma=0.0,
        )
        result = calibrate(corr, Model.MODEL3)
        A = result.intrinsics
        assert abs(A.alpha - truth_A.alpha) <= 1e-3 * truth_A.alpha
        assert abs(A.beta - truth_A.beta) <= 1e-3 * truth_A.beta
        assert abs(A.u0 - truth_A.u0) <= 0.1
        assert abs(A.v0 - truth_A.v0) <= 0.1
        assert abs(result.distortion.k1 - (-0.12)) <= 1e-3
        assert abs(result.distortion.k2 - (-0.14)) <= 1e-3
        assert result.j_final <= 1e-6, f"J_final {result.j_final}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s (budget 30s)"


def test_criterion_4_model_comparison_ordering():
    with criterion("4: comparison ordering J1 <= J3 <= J2 with bounded middle gap", budget=90.0):
        start = time.perf_counter()
        corr, _ = make_scene(
            1004, model=Model.MODEL1, k1=-0.3435, k2=0.1232, noise_sigma=0.3,
        )
        j1, j2, j3 = (e.result.j_final for e in compare_models(corr))
        assert j1 <= j3 <= j2, (j1, j3, j2)
        assert (j3 - j1) <= 0.5 * (j2 - j1), (j1, j3, j2)
        elapsed = time.perf_counter() - start
        assert elapsed < 90.0, f"took {elapsed:.2f}s (budget 90s)"


def test_criterion_5_single_coefficient_analytic_vs_newton():
    with criterion("5: single-coefficient analytic inverse matches bracketed Newton <= 1e-9"):
        rng = np.random.default_rng(1005)
        checked = 0
        k1s = rng.uniform(-0.3, 0.0, 10)
        for k1 in k1s:
            spec = DistortionSpec(Model.MODEL2, float(k1))
            for x_d, y_d in distort_array(spec, disk_array(rng, 0.8, 1000)).tolist():
                d = NormalizedPoint(x_d, y_d)
                analytic = undistort(spec, d)
                r_d = d.radius
                if r_d == 0.0:
                    continue
                s = invert_radius_newton(spec, r_d) / r_d
                err = math.hypot(analytic.x - d.x * s, analytic.y - d.y * s)
                assert err <= 1e-9, (k1, d, err)
                checked += 1
        assert checked >= 9_990


def test_criterion_6_localizer_noiseless_exactness():
    with criterion("6: localizer exact to 1e-9 over 100 noiseless scenarios", budget=5.0):
        rng = np.random.default_rng(1006)
        start = time.perf_counter()
        for _ in range(100):
            line, pose1, pose2, delta_theta, obs_a, obs_b = synthesize_case(rng)
            fix = localize(line, obs_a, obs_b, LOC_CAMERA, LOC_WARP, pose2)
            assert abs(fix.delta_theta - delta_theta) <= 1e-9
            assert np.max(np.abs(fix.t1 - pose1.t)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"


def test_criterion_7_objective_gradient_check():
    with criterion("7: objective gradient matches central differences <= 1e-4"):
        rng = np.random.default_rng(1007)
        models = [Model.MODEL1, Model.MODEL2, Model.MODEL3]
        for trial in range(20):
            model = models[trial % 3]
            corr, truth = make_scene(
                2000 + trial, model=model, k1=-0.15, k2=-0.05, grid_nx=4, grid_ny=4
            )
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
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
            assert rel <= 1e-4, (trial, model, rel)


def test_criterion_8_odd_function_and_radial_symmetry():
    with criterion("8: oddness and polar-angle preservation <= 1e-12, all models"):
        rng = np.random.default_rng(1008)
        cases = [
            DistortionSpec(Model.MODEL1, -0.2, 0.05),
            DistortionSpec(Model.MODEL2, -0.2),
            DistortionSpec(Model.MODEL3, -0.1, -0.05),
        ]
        for spec in cases:
            assert validate_monotone(spec, WorkingDomain(0.8))
            xy = disk_array(rng, 0.8, 1000)
            distorted = distort_array(spec, xy)
            assert np.abs(distort_array(spec, -xy) + distorted).max() <= 1e-12
            for (x, y), (x_d, y_d) in zip(xy.tolist(), distorted.tolist()):
                n, d = NormalizedPoint(x, y), NormalizedPoint(x_d, y_d)
                if n.radius > 1e-6:
                    assert warp_factor(spec, n.radius) > 0
                    assert abs(math.atan2(d.y, d.x) - math.atan2(n.y, n.x)) <= 1e-12
                    back = undistort(spec, d)
                    back_neg = undistort(spec, NormalizedPoint(-d.x, -d.y))
                    assert abs(back_neg.x + back.x) <= 1e-12
                    assert abs(back_neg.y + back.y) <= 1e-12
                    assert abs(math.atan2(back.y, back.x) - math.atan2(d.y, d.x)) <= 1e-12


def test_criterion_9_cli_determinism_and_file_round_trips(tmp_path):
    with criterion("9: seeded synth is byte-identical; calibration file J recomputes"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "seed": 77,
                    "grid": {"nx": 8, "ny": 8, "spacing": 0.15},
                    "views": 3,
                    "noise_sigma": 0.3,
                    "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0.2, "u0": 320, "v0": 240},
                    "distortion": {"model": "model3", "k1": -0.12, "k2": -0.14},
                }
            )
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--spec", str(spec_path), "--output", str(out_a)]) == 0
        assert main(["synth", "--spec", str(spec_path), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

        calib_path = tmp_path / "calib.json"
        assert main(
            ["calibrate", "--input", str(out_a), "--model", "3", "--output", str(calib_path)]
        ) == 0
        calib = read_calibration(calib_path)
        corr = read_correspondences(out_a)
        J = objective(corr, calib.intrinsics, calib.distortion, calib.extrinsics)
        assert abs(J - calib.j_final) <= 1e-9 * max(1.0, calib.j_final)
