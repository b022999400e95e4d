import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialcal import distortion
from radialcal.cubic import _Q_NEGLIGIBLE, NoRealSolution
from radialcal.distortion import (
    DistortionSpec,
    Model,
    NotConverged,
    WorkingDomain,
    coefficient_basis,
    distort_array,
    invert_radius_newton,
    n_coefficients,
    undistort,
    undistort_array,
    validate_monotone,
    warp_factor,
)
from radialcal.geometry import (
    IntrinsicMatrix,
    InvalidParameters,
    NormalizedPoint,
    PixelPoint,
    radius_array,
    to_normalized,
    to_normalized_array,
    to_pixel_array,
)
from oracles import radius_from_distorted_model3, undistort_xy


def sample_disk(rng, r_max):
    r = r_max * math.sqrt(rng.uniform())
    phi = rng.uniform(-math.pi, math.pi)
    return NormalizedPoint(r * math.cos(phi), r * math.sin(phi))


def disk_array(rng, r_max, n):
    """n sample_disk points, drawn in the same order, as an ``(n, 2)`` array."""
    return np.array([(p.x, p.y) for p in (sample_disk(rng, r_max) for _ in range(n))])


def disk_pairs(spec, rng, r_max, n):
    """n disk_array points and their images under distort_array, as
    NormalizedPoint pairs."""
    xy = disk_array(rng, r_max, n)
    d = distort_array(spec, xy)
    return [(NormalizedPoint(*a), NormalizedPoint(*b)) for a, b in zip(xy.tolist(), d.tolist())]


class TestSpecTypes:
    def test_model2_stores_zero_k2(self):
        spec = DistortionSpec(Model.MODEL2, -0.2, 0.7)
        assert spec.k2 == 0.0
        assert spec.coefficients == (-0.2,)

    def test_model_accepts_string_value(self):
        assert DistortionSpec("model3", -0.1, -0.05).model is Model.MODEL3

    def test_numpy_coefficients_stored_as_floats(self):
        spec = DistortionSpec(Model.MODEL3, np.float64(-0.1), np.float64(-0.05))
        assert type(spec.k1) is float and type(spec.k2) is float
        assert spec == DistortionSpec(Model.MODEL3, -0.1, -0.05)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameters):
            DistortionSpec(Model.MODEL1, math.inf, 0.0)

    def test_working_domain_positive(self):
        with pytest.raises(ValueError):
            WorkingDomain(0.0)

    def test_coefficient_counts(self):
        assert n_coefficients(Model.MODEL1) == 2
        assert n_coefficients(Model.MODEL2) == 1
        assert n_coefficients(Model.MODEL3) == 2


class TestWarpFactor:
    def test_zero_coefficients_give_unity(self):
        for model in Model:
            assert warp_factor(DistortionSpec(model, 0.0, 0.0), 0.7) == 1.0

    def test_odd_low_order_warp_value(self):
        # 1 - 0.1*0.5 - 0.05*0.25 = 0.9375
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        assert math.isclose(warp_factor(spec, 0.5), 0.9375, abs_tol=1e-15)

    def test_even_two_term_warp_value(self):
        # 1 - 0.2286 + 0.1903 = 0.9617
        spec = DistortionSpec(Model.MODEL1, -0.2286, 0.1903)
        assert math.isclose(warp_factor(spec, 1.0), 0.9617, abs_tol=1e-12)

    def test_accepts_arrays(self):
        spec = DistortionSpec(Model.MODEL2, -0.2)
        r = np.array([0.0, 0.5, 1.0])
        assert np.allclose(warp_factor(spec, r), [1.0, 0.95, 0.8])

    def test_basis_matches_slope_of_coefficients(self):
        r = np.linspace(0.0, 1.0, 7)
        assert coefficient_basis(Model.MODEL1, r).shape == (7, 2)
        assert np.allclose(coefficient_basis(Model.MODEL3, r)[:, 0], r)


class TestDistort:
    def test_origin_fixed(self):
        for model in Model:
            spec = DistortionSpec(model, -0.2, 0.1)
            assert distort_array(spec, np.zeros((1, 2))).tolist() == [[0.0, 0.0]]

    def test_known_point(self):
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        ((x, y),) = distort_array(spec, np.array([[0.3, 0.4]]))
        assert math.isclose(x, 0.28125, abs_tol=1e-15)
        assert math.isclose(y, 0.375, abs_tol=1e-15)

    def test_oddness_is_exact(self):
        rng = np.random.default_rng(2)
        for model in Model:
            spec = DistortionSpec(model, -0.21, 0.07)
            xy = disk_array(rng, 1.0, 1000)
            assert np.array_equal(distort_array(spec, -xy), -distort_array(spec, xy))

    def test_pixel_warp_known_point(self):
        A = IntrinsicMatrix(100.0, 100.0, 0.0, 0.0, 0.0)
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        ((u, v),) = pixel_warp(spec, np.array([[30.0, 40.0]]), A)
        assert math.isclose(u, 28.125, abs_tol=1e-12)
        assert math.isclose(v, 37.5, abs_tol=1e-12)

    def test_pixel_route_matches_normalized_route(self):
        rng = np.random.default_rng(3)
        A = IntrinsicMatrix(832.5, 830.7, 0.21, 303.96, 206.59)
        for model in Model:
            spec = DistortionSpec(model, -0.18, 0.05)
            uv = np.column_stack([rng.uniform(0, 640, 1000), rng.uniform(0, 480, 1000)])
            via_pixel = pixel_warp(spec, uv, A)
            # Each pixel through the scalar to_normalized, then the warp.
            xy = np.array([(n.x, n.y) for n in (to_normalized(PixelPoint(u, v), A) for u, v in uv)])
            via_norm = to_pixel_array(distort_array(spec, xy), A)
            assert np.abs(via_pixel - via_norm).max() <= 1e-10


def pixel_warp(spec, uv, A):
    """The forward warp on pixels, as CLI undistort --direction forward runs it."""
    return to_pixel_array(distort_array(spec, to_normalized_array(uv, A)), A)


class TestValidateMonotone:
    def test_zero_coefficients_always_monotone(self):
        for model in Model:
            assert validate_monotone(DistortionSpec(model, 0.0, 0.0), WorkingDomain(100.0))

    def test_odd_model_fitted_coefficients_monotone_on_half_unit(self):
        # Oracle: roots of F'(r) = 1 + 2 k1 r + 3 k2 r^2 by the quadratic
        # formula; the smallest positive root is far outside [0, 0.5].
        k1, k2 = -0.0215, -0.1565
        disc = (2 * k1) ** 2 - 4 * (3 * k2)
        roots = sorted(
            ((-2 * k1 + s * math.sqrt(disc)) / (2 * 3 * k2)) for s in (1.0, -1.0)
        )
        assert min(r for r in roots if r > 0) > 0.5
        assert validate_monotone(DistortionSpec(Model.MODEL3, k1, k2), WorkingDomain(0.5))

    def test_odd_model_strong_barrel_fails_on_unit(self):
        # F'(r) = 1 - 4 r vanishes at r = 0.25.
        assert not validate_monotone(DistortionSpec(Model.MODEL3, -2.0, 0.0), WorkingDomain(1.0))

    def test_root_exactly_at_domain_edge_fails(self):
        # model3 with k2 = 0: F' = 1 + 2 k1 r vanishes at r = -1/(2 k1).
        assert not validate_monotone(DistortionSpec(Model.MODEL3, -1.0, 0.0), WorkingDomain(0.5))
        assert validate_monotone(DistortionSpec(Model.MODEL3, -1.0, 0.0), WorkingDomain(0.499))

    def test_even_model_globally_monotone_coefficients(self):
        # F' = 1 + 3 k1 r^2 + 5 k2 r^4 has negative discriminant in r^2.
        spec = DistortionSpec(Model.MODEL1, -0.3435, 0.1232)
        assert validate_monotone(spec, WorkingDomain(5.0))

    def test_single_term_model_fold(self):
        # F' = 1 + 3 k1 r^2 vanishes at r = 1/sqrt(3 |k1|).
        spec = DistortionSpec(Model.MODEL2, -0.3)
        fold = 1.0 / math.sqrt(3 * 0.3)
        assert validate_monotone(spec, WorkingDomain(fold * 0.999))
        assert not validate_monotone(spec, WorkingDomain(fold * 1.001))

    @pytest.mark.parametrize("model", list(Model))
    def test_fold_matches_polynomial_roots(self, model):
        # F' = 1 + c1 s + c2 s^2 with s = r^2 for model1 (c1, c2 = 3 k1,
        # 5 k2) and model2 (3 k1, 0), and s = r for model3 (2 k1, 3 k2):
        # the fold is s^(1/a) for the smallest positive root s.
        a, c1, c2 = {
            Model.MODEL1: (2, 3.0, 5.0), Model.MODEL2: (2, 3.0, 0.0), Model.MODEL3: (1, 2.0, 3.0)
        }[model]
        rng = np.random.default_rng(73)
        folded = 0
        for k1, k2 in rng.uniform(-1.0, 1.0, (2000, 2)).tolist():
            spec = DistortionSpec(model, k1, k2)
            fold = spec.fold
            s = [z.real for z in np.roots([c2 * spec.k2, c1 * k1, 1.0]) if z.imag == 0.0 and z.real > 0.0]
            if not s:
                assert fold == math.inf, (k1, k2)
                continue
            folded += 1
            assert abs(fold - min(s) ** (1.0 / a)) <= 1e-12 * fold, (k1, k2)
        assert folded > 800

    @pytest.mark.parametrize(
        "spec",
        [
            DistortionSpec(Model.MODEL1, 0.0, 0.0),
            DistortionSpec(Model.MODEL1, 0.2, 0.1),
            DistortionSpec(Model.MODEL1, -0.3435, 0.1232),
            DistortionSpec(Model.MODEL2, 0.2),
            DistortionSpec(Model.MODEL3, 0.1, 0.05),
            DistortionSpec(Model.MODEL3, -0.3, 0.1),
        ],
    )
    def test_monotone_spec_has_no_fold(self, spec):
        assert spec.fold == math.inf
        assert validate_monotone(spec, WorkingDomain(1e300))

    @pytest.mark.parametrize(
        "spec",
        [
            DistortionSpec(Model.MODEL1, -0.5, 0.1),
            DistortionSpec(Model.MODEL1, -0.5, 0.0),
            DistortionSpec(Model.MODEL2, -0.3),
        ],
    )
    def test_domain_ending_at_the_fold_is_not_monotone(self, spec):
        fold = spec.fold
        assert not validate_monotone(spec, WorkingDomain(fold))
        assert validate_monotone(spec, WorkingDomain(math.nextafter(fold, 0.0)))


class TestUndistort:
    def test_origin_fixed_all_models(self):
        for model in Model:
            spec = DistortionSpec(model, -0.2, 0.05)
            out = undistort(spec, NormalizedPoint(0.0, 0.0))
            assert (out.x, out.y) == (0.0, 0.0)

    def test_documented_case(self):
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        out = undistort(spec, NormalizedPoint(0.28125, 0.375))
        assert math.isclose(out.x, 0.3, abs_tol=1e-9)
        assert math.isclose(out.y, 0.4, abs_tol=1e-9)

    @pytest.mark.parametrize(
        "model,k1,k2",
        [
            (Model.MODEL1, -0.25, 0.08),
            (Model.MODEL2, -0.2, 0.0),
            (Model.MODEL3, -0.1, -0.05),
        ],
    )
    def test_round_trip_within_monotone_domain(self, model, k1, k2):
        spec = DistortionSpec(model, k1, k2)
        assert validate_monotone(spec, WorkingDomain(0.8))
        rng = np.random.default_rng(4)
        worst = 0.0
        pairs = disk_pairs(spec, rng, 0.8, 1000)
        back = [undistort(spec, d) for _, d in pairs]
        for (n, d), b in zip(pairs, back):
            worst = max(worst, math.hypot(b.x - n.x, b.y - n.y))
        # and the opposite composition on points known to have a preimage
        again = distort_array(spec, np.array([(b.x, b.y) for b in back]))
        for (_, d), (x, y) in zip(pairs, again.tolist()):
            worst = max(worst, math.hypot(x - d.x, y - d.y))
        assert worst <= 1e-9

    def test_single_term_analytic_matches_newton(self):
        rng = np.random.default_rng(5)
        for k1 in (-0.3, -0.17, -0.05):
            spec = DistortionSpec(Model.MODEL2, k1)
            for _, d in disk_pairs(spec, rng, 0.8, 1000):
                analytic = undistort(spec, d)
                r_d = d.radius
                if r_d == 0.0:
                    continue
                s = invert_radius_newton(spec, r_d) / r_d
                assert math.hypot(analytic.x - d.x * s, analytic.y - d.y * s) <= 1e-9

    def test_scalar_radius_reduction_matches_component_algorithm(self):
        # Independent oracle: the distorted radius satisfies
        # r_d = r (1 + k1 r + k2 r^2); solve it with numpy's companion-matrix
        # roots and rescale the distorted point.
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        rng = np.random.default_rng(6)
        for _, d in disk_pairs(spec, rng, 0.8, 300):
            r_d = d.radius
            if r_d < 1e-6:
                continue
            r = radius_from_distorted_model3(r_d, spec.k1, spec.k2, 0.8)
            expected = (d.x * r / r_d, d.y * r / r_d)
            got = undistort(spec, d)
            assert math.hypot(got.x - expected[0], got.y - expected[1]) <= 1e-9

    def test_model3_matches_component_algorithm(self):
        # undistort solves the radius cubic once; the oracle undistort_xy is
        # the paper's sign-branch algorithm on the component cubic. Inside the monotone
        # domain both must select the same root, also on the axes (where the
        # component form swaps axes) and next to the origin.
        rng = np.random.default_rng(9)
        specs = [DistortionSpec(Model.MODEL3, 0.2, 0.0)]  # k2 = 0: quadratic
        while len(specs) < 21:
            spec = DistortionSpec(Model.MODEL3, *rng.uniform(-0.4, 0.4, 2))
            if validate_monotone(spec, WorkingDomain(0.8)):
                specs.append(spec)
        for spec in specs:
            points = [sample_disk(rng, 0.8) for _ in range(300)]
            for r in (0.8, 0.3, 1e-3, 1e-9, 1e-13):
                h = r / math.sqrt(2.0)
                points += [
                    NormalizedPoint(r, 0.0),
                    NormalizedPoint(0.0, -r),
                    NormalizedPoint(-h, h),
                ]
            distorted = distort_array(spec, np.array([(n.x, n.y) for n in points]))
            for x_d, y_d in distorted.tolist():
                d = NormalizedPoint(x_d, y_d)
                got = undistort(spec, d)
                x, y = undistort_xy(d.x, d.y, spec.k1, spec.k2)
                assert math.hypot(got.x - x, got.y - y) <= 1e-12, (spec, d)

    def test_model3_beyond_fold_raises(self):
        # F(r) = r - 0.1 r^2 - 0.05 r^3 peaks at F(2) = 1.2: no positive
        # radius reaches 1.5, so the answer is a flag, not the reflected
        # (f < 0) preimage.
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        with pytest.raises(NoRealSolution):
            undistort(spec, NormalizedPoint(0.9, 1.2))

    @pytest.mark.parametrize(
        "k1,k2,r_d,admissible",
        [
            # F(r) = r + k1 r^2 + k2 r^3 folds at 1.2251, where F = 0.5666;
            # the root past the fold, 7.56, is no preimage of 0.58.
            (-0.5, 0.05, 0.58, False),
            (-0.5, 0.05, 1.0, False),
            # Fold at 1.5486: 2.5 has the admissible root 1.3154 below it,
            # and 1.7627 past it is nearer r_d.
            (2.0, -1.0, 2.5, True),
            (2.0, -1.0, 2.631130309440873 * (1.0 - 1e-6), True),
            # Fold at 0.7597, where F = 0.3141; a root 2.139 lies past it.
            (-1.0, 0.3, 0.5, False),
        ],
    )
    def test_model3_root_past_the_fold_is_none(self, k1, k2, r_d, admissible):
        spec = DistortionSpec(Model.MODEL3, k1, k2)
        fold = min(r for r in np.roots([3.0 * k2, 2.0 * k1, 1.0]) if r > 0.0)
        got = undistort_array(spec, np.array([[r_d, 0.0]]))[0, 0]
        if not admissible:
            with pytest.raises(NoRealSolution):
                undistort(spec, NormalizedPoint(r_d, 0.0))
            assert math.isnan(got)
            return
        r = undistort(spec, NormalizedPoint(r_d, 0.0)).x
        assert r == got
        assert r < fold
        assert abs(r * (1.0 + k1 * r + k2 * r * r) - r_d) <= 1e-14 * r_d

    def test_model2_beyond_fold_raises(self):
        # F(r) = r - 0.15 r^3 peaks at F = 0.994: radius 2 has no preimage,
        # where the component cubic used to return the reflected point
        # (-3.28, 0) with f(r) = -0.61.
        spec = DistortionSpec(Model.MODEL2, -0.15)
        with pytest.raises(NoRealSolution):
            undistort(spec, NormalizedPoint(2.0, 0.0))

    def test_two_term_even_model_out_of_fold_raises(self):
        # F(r) = r (1 + k1 r^2) tops out at F(r*) = (2/3) r*; beyond that no
        # preimage exists and the inverse must report it.
        spec = DistortionSpec(Model.MODEL1, -0.5, 0.0)
        fold = 1.0 / math.sqrt(3 * 0.5)
        max_reachable = fold * (1 + spec.k1 * fold * fold)
        with pytest.raises(NoRealSolution):
            undistort(spec, NormalizedPoint(max_reachable * 1.2, 0.0))

    @pytest.mark.parametrize("k1,k2", [(-0.5, 0.1), (-0.3, 0.02), (-1.0, 0.3)])
    def test_model1_root_past_the_fold_is_none(self, k1, k2):
        # F(r) = r f(r) folds and rises again: a Newton step may land on the
        # far branch, whose roots are no preimage. Below F(fold) the root on
        # the rising branch comes back; above it, none (F(fold) is a double
        # root, found or not to rounding).
        spec = DistortionSpec(Model.MODEL1, k1, k2)
        fold = spec.fold
        top = fold * warp_factor(spec, fold)
        r_d = np.linspace(0.0, 3.0, 601)[1:]
        xy = np.column_stack([r_d, np.zeros(r_d.size)])
        want = scalar_undistort_rows(spec, xy)
        found = ~np.isnan(want[:, 0])
        assert np.all(want[found, 0] <= fold)
        assert found[r_d < top * (1.0 - 1e-9)].all()
        assert not found[r_d > top * (1.0 + 1e-9)].any()
        assert_rows_agree(undistort_array(spec, xy), want)
        # The start r_d = sqrt(-k1 / k2) solves F(r) = r_d on the far branch.
        with pytest.raises(NoRealSolution):
            invert_radius_newton(spec, math.sqrt(-k1 / k2))
        assert np.isnan(undistort_array(spec, np.array([[math.sqrt(-k1 / k2), 0.0]]))).all()

    @pytest.mark.parametrize(
        "k1,k2,r_d,root",
        [
            (-0.5, 0.2, 1e6, 21.89),
            (0.2, 0.1, 1e120, 1.585e24),
            (-0.5, 0.2, 1e308, 5.493e61),
            (0.2, 1e-300, 1e100, 3.684e33),
            (0.2, 1e-200, 1e100, 3.684e33),
            (0.2, 0.0, 1e200, 7.937e66),
        ],
    )
    def test_huge_radius_starts_from_the_dominant_term(self, k1, k2, r_d, root):
        # From r_d itself, r^4 overflows a float at 1e120 and the bracket's
        # midpoints cannot come down to the root within the step budget; at
        # 1e6 the Newton steps shrink r by about 4/5 each. Both used to raise
        # NotConverged. The start (r_d / k2)^(1/5) lies within a few steps.
        # At 1e308 r_d / k2 overflows, so the root is taken apart. In the
        # last three k1 r^3 dominates: the start is (r_d / k1)^(1/3).
        spec = DistortionSpec(Model.MODEL1, k1, k2)
        r = invert_radius_newton(spec, r_d)
        assert r == pytest.approx(root, rel=1e-3)
        assert abs(r * warp_factor(spec, r) - r_d) <= 1e-12 * r_d
        got = distortion._newton_radius_array(spec, np.array([r_d, 0.5, r_d]))
        assert got[0] == got[2] == r
        assert got[1] == invert_radius_newton(spec, 0.5)
        assert undistort(spec, NormalizedPoint(r_d, 0.0)).x == r

    def test_newton_inverter_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            invert_radius_newton(DistortionSpec(Model.MODEL1, -0.1, 0.0), -1.0)

    def test_pincushion_model1_solves_up_to_the_fold_value(self, monkeypatch):
        # F(r) = r + 0.5 r^3 - 0.1 r^5 folds at 1.887, where F = 2.854: each
        # r_d in (fold, F(fold)) has its root on the rising branch, though
        # the start r_d lies past the fold. These used to be flagged.
        spec = DistortionSpec(Model.MODEL1, 0.5, -0.1)
        fold = spec.fold
        top = fold * warp_factor(spec, fold)
        assert abs(fold - 1.8872) < 1e-4 and abs(top - 2.8540) < 1e-4
        r_d = np.linspace(fold, top, 1002)[1:-1]
        r = np.array([invert_radius_newton(spec, y) for y in r_d.tolist()])
        assert np.all(r <= fold)
        assert np.all(np.abs(r * warp_factor(spec, r) - r_d) <= 1e-12 * np.maximum(1.0, r_d))
        xy = np.column_stack([r_d, np.zeros(r_d.size)])
        want = scalar_undistort_rows(spec, xy)
        monkeypatch.setattr(distortion, "undistort", None)
        assert np.array_equal(undistort_array(spec, xy), want)
        with pytest.raises(NoRealSolution):
            invert_radius_newton(spec, top * (1.0 + 1e-9))

    def test_fold_free_model1_at_huge_radii(self):
        # (-0.5, 0.2) has no fold, so every radius has a root; F(inf) is
        # NaN for k1 < 0 < k2, and must not decide that none exists. Newton
        # starts from the dominant term's root, so every radius is solved,
        # 1e308 too, where r_d / k2 overflows. No numpy warning is raised
        # (the suite makes one an error).
        spec = DistortionSpec(Model.MODEL1, -0.5, 0.2)
        assert spec.fold == math.inf
        r_d = 10.0 ** np.arange(-3.0, 309.0)
        got = distortion._newton_radius_array(spec, r_d)
        assert np.array_equal(got, newton_radii(spec, r_d), equal_nan=True)
        assert not np.isnan(got).any()
        assert np.all(np.abs(got * warp_factor(spec, got) - r_d) <= 1e-12 * np.maximum(1.0, r_d))

    def test_model1_scalar_and_array_agree_to_the_bit(self):
        # Random specs, with rows above F(fold), zero rows and non-finite
        # rows: the array pass takes the scalar solve's steps lane by lane.
        rng = np.random.default_rng(67)
        above = 0
        for k1, k2 in rng.uniform(-0.6, 0.6, (100, 2)).tolist():
            spec = DistortionSpec(Model.MODEL1, k1, k2)
            r_d = np.concatenate([rng.uniform(0.0, 3.0, 200), [0.0, math.inf, math.nan]])
            want = newton_radii(spec, r_d)
            assert np.array_equal(distortion._newton_radius_array(spec, r_d), want, equal_nan=True)
            assert want[-3] == 0.0 and np.isnan(want[-2:]).all()
            fold = spec.fold
            if fold < math.inf:
                above += np.sum(r_d[:-3] > fold * warp_factor(spec, fold))
        assert above > 1000


def newton_radii(spec, r_d):
    """invert_radius_newton on each radius, NaN where it flags the radius."""
    out = np.full(r_d.shape, np.nan)
    for i, y in enumerate(r_d.tolist()):
        try:
            out[i] = invert_radius_newton(spec, y)
        except (NoRealSolution, NotConverged):
            pass
    return out


def scalar_undistort_rows(spec, xy):
    """undistort row by row, NaN where it reports no admissible solution."""
    out = np.full(xy.shape, np.nan)
    for i, (x, y) in enumerate(xy.tolist()):
        try:
            n = undistort(spec, NormalizedPoint(x, y))
        except (NoRealSolution, NotConverged):
            continue
        out[i] = n.x, n.y
    return out


def assert_rows_agree(got, want):
    """The array and the scalar inverse flag the same rows and agree to the
    bit: both take the same start and steps."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestUndistortArray:
    @pytest.mark.parametrize(
        "model,k1,k2,folds",
        [
            (Model.MODEL1, -0.2, 0.05, False),
            (Model.MODEL1, -0.5, 0.0, True),
            (Model.MODEL2, -0.15, 0.0, True),
            (Model.MODEL2, 0.2, 0.0, False),
            (Model.MODEL3, -0.1, -0.05, True),
            (Model.MODEL3, 0.3, -0.2, True),
            (Model.MODEL3, -0.4, 0.1, False),
        ],
    )
    def test_matches_scalar_including_past_the_fold(self, model, k1, k2, folds):
        spec = DistortionSpec(model, k1, k2)
        rng = np.random.default_rng(31)
        r = 3.0 * rng.uniform(size=3000) ** 2
        phi = rng.uniform(-math.pi, math.pi, r.size)
        xy = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        want = scalar_undistort_rows(spec, xy)
        # Radii up to 3 reach past the fold of every folding spec here.
        assert np.isnan(want).any() == folds
        assert_rows_agree(undistort_array(spec, xy), want)

    @pytest.mark.parametrize("k1,k2", [(-0.5, 0.05), (2.0, -1.0), (-1.0, 0.3)])
    def test_matches_scalar_at_the_fold(self, k1, k2):
        # Just below F(fold) the two roots about the fold nearly coincide,
        # and just above it the pair is complex: both inverses take the same
        # root on the rising branch, or flag the same rows.
        spec = DistortionSpec(Model.MODEL3, k1, k2)
        fold = min(r for r in np.roots([3.0 * k2, 2.0 * k1, 1.0]) if r > 0.0)
        top = fold * (1.0 + k1 * fold + k2 * fold * fold)
        eps = np.array([1e-14, 1e-10, 1e-6])
        r_d = top * np.concatenate([1.0 - eps, 1.0 + eps])
        xy = np.column_stack([r_d, np.zeros(r_d.size)])
        want = scalar_undistort_rows(spec, xy)
        assert not np.isnan(want[:3, 0]).any() and np.isnan(want[5, 0])
        # Above F(fold) no root comes back, never the cubic's root far past
        # the fold.
        found = want[~np.isnan(want[:, 0]), 0]
        assert np.all(found <= fold * (1.0 + 1e-6))
        assert_rows_agree(undistort_array(spec, xy), want)

    def test_origin_and_radii_at_the_zero_threshold(self):
        xy = np.array(
            [[0.0, 0.0], [1e-12, 0.0], [0.0, -1e-12], [7e-13, -7e-13], [2e-12, 0.0], [1e-300, 0.0]]
        )
        for model in Model:
            spec = DistortionSpec(model, -0.2, 0.05)
            got = undistort_array(spec, xy)
            assert_rows_agree(got, scalar_undistort_rows(spec, xy))
            assert np.array_equal(got[0], [0.0, 0.0])
            # No radius is zero at working precision but 0: f(r) is 1 to
            # within 1e-12 here, so each point is nearly its own preimage.
            assert np.all(np.abs(got[1:] - xy[1:]) <= 1e-11 * np.abs(xy[1:]))

    def test_empty_input(self):
        for model in Model:
            out = undistort_array(DistortionSpec(model, -0.2, 0.05), np.empty((0, 2)))
            assert out.shape == (0, 2)

    def test_non_finite_rows_are_nan(self):
        xy = np.array([[0.3, 0.1], [math.nan, 0.2], [math.inf, 0.0], [0.1, -math.inf]])
        for model in Model:
            out = undistort_array(DistortionSpec(model, -0.2, 0.05), xy)
            assert np.isfinite(out[0]).all() and np.isnan(out[1:]).all()

    @pytest.mark.parametrize(
        "spec",
        [
            DistortionSpec(Model.MODEL2, 0.15),
            DistortionSpec(Model.MODEL3, 0.1, 0.05),
            DistortionSpec(Model.MODEL3, -0.3, 0.1),
        ],
    )
    def test_huge_radius_gives_a_verified_root_or_a_flag(self, spec):
        # The closed form's discriminant overflows for r_d past about 1e153,
        # so these start from the dominant term's root instead. Near the top
        # of the float range F's terms may overflow, and the point can then
        # only be flagged.
        r_d = [1e100, 1e160, 1e200, 1e300, 1.5e308]
        xy = np.column_stack([r_d, np.zeros(len(r_d))])
        want = scalar_undistort_rows(spec, xy)
        assert np.array_equal(undistort_array(spec, xy), want, equal_nan=True)
        assert np.isfinite(want[:4]).all()
        for y, r in zip(r_d, want[:, 0].tolist()):
            if not math.isnan(r):
                assert abs(r * warp_factor(spec, r) - y) <= 1e-9 * y, (y, r)

    @pytest.mark.parametrize(
        "spec,xy",
        [
            # On the fold F(2) = 1.2 the discriminant is zero to rounding.
            (DistortionSpec(Model.MODEL3, -0.1, -0.05), [[0.72, 0.96], [0.3, 0.4]]),
            # Past F(fold) the model1 row has no root and is flagged at once.
            (DistortionSpec(Model.MODEL1, -0.5, 0.0), [[0.7, 0.0], [0.1, 0.1]]),
        ],
    )
    def test_unsettled_lanes_take_the_scalar_path(self, monkeypatch, spec, xy):
        # The array pass settles these rows itself, by the scalar path's own
        # bracketed Newton steps.
        xy = np.array(xy)
        want = scalar_undistort_rows(spec, xy)
        calls = []

        def counted(s, d):
            calls.append(d)
            return undistort(s, d)

        monkeypatch.setattr(distortion, "undistort", counted)
        got = undistort_array(spec, xy)
        assert_rows_agree(got, want)
        assert not calls

    @pytest.mark.parametrize("k2", [0.0, 0.1 * _Q_NEGLIGIBLE, -0.1 * _Q_NEGLIGIBLE])
    @pytest.mark.parametrize("k1", [0.2, -0.2])
    def test_quadratic_regime_settles_in_the_array_pass(self, monkeypatch, k1, k2):
        # With k2 below the cubic threshold the radius equation is the
        # quadratic r + k1 r^2 = r_d; for k1 < 0 it folds at r = -1/(2 k1),
        # and observed radii past 1 + 4 k1 r_d = 0 have no root: NaN rows
        # that are not solved a second time by the scalar path.
        spec = DistortionSpec(Model.MODEL3, k1, k2)
        rng = np.random.default_rng(47)
        r = 3.0 * rng.uniform(size=2000) ** 2
        phi = rng.uniform(-math.pi, math.pi, r.size)
        xy = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        past_fold = 1.0 + 4.0 * k1 * r < 0.0
        assert past_fold.any() == (k1 < 0.0)
        want = scalar_undistort_rows(spec, xy)
        calls = []

        def counted(s, d):
            calls.append(d)
            return undistort(s, d)

        monkeypatch.setattr(distortion, "undistort", counted)
        got = undistort_array(spec, xy)
        assert_rows_agree(got, want)
        assert np.isnan(got[past_fold]).all()
        assert not calls

    @pytest.mark.parametrize(
        "spec",
        [
            DistortionSpec(Model.MODEL3, -0.6, 0.0),
            DistortionSpec(Model.MODEL3, -0.6, -0.2),
            DistortionSpec(Model.MODEL3, -0.1, -0.05),
            DistortionSpec(Model.MODEL2, -0.5),
        ],
    )
    def test_rows_without_a_root_are_not_solved_again(self, monkeypatch, spec):
        # A row above F(fold) is NaN at once, and the array pass settles
        # every other row itself, without a scalar undistort call.
        rng = np.random.default_rng(53)
        r = np.sqrt(rng.uniform(size=20000)) * (3.0 if spec.k1 == -0.1 else 1.0)
        phi = rng.uniform(-math.pi, math.pi, r.size)
        xy = np.vstack([np.column_stack([r * np.cos(phi), r * np.sin(phi)]), [[0.72, 0.96]]])
        calls = []

        def counted(s, d):
            calls.append(d)
            return undistort(s, d)

        want = scalar_undistort_rows(spec, xy)
        monkeypatch.setattr(distortion, "undistort", counted)
        got = undistort_array(spec, xy)
        assert_rows_agree(got, want)
        assert np.isnan(got).sum() > 1000
        assert not calls

    @pytest.mark.parametrize("k1,k2", [(-0.5, 0.0), (0.3, -0.4), (-0.1, -0.3)])
    def test_model1_rows_that_cannot_converge_are_not_solved_again(self, monkeypatch, k1, k2):
        # The array pass takes the scalar Newton's steps, the bracket's
        # midpoints included, so no row reaches the scalar solve. A row
        # above F(fold) has no bracket, [0, fold] holds no root for it, and
        # it is flagged either way; every other row converges.
        spec = DistortionSpec(Model.MODEL1, k1, k2)
        fold = spec.fold
        top = fold * warp_factor(spec, fold)

        rng = np.random.default_rng(61)
        r = 2.0 * np.sqrt(rng.uniform(size=5000))
        phi = rng.uniform(-math.pi, math.pi, r.size)
        xy = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        no_root = np.hypot(xy[:, 0], xy[:, 1]) > top
        want = scalar_undistort_rows(spec, xy)
        calls = []

        def counted(s, d):
            calls.append((d.x, d.y))
            return undistort(s, d)

        monkeypatch.setattr(distortion, "undistort", counted)
        got = undistort_array(spec, xy)
        assert_rows_agree(got, want)
        assert no_root.any()
        assert np.array_equal(np.isnan(got).any(axis=1), no_root)
        assert not calls
        # Both compute the radius as sqrt(x*x + y*y) and take the same
        # steps from it, so every row agrees to the bit.
        assert np.array_equal(got, want, equal_nan=True)


def bench_undistort():
    """scripts/bench_undistort.py as a module: its seeded point rows."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_undistort.py"
    spec = importlib.util.spec_from_file_location("bench_undistort", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInverseContract:
    def test_seeded_fuzz(self):
        # All three models; |k1| and |k2| log-uniform over 80 decades with
        # either sign, and k2 = 0 for every tenth spec; observed radii
        # log-uniform from 1e-300 up to near the largest float, and for a
        # folding spec radii below, at and just above F(fold). The contract:
        # (a) a radius lies in [0, fold] and passes its residual check;
        # (b) a radius is flagged only above F(fold), where no root exists
        # (over these decades F's terms never overflow at a root, the other
        # cause of a flag); (c) the array flags the same rows as the scalar
        # solve and agrees with it to the bit; (d) no numpy warning, which
        # the suite makes an error.
        rng = np.random.default_rng(2027)
        flagged = solved = 0
        for i in range(600):
            k1, k2 = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-40.0, 40.0, 2)).tolist()
            spec = DistortionSpec(list(Model)[i % 3], k1, 0.0 if i % 10 == 9 else k2)
            fold, top = spec.fold, distortion._radius_solve(spec).top
            r_d = 10.0 ** rng.uniform(-300.0, 308.25, 24)
            if fold < math.inf:
                assert abs(top - fold * warp_factor(spec, fold)) <= 1e-14 * top
                below = 1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 8)
                above = 1.0 + 10.0 ** -rng.uniform(1.0, 15.0, 3)
                r_d = np.concatenate([r_d, top * rng.uniform(0.0, 1.0, 8), top * below, [top], top * above])
            want = np.full(r_d.shape, np.nan)
            for j, y in enumerate(r_d.tolist()):
                try:
                    want[j] = invert_radius_newton(spec, y)
                except NoRealSolution:
                    pass
            assert np.array_equal(distortion._newton_radius_array(spec, r_d), want, equal_nan=True), spec
            ok = ~np.isnan(want)
            assert np.array_equal(~ok, r_d > top), spec
            r, y = want[ok], r_d[ok]
            assert np.all((0.0 <= r) & (r <= fold)), spec
            with np.errstate(over="ignore"):
                residual = r * warp_factor(spec, r) - y
            assert np.all(np.abs(residual) <= 1e-12 * np.maximum(1.0, y)), spec
            flagged += int(np.sum(~ok))
            solved += int(np.sum(ok))
        assert flagged > 2000 and solved > 15000

    @pytest.mark.parametrize(
        "spec,want_fold,want_top,roots",
        [
            # b^2 of the fold's quadratic overflows: the fold was inf, and the
            # radii past it ran out of steps.
            (DistortionSpec(Model.MODEL3, 2.98e180, -2.41e207), 8.2434e-28, 6.750e125,
             {1e-20: 5.7928e-101, 1e100: 5.7928e-41}),
            (DistortionSpec(Model.MODEL1, 1e200, -1e250), 7.746e-26, 1.859e124, {}),
            # k1 ** -1 overflows in the dominant term's reach: OverflowError.
            (DistortionSpec(Model.MODEL3, 1e-310, -0.1), 1.8257, 1.2172, {}),
            (DistortionSpec(Model.MODEL3, 5e-324, 0.05), math.inf, math.inf, {1e300: 2.7144e100}),
            # The coefficients of F' overflow: the fold was inf, a radius
            # past it ran out of steps instead of being flagged, and a
            # radius with a root got no Newton slope.
            (DistortionSpec(Model.MODEL3, -1e308, 0.0), 5e-309, 2.5e-309, {}),
            (DistortionSpec(Model.MODEL2, -1e308), 5.7735e-155, 3.849e-155, {1e-160: 1e-160}),
            (DistortionSpec(Model.MODEL3, 1e308, -1e308), 0.66667, 1.4815e307, {1e-300: 9.9995e-305}),
            (DistortionSpec(Model.MODEL1, 1e300, -1e308), 7.7460e-5, 1.8590e287, {1e-300: 1e-300, 1e-100: 4.6416e-134}),
        ],
        ids=[
            "model3-fold-overflow", "model1-fold-overflow", "model3-k1-1e-310", "model3-k1-5e-324",
            "model3-slope-overflow", "model2-slope-overflow", "model3-both-overflow", "model1-k2-overflow",
        ],
    )
    def test_extreme_coefficients(self, spec, want_fold, want_top, roots):
        assert spec.fold == pytest.approx(want_fold, rel=1e-4, abs=0.0)
        solve = distortion._radius_solve(spec)
        assert solve.top == pytest.approx(want_top, rel=1e-3, abs=0.0)
        if spec.fold < math.inf:
            # F'(fold) = 0 within the rounding of its terms; F' > 0 below it.
            _, _, _, c1, c2, unit = solve.terms
            s = spec.fold if spec.model is Model.MODEL3 else spec.fold ** 2
            slope = distortion._radius_map(solve.terms, spec.fold)[1]
            assert abs(slope) <= 1e-14 * (unit + abs(c1 * s) + abs(c2 * s * s)) / unit
            assert distortion._radius_map(solve.terms, spec.fold * (1.0 - 1e-9))[1] > 0.0
        top = solve.top
        near = [top * 0.5, top * (1.0 - 1e-15), top, top * (1.0 + 1e-15)] if top < math.inf else []
        r_d = np.concatenate([10.0 ** np.linspace(-320.0, 308.0, 80), near, list(roots)])
        want = newton_radii(spec, r_d)
        assert np.array_equal(distortion._newton_radius_array(spec, r_d), want, equal_nan=True)
        assert np.array_equal(np.isnan(want), r_d > top)
        for y in r_d[r_d > top].tolist():
            with pytest.raises(NoRealSolution):
                invert_radius_newton(spec, y)
        for y, r in roots.items():
            assert invert_radius_newton(spec, y) == pytest.approx(r, rel=1e-4, abs=0.0)
        xy = np.column_stack([r_d, np.zeros_like(r_d)])
        assert_rows_agree(undistort_array(spec, xy), scalar_undistort_rows(spec, xy))

    def test_radii_are_accurate_to_the_last_bits(self):
        # model1 used to stop at a residual of 1e-12 absolute, which below
        # r_d = 1 left this radius 3.0e-11 relative from its root
        # (0.03284073094962725); 492 of bench_undistort's 20,000 rows were
        # off by more than 1e-12.
        spec = DistortionSpec(Model.MODEL1, -0.2, 0.05)
        root = 0.032840730950615106
        assert abs(invert_radius_newton(spec, 0.03283364902556385) - root) <= 2.0 * math.ulp(root)
        # The benchmark's seeded rows, each model within 2e-15 of the radius
        # that generated the row; the paper's closed form alone is within
        # 1e-11 of the returned root, which only polishes it.
        bench = bench_undistort()
        rng = np.random.default_rng(bench.SEED)
        for name, spec in bench.SPECS.items():
            xy = bench.disk_points(bench.R_MAX, rng)
            r_true = radius_array(xy)
            r_d = radius_array(distort_array(spec, xy))
            r = distortion._newton_radius_array(spec, r_d)
            assert np.all(np.abs(r - r_true) <= 2e-15 * r_true), name
            if spec.model is not Model.MODEL1:
                start = distortion._radius_solve(spec).cubic.admissible_root_array(r_d)
                assert np.all(np.abs(start - r) <= 1e-11 * r), name


class TestRadialSymmetry:
    @pytest.mark.parametrize(
        "model,k1,k2",
        [
            (Model.MODEL1, -0.2, 0.05),
            (Model.MODEL2, -0.2, 0.0),
            (Model.MODEL3, -0.1, -0.05),
        ],
    )
    def test_polar_angle_preserved(self, model, k1, k2):
        spec = DistortionSpec(model, k1, k2)
        rng = np.random.default_rng(7)
        for n, d in disk_pairs(spec, rng, 0.8, 1000):
            if n.radius < 1e-9:
                continue
            assert warp_factor(spec, n.radius) > 0
            assert abs(math.atan2(d.y, d.x) - math.atan2(n.y, n.x)) <= 1e-12
            back = undistort(spec, d)
            assert abs(math.atan2(back.y, back.x) - math.atan2(d.y, d.x)) <= 1e-12

    @given(st.floats(-0.55, 0.55), st.floats(-0.55, 0.55))
    @settings(max_examples=300)
    def test_undistort_commutes_with_negation(self, x, y):
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        d = NormalizedPoint(*distort_array(spec, np.array([[x, y]]))[0].tolist())
        a = undistort(spec, d)
        b = undistort(spec, NormalizedPoint(-d.x, -d.y))
        assert abs(a.x + b.x) <= 1e-12
        assert abs(a.y + b.y) <= 1e-12
