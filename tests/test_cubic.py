import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialcal import cubic
from radialcal.cubic import _polish, real_roots
from oracles import (
    bisect_cubic_roots,
    cubic_residual,
    forward_component_model3,
    undistort_component,
    undistort_xy,
)


def residual_scale(y: float, p: float, q: float, x: float) -> float:
    # Backward-error denominator: the bound a float evaluation can honor.
    ax = abs(x)
    return max(1.0, abs(y)) + ax + abs(p) * (ax * ax) + abs(q) * (ax * ax * ax)


class TestQuadraticRoots:
    def test_linear_and_constant_equations(self):
        assert cubic._quadratic_roots(0.0, 2.0, -3.0) == (1.5,)
        assert cubic._quadratic_roots(0.0, 0.0, 1.0) == ()

    def test_small_root_does_not_cancel(self):
        # x^2 + 1e8 x + 1: b - sqrt(disc) would lose the root near -1e-8.
        big, small = cubic._quadratic_roots(1.0, 1e8, 1.0)
        assert math.isclose(big, -1e8, rel_tol=1e-15)
        assert math.isclose(small, -1e-8, rel_tol=1e-15)

    def test_discriminant_within_noise_counts_as_zero(self):
        # x^2 - 2x + (1 + 2^-52): the discriminant is -2^-50, 1.1e-16 of its
        # terms' magnitudes.
        c = 1.0 + 2.0 ** -52
        assert cubic._quadratic_roots(1.0, -2.0, c, noise=4e-15) == (1.0, c)
        assert cubic._quadratic_roots(1.0, -2.0, c) == ()
        assert cubic._quadratic_roots(1.0, -2.0, 1.5, noise=4e-15) == ()


class TestPolish:
    def test_verifies_by_the_residual(self):
        # x^3 + x - 2 = (x - 1)(x^2 + x + 2): one real root, at 1.
        assert _polish(2.0, 0.0, 1.0, 1.5) == (1.0, True)
        assert _polish(2.0, 0.0, 1.0, math.nan)[1] is False
        # Terms that overflow can be neither verified nor refuted.
        assert _polish(2.0, 0.0, 1.0, 1e200)[1] is False
        # A zero slope stops the steps where they are: 1 + 2 p x + 3 q x^2
        # vanishes at x = 1 for (p, q) = (-2, 1), where the residual is 0.3.
        assert _polish(-0.3, -2.0, 1.0, 1.0) == (1.0, False)


class TestRealRoots:
    def test_linear_case(self):
        roots = real_roots(0.42, 0.0, 0.0)
        assert roots == (0.42,)

    def test_single_real_root_with_complex_pair_discarded(self):
        # x^3 + x^2 + x - 3 = (x - 1)(x^2 + 2x + 3); the quadratic factor has
        # negative discriminant, so only x = 1 survives.
        roots = real_roots(3.0, 1.0, 1.0)
        assert len(roots) == 1
        assert math.isclose(roots[0], 1.0, abs_tol=1e-12)

    def test_quadratic_degenerate_two_roots(self):
        # x^2 + x - 2 = (x + 2)(x - 1)
        roots = real_roots(2.0, 1.0, 0.0)
        assert np.allclose(roots, [-2.0, 1.0], atol=1e-12)

    def test_quadratic_degenerate_no_real_roots(self):
        roots = real_roots(-1.0, 1.0, 0.0)
        assert len(roots) == 0

    def test_three_distinct_real_roots(self):
        # (x-1)(x-2)(x-3) = 0 scaled so the linear coefficient is one.
        roots = real_roots(6.0 / 11.0, -6.0 / 11.0, 1.0 / 11.0)
        assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)

    def test_triple_root(self):
        # q = 1/(3a^2), p = -1/a, y = a/3 makes (x - a)^3 after scaling; a = 1.
        roots = real_roots(1.0 / 3.0, -1.0, 1.0 / 3.0)
        assert len(roots) == 3
        assert np.allclose(roots, 1.0, atol=1e-6)

    def test_tiny_q_routes_to_quadratic(self):
        with_q = real_roots(2.0, 1.0, 1e-20)
        without = real_roots(2.0, 1.0, 0.0)
        assert len(with_q) == len(without)
        assert np.allclose(with_q, without, atol=1e-12)

    def test_polish_stops_at_rounding_noise(self, monkeypatch):
        # The quadratic path's starts on criterion 2's triples with q scaled
        # to 1e-15: once a step is rounding noise the polish stops, so a
        # budget of 8 steps gives the very value 50 steps give.
        assert cubic._POLISH_STEPS == 50
        rng = np.random.default_rng(1002)
        n = 20000
        ys = rng.uniform(-3.0, 3.0, n).tolist()
        ps = rng.uniform(-2.0, 2.0, n).tolist()
        qs = (rng.uniform(-2.0, 2.0, n) * 1e-15).tolist()
        cases = []
        for y, p, q in zip(ys, ps, qs):
            disc = 1.0 + 4.0 * p * y
            if disc < 0.0:
                continue
            u = -0.5 * (1.0 + math.sqrt(disc))
            cases += [(y, p, q, u / p), (y, p, q, -y / u)]
        full = [_polish(*case) for case in cases]
        monkeypatch.setattr(cubic, "_POLISH_STEPS", 8)
        for case, x in zip(cases, full):
            assert _polish(*case) == x, case

    def test_roots_come_back_sorted(self):
        # (x-3)(x-1)(x-2) with the linear coefficient one; the closed form
        # gives the three trigonometric roots out of order.
        assert real_roots(6.0 / 11.0, -6.0 / 11.0, 1.0 / 11.0) == tuple(
            sorted(real_roots(6.0 / 11.0, -6.0 / 11.0, 1.0 / 11.0))
        )
        rng = np.random.default_rng(8)
        for y, p, q in rng.uniform(-3.0, 3.0, (2000, 3)).tolist():
            roots = real_roots(y, p, q)
            assert isinstance(roots, tuple) and len(roots) <= 3
            assert list(roots) == sorted(roots)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_coefficient_raises(self, bad, slot):
        coeffs = [0.5, -0.1, 0.02]
        coeffs[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            real_roots(*coeffs)

    def test_numpy_scalar_coefficients_do_not_overflow(self):
        # An np.float64 p below about 1e-154 overflowed (with a warning,
        # an error under this suite) in the quadratic path's far root,
        # where Python floats give inf silently; the coefficients are
        # converted to floats first.
        rng = np.random.default_rng(41)
        for _ in range(20000):
            y = rng.uniform(-3.0, 3.0)
            p = rng.choice([-1, 1]) * 10 ** rng.uniform(-320, 3)
            for x in real_roots(y, p, np.float64(0.0)):
                assert type(x) is float
                assert abs(cubic_residual(y, float(p), 0.0, x)) <= 1e-9 * residual_scale(y, float(p), 0.0, x)

    def test_huge_constant_term_keeps_its_root(self):
        # Every cubic has a real root. The bisection fallback used Cauchy's
        # bracket 1 + max(|p|, 1, |y|) / |q|, whose cube overflows once |y|
        # passes about 1e102 |q|: the residual there was NaN, the bracket
        # was oriented at random, and the root could be lost. For the first
        # triple that bracket is 3.7e195, and real_roots returned ().
        y, p, q = -6.67e196, -0.219, -18.24
        (x,) = real_roots(y, p, q)
        assert abs(x - 1.5406e65) <= 1e-4 * 1.5406e65
        assert abs(cubic_residual(y, p, q, x)) <= 1e-9 * residual_scale(y, p, q, x)
        rng = np.random.default_rng(43)
        for _ in range(3000):
            y = rng.choice([-1, 1]) * 10 ** rng.uniform(100, 200)
            p, q = rng.choice([-1, 1], 2) * 10 ** rng.uniform(-3, 3, 2)
            roots = real_roots(y, p, q)
            assert roots, (y, p, q)
            for x in roots:
                assert abs(cubic_residual(y, p, q, x)) <= 1e-9 * residual_scale(y, p, q, x)

    def test_double_root_is_not_left_by_the_polish(self):
        # Near a double root the residual reaches its rounding noise while
        # Newton's steps are still large, so an unguarded polish wanders off
        # along the flat of the cubic. The attainable accuracy there is about
        # sqrt(eps) relative: a coefficient's rounding moves a double root
        # that far.
        rng = np.random.default_rng(2020)
        # The quadratic regime at an exactly zero discriminant in floats:
        # both roots are the double root -1 / (2p).
        checked = 0
        for y in rng.uniform(0.1, 10.0, 3000).tolist():
            nearest = -1.0 / (4.0 * y)
            below, above = [nearest], [nearest]
            for _ in range(3):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            for p in below + above[1:]:
                if 1.0 + 4.0 * p * y != 0.0:
                    continue
                checked += 1
                double = -1.0 / (2.0 * p)
                roots = real_roots(y, p, 0.0)
                assert len(roots) == 2, (y, p)
                for x in roots:
                    assert abs(x - double) <= 1e-7 * abs(double), (y, p, roots)
        assert checked > 1000
        # q (x - a)^2 (x - b), scaled so the linear coefficient is one.
        checked = 0
        while checked < 5000:
            a, b = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-1.0, 1.0, 2)
            den = a * a + 2.0 * a * b
            if abs(a - b) < 0.1 * abs(a) or abs(den) < 1e-3 * a * a:
                continue
            checked += 1
            q = 1.0 / den
            a, p, q, y = float(a), float(-q * (b + 2.0 * a)), float(q), float(q * a * a * b)
            for x in real_roots(y, p, q):
                if abs(x - a) <= 1e-3 * abs(a):
                    assert abs(x - a) <= 1e-6 * abs(a), (a, b, p, q, y)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=500)
    def test_every_root_satisfies_cubic(self, y, p, q):
        for x in real_roots(y, p, q):
            assert abs(cubic_residual(y, p, q, x)) <= 1e-9 * residual_scale(y, p, q, x)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(42)
        n = 20000
        ys = rng.uniform(-3.0, 3.0, n)
        ps = rng.uniform(-2.0, 2.0, n)
        qs = rng.uniform(-2.0, 2.0, n)
        oracle_roots, oracle_counts = bisect_cubic_roots(ys, ps, qs)
        for i in range(n):
            L = 10.0 * (1.0 + abs(ys[i]))
            mine = [x for x in real_roots(ys[i], ps[i], qs[i]) if abs(x) <= L]
            assert len(mine) == oracle_counts[i], (ys[i], ps[i], qs[i])
            for got, want in zip(mine, oracle_roots[i]):
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


class TestUndistortComponent:
    def test_zero_maps_to_zero(self):
        assert undistort_component(0.0, 1.7, -0.1, -0.05) == 0.0

    def test_inverts_forward_evaluation(self):
        # Forward oracle at x = 0.3, c = 4/3 gives x_d = 0.28125 exactly.
        k1, k2, c = -0.1, -0.05, 4.0 / 3.0
        x_d = forward_component_model3(0.3, c, k1, k2)
        assert math.isclose(x_d, 0.28125, abs_tol=1e-15)
        x = undistort_component(x_d, c, k1, k2)
        assert math.isclose(x, 0.3, abs_tol=1e-9)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            k1, k2 = rng.uniform(-0.3, 0.3, 2)
            c = rng.uniform(-5.0, 5.0)
            x = rng.uniform(-0.8, 0.8)
            x_d = forward_component_model3(x, c, k1, k2)
            plus = undistort_component(x_d, c, k1, k2)
            minus = undistort_component(-x_d, c, k1, k2)
            assert abs(plus + minus) <= 1e-12 * max(1.0, abs(plus))


class TestUndistortXY:
    def test_origin_fixed(self):
        assert undistort_xy(0.0, 0.0, -0.1, -0.05) == (0.0, 0.0)

    def test_y_axis_case_solved_by_swapped_axes(self):
        k1, k2 = -0.1, -0.05
        y = 0.45
        y_d = forward_component_model3(y, 0.0, k1, k2)
        got = undistort_xy(0.0, y_d, k1, k2)
        assert got[0] == 0.0
        assert math.isclose(got[1], y, abs_tol=1e-9)

    def test_documented_round_trip(self):
        x, y = undistort_xy(0.28125, 0.375, -0.1, -0.05)
        assert math.isclose(x, 0.3, abs_tol=1e-9)
        assert math.isclose(y, 0.4, abs_tol=1e-9)

    def test_random_round_trips_on_monotone_specs(self):
        from radialcal.distortion import DistortionSpec, Model, WorkingDomain, validate_monotone

        rng = np.random.default_rng(19)
        dom = WorkingDomain(0.8)
        checked = 0
        while checked < 20:
            k1, k2 = rng.uniform(-0.3, 0.3, 2)
            spec = DistortionSpec(Model.MODEL3, k1, k2)
            if not validate_monotone(spec, dom):
                continue
            checked += 1
            for _ in range(100):
                r = 0.8 * math.sqrt(rng.uniform(0, 1))
                phi = rng.uniform(-math.pi, math.pi)
                x, y = r * math.cos(phi), r * math.sin(phi)
                f = 1.0 + k1 * r + k2 * r * r
                got = undistort_xy(x * f, y * f, k1, k2)
                assert math.hypot(got[0] - x, got[1] - y) <= 1e-9

    def test_unique_admissible_root_on_monotone_domain(self):
        # Within the validated radius interval the matching-sign branch holds
        # exactly one root, so the final closest-to-observation tie-break can
        # never pick a wrong in-domain candidate.
        from radialcal.distortion import DistortionSpec, Model, WorkingDomain, validate_monotone

        rng = np.random.default_rng(31)
        r_max = 0.8
        dom = WorkingDomain(r_max)
        checked = 0
        while checked < 10:
            k1, k2 = rng.uniform(-0.3, 0.3, 2)
            if not validate_monotone(DistortionSpec(Model.MODEL3, k1, k2), dom):
                continue
            checked += 1
            for _ in range(200):
                x = rng.uniform(1e-3, r_max / math.sqrt(2))
                c = rng.uniform(-1.0, 1.0)
                x_d = forward_component_model3(x, c, k1, k2)
                scale = 1.0 + c * c
                roots = real_roots(x_d, k1 * math.sqrt(scale), k2 * scale)
                in_domain = [
                    t
                    for t in roots
                    if t > 1e-14 and abs(t) * math.sqrt(scale) <= r_max * (1 + 1e-9)
                ]
                assert len(in_domain) == 1
