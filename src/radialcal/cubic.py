"""Real-root extraction for ``y = x + p x^2 + q x^3``, and the closed-form
start of the radius inverse of the radial warps built on it.

RadiusCubic holds the radius equation ``r + p r^2 + q r^3 = r_d`` of the
model2 (``p = 0``) and model3 warps. Its ``admissible_root`` is the paper's
closed-form radius, the first root on the rising branch of the cubic, for one
point or, in ``admissible_root_array``, for a whole array of points at once:
the quadratic ``r + p r^2 = r_d`` when ``q`` is negligible, and the depressed
cubic otherwise. ``distortion.invert_radius_newton`` starts its bracketed
Newton solve there, which polishes it, flags a radius past the fold and
verifies the result; the paper's component form of the model3 inverse (two
sign-branch solves per point) is the test suite's oracle for this radius
form. The cubic does not know its fold: ``distortion._radius_solve`` finds
the fold of all three models with ``_quadratic_roots``, the one quadratic
formula, which also serves the quadratic regime and the deflation here.

The cubic is solved through the depressed-cubic substitution with the
trigonometric method in the three-real-root regime and a cancellation-safe
Cardano form otherwise. This is numerically equivalent to the textbook
radical formulas but avoids complex intermediates and the division by ``q``
they require. The scalar closed form is written once, in
``RadiusCubic.closed_form``. ``real_roots(y, p, q)`` (through
``_solve_cubic``) polishes all of its roots by a short Newton iteration on
the original equation that never takes a step growing the residual, then
verifies each by that residual, and returns them as a sorted tuple.

The discriminant of the depressed cubic is itself a difference of two
near-equal quantities once the coefficients span many decades, so its sign
(the 1-versus-3 real root decision) is only trusted when it clears the
cancellation noise floor; otherwise the root multiset is rebuilt by deflating
the polynomial at one verified root, which turns the remaining count decision
into a well-conditioned quadratic discriminant.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Relative threshold under which the cubic degenerates to a quadratic; the
# radical formulas divide by q, so tiny q must be routed away explicitly.
_Q_NEGLIGIBLE = 1e-14
# |disc| below this multiple of its own term magnitudes is considered
# indistinguishable from rounding noise.
_DISC_MARGIN = 1e-9
# A Newton step this small (relative to 1 + |x| in _polish, to the radius in
# the radius solve) is rounding noise of the residual: the error left after
# it is of order step^2, far below one ulp, while a tighter bound sits under
# the noise and keeps iterating.
_STEP_TOL = 4.0 * sys.float_info.epsilon
# Newton steps _polish takes at most before it returns its last iterate.
_POLISH_STEPS = 50
# Halvings _any_root_bisect takes at most: with |q| >= 1e-14 (1 + |p|) its
# bracket is narrower than 2^359, and reaches the width test's floor,
# 1e-15 > 2^-50, within 409 of them.
_BISECT_HALVINGS = 410
# The three trigonometric roots are m cos((phi + k) / 3) - shift for these k.
_TRIG_OFFSETS = (0.0, 2.0 * math.pi, 4.0 * math.pi)


class NoRealSolution(ValueError):
    """No admissible real root exists; the point lies outside model validity."""


def _cbrt(x: float) -> float:
    # math.cbrt only exists on 3.11+; pow on the magnitude keeps the sign exact.
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(y: float, p: float, q: float, x: float) -> tuple[float, bool]:
    """Guarded Newton iteration on the original cubic, and whether its last
    iterate is a root.

    Converges in two or three steps from closed-form values; the larger step
    budget only matters for starts produced in ill-conditioned regimes. A
    step whose residual is larger than the current one is not taken: at a
    double root the residual reaches its rounding noise before the step
    does, and Newton would then wander along the flat of the cubic. The
    iterate is verified when its residual is within ``1e-9`` of the
    magnitude of the cubic's terms; one whose terms overflow can be neither
    verified nor refuted in double arithmetic, and is not.
    """
    xx = x * x
    g = x + p * xx + q * (xx * x) - y
    for _ in range(_POLISH_STEPS):
        dg = 1.0 + 2.0 * p * x + 3.0 * q * xx
        if dg == 0.0 or not math.isfinite(g):
            break
        step = g / dg
        x_new = x - step
        xx_new = x_new * x_new
        g_new = x_new + p * xx_new + q * (xx_new * x_new) - y
        # A non-finite x_new has a non-finite residual, which this refuses.
        if not abs(g_new) <= abs(g):
            break
        x, xx, g = x_new, xx_new, g_new
        if abs(step) <= _STEP_TOL * (1.0 + abs(x)):
            break
    ax = abs(x)
    bound = 1e-9 * (max(1.0, abs(y)) + ax + abs(p) * (ax * ax) + abs(q) * (ax * ax * ax))
    return x, abs(g) <= bound < math.inf


def _any_root_bisect(y: float, p: float, q: float) -> float:
    """Defensive fallback: one guaranteed real root by bisection.

    All roots lie within Fujiwara's bound M, beyond which the cubic term
    dominates and fixes the sign of the residual. M is at most six times
    the largest modulus of a root, complex ones included, so its terms
    overflow only with those of the cubic at that root.
    """
    M = 2.0 * max(abs(p / q), abs(q) ** -0.5, abs(_cbrt(0.5 * y) / _cbrt(q)))
    a, b = -M, M
    ga = a + p * a * a + q * (a * a * a) - y
    if ga == 0.0:
        return a
    if ga > 0.0:
        a, b = b, a
    for _ in range(_BISECT_HALVINGS):
        mid = 0.5 * (a + b)
        gm = mid + p * mid * mid + q * (mid * mid * mid) - y
        if gm == 0.0:
            return mid
        if gm < 0.0:
            a = mid
        else:
            b = mid
        if abs(b - a) <= 1e-15 * (1.0 + abs(mid)):
            break
    return 0.5 * (a + b)


def _quadratic_roots(a: float, b: float, c: float, noise: float = 0.0) -> tuple[float, ...]:
    """Real roots of ``a x^2 + b x + c``; the one root of ``b x + c`` when
    ``a == 0``.

    The roots are ``u / a`` and ``c / u`` with ``u = -(b + sign(b)
    sqrt(disc)) / 2``, a pairing in which b and sqrt(disc) never cancel
    (Press et al., Numerical Recipes, section 5.6). Where the discriminant
    ``b^2 - 4 a c`` overflows, ``b`` and ``u`` are taken in units of ``g``,
    the larger of ``|b|`` and ``sqrt(|a c|)``, so that none of its terms
    can; elsewhere ``g = 1`` and the formula's bits are the plain one's. A
    negative discriminant within ``noise`` of its terms' magnitudes is
    rounding noise around a double root and counts as 0; beyond that the
    roots are a complex pair and none is returned.
    """
    if a == 0.0:
        return () if b == 0.0 else (-c / b,)
    four_ac = 4.0 * a * c
    disc = b * b - four_ac
    g = 1.0
    if not math.isfinite(disc):
        # g is 0 only where 4 a overflows and b = c = 0; any unit serves there.
        g = max(abs(b), math.sqrt(abs(a)) * math.sqrt(abs(c))) or 1.0
        b, four_ac = b / g, 4.0 * (a * (c / g) / g)
        disc = b * b - four_ac
    if disc < 0.0:
        if noise == 0.0 or disc < -noise * (b * b + abs(four_ac)):
            return ()
        disc = 0.0
    u = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    if u == 0.0:
        return (0.0, 0.0)
    return (u / a * g, c / g / u)


def _quadratic_path(y: float, p: float, q: float) -> tuple[float, ...]:
    """Roots when the cubic term is negligible: ``p x^2 + x - y = 0``.

    The dropped ``q x^3`` term can still dominate at the quadratic's far root
    when p is itself tiny, so candidates are kept only if they satisfy the
    full cubic.
    """
    polished = (_polish(y, p, q, x) for x in _quadratic_roots(p, 1.0, -y))
    return tuple(x for x, verified in polished if verified)


def _deflated_pair(y: float, p: float, q: float, anchor: float) -> tuple[float, ...]:
    """The other two roots given one exact root, via stable deflation.

    Coefficients of ``q x^2 + beta x + gamma`` come from the symmetric
    functions of the remaining pair; ``gamma = y / anchor`` is a plain
    division, and ``beta`` falls back to the symmetric-function form when
    the synthetic-division expression cancels. A slightly negative
    discriminant of that quadratic is rounding noise around a genuine
    double root.
    """
    if anchor == 0.0:
        # Only possible when y = 0: the cubic factors as x (q x^2 + p x + 1).
        beta, gamma = p, 1.0
    else:
        gamma = y / anchor
        beta = p + q * anchor
        if abs(beta) < 1e-6 * (abs(p) + abs(q * anchor)):
            beta = -(1.0 - y / anchor) / anchor
    return _quadratic_roots(q, beta, gamma, noise=4e-15)


def _solve_cubic(cubic: RadiusCubic, y: float) -> tuple[float, ...]:
    """All real roots as a plain tuple (unsorted); the core of real_roots."""
    p, q = cubic.p, cubic.q
    if cubic.quadratic:
        return _quadratic_path(y, p, q)
    raw, decided = cubic.closed_form(y)
    polished = [_polish(y, p, q, x) for x in raw]
    verified = [x for x, ok in polished if ok]
    if decided and len(verified) == len(raw):
        return tuple(verified)
    # Uncertain or failed-verification zone: the root multiset is rebuilt by
    # deflation from one anchor root, the verified one of largest magnitude
    # (the best-conditioned choice) or else a bisection root. Covers wrong
    # discriminant signs, root clusters collapsing onto a critical point,
    # and exact multiple roots. A bisection anchor that fails verification
    # still deflates, but is not returned.
    if verified:
        anchor, anchored = max(verified, key=abs), True
    else:
        anchor, anchored = _polish(y, p, q, _any_root_bisect(y, p, q))
    pair = (_polish(y, p, q, x) for x in _deflated_pair(y, p, q, anchor))
    roots = tuple(x for x, ok in pair if ok)
    return (anchor,) + roots if anchored else roots


def real_roots(y: float, p: float, q: float) -> tuple[float, ...]:
    """All real solutions of ``y = x + p x^2 + q x^3``, ascending and with
    multiplicity.

    Degenerate leading coefficients fall back to the quadratic/linear cases;
    complex-conjugate pairs are never returned. The coefficients are taken
    as Python floats; a non-finite one raises ValueError.
    """
    y, p, q = float(y), float(p), float(q)
    if not (math.isfinite(y) and math.isfinite(p) and math.isfinite(q)):
        raise ValueError("cubic coefficients must be finite")
    return tuple(sorted(_solve_cubic(RadiusCubic(p, q), y)))


class RadiusCubic:
    """The radius equation ``r + p r^2 + q r^3 = r_d`` of one warp.

    model3 has ``(p, q) = (k1, k2)`` and model2 ``(0, k1)``. Everything of the
    closed form that depends only on (p, q) is computed here once;
    ``closed_form`` adds the ``r_d`` term and returns the raw roots of the
    depressed cubic. ``F(r) = r + p r^2 + q r^3`` rises from ``F(0) = 0`` up
    to its fold (``DistortionSpec.fold``, the one fold formula), so the
    admissible root is the smallest nonnegative one. ``admissible_root``
    takes that root; with a negligible ``q`` the equation is the quadratic
    ``r + p r^2 = r_d`` and that root is its small one. Whether it lies
    past the fold is for the radius solve to find.
    """

    __slots__ = ("p", "q", "quadratic", "shift", "Q0", "P", "third", "cube", "m")

    def __init__(self, p: float, q: float) -> None:
        self.p = p
        self.q = q
        # The cubic's constants divide by q; below this it is a quadratic.
        self.quadratic = abs(q) < _Q_NEGLIGIBLE * (1.0 + abs(p))
        if self.quadratic:
            return
        # Monic form x^3 + B x^2 + C x + D (D = -r_d / q), depressed via
        # x = z - B/3; Q0 is the depressed constant term without D.
        B = p / q
        C = 1.0 / q
        self.shift = B / 3.0
        self.P = C - B * B / 3.0
        self.Q0 = 2.0 * B ** 3 / 27.0 - B * C / 3.0
        self.third = self.P / 3.0
        self.cube = self.third * self.third * self.third
        self.m = 2.0 * math.sqrt(-self.third) if self.third < 0.0 else 0.0

    def closed_form(self, r_d: float) -> tuple[tuple[float, ...], bool]:
        """Raw roots of the cubic for ``r_d``, and whether they are decided.

        One real root (Cardano) when the depressed cubic's discriminant is
        decisively positive, three (trigonometric form) when it is decisively
        negative. Inside the cancellation noise of the discriminant the count
        is undecided, and the one value returned is Cardano's formula on its
        magnitude: a Newton start, not a root. Not for the quadratic regime.
        """
        Q = self.Q0 - r_d / self.q
        half = 0.5 * Q
        cube = self.cube
        disc = half * half + cube
        noise = half * half + abs(cube)
        if disc < -_DISC_MARGIN * noise:
            # Three real roots, pairwise separated by the same margin (casus
            # irreducibilis).
            m = self.m
            arg = 3.0 * Q / (self.P * m)
            if arg > 1.0:
                arg = 1.0
            elif arg < -1.0:
                arg = -1.0
            phi = math.acos(arg)
            roots = [m * math.cos((phi + k) / 3.0) - self.shift for k in _TRIG_OFFSETS]
            return tuple(roots), True
        # The larger-magnitude cube root: its radicand adds sqrt(disc) to
        # -half without cancelling, and the other factor is -third / u.
        sq = math.sqrt(abs(disc))
        u = _cbrt(-half + sq if half <= 0.0 else -half - sq)
        root = (u - self.third / u if u != 0.0 else 0.0) - self.shift
        return (root,), disc > _DISC_MARGIN * noise

    def admissible_root(self, r_d: float) -> float:
        """The closed form's root of ``r + p r^2 + q r^3 = r_d`` on the rising
        branch: its smallest nonnegative root, inf when it has none.

        With a negligible ``q`` it is the small root ``2 r_d / (1 + sqrt(1 +
        4 p r_d))`` of the quadratic, in the form that does not cancel, and
        inf where the dropped term ``q r^3`` is not negligible at that root.
        A start for the rising-branch solve, not a verified root: it may lie
        past the fold, or be inf where the discriminant overflows.
        """
        if self.quadratic:
            disc = 1.0 + 4.0 * self.p * r_d
            if disc < 0.0:
                return math.inf
            x = 2.0 * r_d / (1.0 + math.sqrt(disc))
            return x if abs(self.q) * x * x <= _Q_NEGLIGIBLE * (1.0 + abs(self.p) * x) else math.inf
        best = math.inf
        for x in self.closed_form(r_d)[0]:
            if 0.0 <= x < best:
                best = x
        return best

    def admissible_root_array(self, r_d: np.ndarray) -> np.ndarray:
        """admissible_root for a 1-D array of observed radii, to the bit.

        The arithmetic is numpy's, lane by lane the scalar's; the cube roots
        and arccosines are Python's, lane by lane, since numpy's may round
        differently.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.quadratic:
                # A negative discriminant gives NaN, which the test refuses.
                x = 2.0 * r_d / (1.0 + np.sqrt(1.0 + 4.0 * self.p * r_d))
                return np.where(abs(self.q) * x * x <= _Q_NEGLIGIBLE * (1.0 + abs(self.p) * x), x, np.inf)
            Q = self.Q0 - r_d / self.q
            half = 0.5 * Q
            disc = half * half + self.cube
            noise = half * half + abs(self.cube)
            three = disc < -_DISC_MARGIN * noise
            root = np.empty(r_d.shape)
            if three.any():
                m = self.m
                arg = np.clip(3.0 * Q[three] / (self.P * m), -1.0, 1.0)
                phi = np.fromiter(map(math.acos, arg.tolist()), float, arg.size)
                raw = m * np.cos((phi[:, None] + _TRIG_OFFSETS) / 3.0) - self.shift
                root[three] = np.where(raw >= 0.0, raw, np.inf).min(axis=1)
            one = ~three
            if one.any():
                h = half[one]
                sq = np.sqrt(np.abs(disc[one]))
                v = np.where(h <= 0.0, -h + sq, -h - sq)
                u = np.copysign(np.fromiter(map(pow, np.abs(v).tolist(), [1.0 / 3.0] * v.size), float, v.size), v)
                root[one] = np.where(u != 0.0, u - self.third / u, 0.0) - self.shift
            return np.where(root >= 0.0, root, np.inf)
