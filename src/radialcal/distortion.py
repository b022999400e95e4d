"""Radial distortion models, the warp, and its inverse.

Three radial warp factors are supported, each acting on the normalized image
plane as ``(x_d, y_d) = f(r) * (x, y)`` with ``r = sqrt(x^2 + y^2)``:

* ``model1``: ``f(r) = 1 + k1 r^2 + k2 r^4`` (classic two-term even warp)
* ``model2``: ``f(r) = 1 + k1 r^2`` (single coefficient)
* ``model3``: ``f(r) = 1 + k1 r + k2 r^2`` (odd low-order warp with a
  closed-form inverse through a cubic)

Coefficients are not comparable across models; a spec binds them to its model
tag so they cannot be reused under a different basis. One bracketed Newton
solve on the rising branch of ``F(r) = r f(r)`` inverts the radius of all
three, started at the paper's closed form for model2 and model3.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cubic import _STEP_TOL, NoRealSolution, RadiusCubic, _quadratic_roots
from .geometry import InvalidParameters, NormalizedPoint, radius_array


class NotConverged(RuntimeError):
    """Iterative radius inversion failed to reach tolerance."""


class Model(str, Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    MODEL3 = "model3"


def n_coefficients(model: Model) -> int:
    return 1 if model is Model.MODEL2 else 2


@dataclass(frozen=True)
class DistortionSpec:
    """Model selector plus coefficients; ``k2`` is stored as 0 for model2."""

    model: Model
    k1: float
    k2: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise InvalidParameters("distortion coefficients must be finite")
        # Stored as plain floats: numpy scalars would make every per-point
        # warp and inverse several times slower.
        object.__setattr__(self, "k1", float(self.k1))
        object.__setattr__(self, "k2", 0.0 if self.model is Model.MODEL2 else float(self.k2))
        object.__setattr__(self, "_solve", None)

    @property
    def coefficients(self) -> tuple[float, ...]:
        if self.model is Model.MODEL2:
            return (self.k1,)
        return (self.k1, self.k2)

    @property
    def fold(self) -> float:
        """The first positive zero of ``F'`` for ``F(r) = r f(r)``, inf if none.

        ``F`` rises from ``F(0) = 0`` up to its fold, so the inverse exists on
        ``[0, fold]`` only. Read from ``_radius_solve``'s record.
        """
        return _radius_solve(self).fold

    @classmethod
    def from_coefficients(cls, model: Model, coeffs) -> "DistortionSpec":
        coeffs = tuple(float(c) for c in coeffs)
        if model is Model.MODEL2:
            (k1,) = coeffs
            return cls(model, k1)
        k1, k2 = coeffs
        return cls(model, k1, k2)


@dataclass(frozen=True)
class WorkingDomain:
    """Normalized-radius interval ``[0, r_max]`` on which a spec is trusted."""

    r_max: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ValueError("r_max must be finite and positive")


def warp_factor(spec: DistortionSpec, r):
    """``f(r)`` for the spec's model; accepts scalars or arrays."""
    if spec.model is Model.MODEL1:
        r2 = r * r
        return 1.0 + spec.k1 * r2 + spec.k2 * r2 * r2
    if spec.model is Model.MODEL2:
        return 1.0 + spec.k1 * r * r
    return 1.0 + spec.k1 * r + spec.k2 * r * r


def warp_slope(spec: DistortionSpec, r):
    """``df/dr``; scalar or array alongside warp_factor."""
    if spec.model is Model.MODEL1:
        return 2.0 * spec.k1 * r + 4.0 * spec.k2 * (r * r * r)
    if spec.model is Model.MODEL2:
        return 2.0 * spec.k1 * r
    return spec.k1 + 2.0 * spec.k2 * r


def coefficient_basis(model: Model, r: np.ndarray) -> np.ndarray:
    """Columns ``df/dk_i`` evaluated at ``r``; shape ``(*r.shape, n_coeffs)``."""
    r = np.asarray(r, dtype=float)
    if model is Model.MODEL1:
        return np.stack([r ** 2, r ** 4], axis=-1)
    if model is Model.MODEL2:
        return np.stack([r ** 2], axis=-1)
    return np.stack([r, r ** 2], axis=-1)


def distort_array(spec: DistortionSpec, xy: np.ndarray) -> np.ndarray:
    """Forward radial warp on the unit focal plane, for an ``(n, 2)`` array of
    normalized points: each is scaled by ``f(r)``."""
    return xy * warp_factor(spec, radius_array(xy))[:, None]


def validate_monotone(spec: DistortionSpec, dom: WorkingDomain) -> bool:
    """True iff ``F(r) = r f(r)`` is strictly increasing on ``[0, r_max]``:
    the spec's fold lies past the domain."""
    return spec.fold > dom.r_max


# Residual tolerance (relative to max(1, r_d)) of the radius solve's
# verification, and its step budget, scalar and array alike.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_FLOAT_MAX = sys.float_info.max


# The constants of a spec's radius solve; see _radius_solve.
_RadiusSolve = namedtuple("_RadiusSolve", "fold top far terms dominant cubic")


def _radius_solve(spec: DistortionSpec) -> _RadiusSolve:
    """The constants of the spec's radius solve, built on first use and kept
    in the one attribute that ``__post_init__`` made: a cached_property
    writes through the instance ``__dict__``, which makes every later
    attribute read of the spec slower on CPython 3.11.

    ``terms`` is ``(odd, k1, k2, c1, c2, unit)``: ``F(r) = r (1 + k1 s + k2
    s^2)`` and ``F' = (unit + c1 s + c2 s^2) / unit`` with ``s = r^a``, ``a =
    1`` for model3 (``odd``) and 2 for model1 and model2 (``k2 = 0``), ``c1
    = (1 + a) k1 unit`` and ``c2 = (1 + 2 a) k2 unit``: one formula for all
    three models. ``unit`` is 1, or 1/8 where that makes ``c1`` and ``c2``
    finite. ``fold``, where ``F'`` first vanishes, is ``s^(1/a)`` at the
    first positive root ``s`` of that quadratic. The radii up to ``top = F(fold)``, evaluated as
    the solve evaluates ``F``, and no others have a root on ``[0, fold]``;
    both are inf without a fold (``F(inf)`` is NaN for ``k1 < 0 < k2``).
    ``dominant`` holds ``(c, p)`` for the terms ``k2 r^(1+2a)`` if ``k2 >
    0`` and ``k1 r^(1+a)`` if ``k1 > 0``, whose roots start the solve when
    the closed form gives none. Such a root ``(r_d / c)^(1/p)`` lies below
    ``r_d`` only past ``c r_d^(p-1) = 1``: ``_dominant_start`` can move only
    a start ``r_d`` above ``far``, 0.8 times the smallest such radius (inf
    where it overflows). ``cubic`` is the radius cubic of model2 or model3,
    whose closed form starts the solve; None for model1.
    """
    if spec._solve is None:
        k1, k2 = spec.k1, spec.k2
        odd = spec.model is Model.MODEL3
        a = 1 if odd else 2
        unit, c1, c2 = 1.0, (1 + a) * k1, (1 + 2 * a) * k2
        if not (math.isfinite(c1) and math.isfinite(c2)):
            unit = 0.125
            c1, c2 = (1 + a) * (k1 * unit), (1 + 2 * a) * (k2 * unit)
        terms = (odd, k1, k2, c1, c2, unit)
        s = min((s for s in _quadratic_roots(c2, c1, unit) if s > 0.0), default=math.inf)
        fold = s if odd else math.sqrt(s)
        top = _radius_map(terms, fold)[0] if fold < math.inf else math.inf
        dominant = tuple((c, p) for c, p in ((k2, 1 + 2 * a), (k1, 1 + a)) if c > 0.0)
        reach = math.inf
        for c, p in dominant:
            try:
                reach = min(reach, c ** (-1.0 / (p - 1)))
            except OverflowError:
                pass
        cubic = None if spec.model is Model.MODEL1 else RadiusCubic(*((k1, k2) if odd else (0.0, k1)))
        object.__setattr__(spec, "_solve", _RadiusSolve(fold, top, 0.8 * reach, terms, dominant, cubic))
    return spec._solve


def _radius_map(terms: tuple, r):
    """``(F(r), F'(r))`` for ``_radius_solve``'s terms, on an array or a
    float, as the scalar solve evaluates them."""
    odd, k1, k2, c1, c2, unit = terms
    s = r if odd else r * r
    return r * (1.0 + k1 * s + k2 * s * s), (unit + c1 * s + c2 * s * s) / unit


def _dominant_start(dominant: tuple, r_d: float) -> float:
    """The smallest root ``r_d^(1/p) / c^(1/p)`` of ``dominant``'s terms, or inf.

    Taken apart, so that it does not overflow, and by Python's pow, so that
    the scalar and the array solve start from the same bits.
    """
    return min((r_d ** (1.0 / p) / c ** (1.0 / p) for c, p in dominant), default=math.inf)


def invert_radius_newton(spec: DistortionSpec, r_d: float) -> float:
    """The radius ``r`` on the rising branch ``[0, spec.fold]`` with ``F(r) =
    r f(r) = r_d``: the one radius solve of all three models.

    An ``r_d`` above ``F(fold)`` has no root there: NoRealSolution, before any
    step. model2 and model3 start from the paper's closed-form root
    (``RadiusCubic.admissible_root``). model1, and a closed form that gives
    no positive root up to the bracket's upper end, start from ``r_d``, and
    at most from ``_dominant_start``. The bracket ``[lo, hi]`` starts as
    ``[0, fold]``, or ``[0, 4 r_d]`` without a fold: ``F' > 0`` everywhere
    makes ``f > 1/4``. Newton steps keep the root inside it (``rtsafe`` in
    Press et al., Numerical Recipes). A step that leaves it, or comes from a
    slope that is not positive, goes to ``r_d / f(r)`` instead, the chord of
    ``F`` from the origin, which brings a tiny root within reach of an
    overshooting start; failing that, to the bracket's midpoint. The solve
    stops after a step within rounding noise, ``_STEP_TOL r``, or at a zero
    residual, and verifies the radius by its residual, ``|F(r) - r_d| <=
    _NEWTON_TOL max(1, r_d)``: NotConverged when that fails, as where the
    terms of ``F`` overflow, or when ``_NEWTON_MAX_ITER`` steps do not end.
    """
    if r_d < 0.0:
        raise ValueError("distorted radius must be nonnegative")
    if r_d == 0.0:
        return 0.0
    fold, top, far, (odd, k1, k2, c1, c2, unit), dominant, cubic = _radius_solve(spec)
    if not (r_d <= top and r_d < math.inf):
        raise NoRealSolution(f"r_d={r_d!r} exceeds F(fold)={top!r}: no root up to the fold")
    lo, hi = 0.0, (fold if fold < math.inf else min(4.0 * r_d, _FLOAT_MAX))
    start = math.nan if cubic is None else cubic.admissible_root(r_d)
    if not 0.0 < start <= hi:
        start = min(r_d, hi, _dominant_start(dominant, r_d) if r_d > far else math.inf)
    r, done = start, False
    for _ in range(_NEWTON_MAX_ITER + 1):
        # _radius_map, inlined.
        s = r if odd else r * r
        value = r * (1.0 + k1 * s + k2 * s * s)
        res = value - r_d
        if done or res == 0.0:
            break
        if res < 0.0:
            lo = r
        else:
            hi = r
        slope = (unit + c1 * s + c2 * s * s) / unit
        x = r - res / slope if slope > 0.0 else math.nan
        if not (abs(x - r) <= _STEP_TOL * x or lo < x < hi):
            x = r_d * (r / value) if value > 0.0 else math.nan
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        done = abs(x - r) <= _STEP_TOL * x
        r = x
    else:
        raise NotConverged(f"no convergence after {_NEWTON_MAX_ITER} iterations (residual {res!r})")
    if not abs(res) <= _NEWTON_TOL * max(1.0, r_d):
        raise NotConverged(f"radius {r!r} fails its residual check (residual {res!r})")
    return r


def _newton_radius_array(spec: DistortionSpec, r_d: np.ndarray) -> np.ndarray:
    """invert_radius_newton on a 1-D array of observed radii, all lanes at once.

    The same start, bracket, steps, stop rule and verification, lane by lane,
    so that each lane agrees with the scalar solve to the bit. NaN where the
    scalar solve raises, and for a non-finite radius.
    """
    fold, top, far, terms, dominant, cubic = _radius_solve(spec)
    r = np.where(r_d == 0.0, 0.0, np.nan)
    lanes = np.flatnonzero((r_d > 0.0) & (r_d <= top) & np.isfinite(r_d))
    y = r_d[lanes]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.full(y.shape, fold) if fold < math.inf else np.minimum(4.0 * y, _FLOAT_MAX)
        lo = np.zeros(y.shape)
        x = np.full(y.shape, np.nan) if cubic is None else cubic.admissible_root_array(y)
        other = np.flatnonzero(~((0.0 < x) & (x <= hi)))
        x[other] = np.minimum(y[other], hi[other])
        beyond = other[y[other] > far]
        x[beyond] = np.minimum(x[beyond], [_dominant_start(dominant, v) for v in y[beyond].tolist()])
        done = np.zeros(y.shape, dtype=bool)
        for _ in range(_NEWTON_MAX_ITER + 1):
            value, slope = _radius_map(terms, x)
            res = value - y
            end = done | (res == 0.0)
            if end.any():
                ok = end & (np.abs(res) <= _NEWTON_TOL * np.maximum(1.0, y))
                r[lanes[ok]] = x[ok]
                if end.all():
                    break
                go = np.flatnonzero(~end)
                lanes, y, x, value, res, slope, lo, hi = (
                    a[go] for a in (lanes, y, x, value, res, slope, lo, hi)
                )
            below = res < 0.0
            np.copyto(lo, x, where=below)
            np.copyto(hi, x, where=~below)
            x_new = x - res / slope
            done = np.abs(x_new - x) <= _STEP_TOL * x_new
            out = np.flatnonzero(~((slope > 0.0) & (done | ((lo < x_new) & (x_new < hi)))))
            if out.size:
                # The chord r_d / f(r), else the midpoint.
                xo, lo_o, hi_o = x[out], lo[out], hi[out]
                chord = y[out] * (xo / value[out])
                chord = np.where((lo_o < chord) & (chord < hi_o), chord, 0.5 * (lo_o + hi_o))
                x_new[out] = chord
                done[out] = np.abs(chord - xo) <= _STEP_TOL * chord
            x = x_new
    return r


def undistort(spec: DistortionSpec, d: NormalizedPoint) -> NormalizedPoint:
    """Inverse of distort_array, one point, on the spec's monotone working domain.

    Solves ``F(r) = r f(r) = r_d`` for the radius on the rising branch by
    ``invert_radius_newton``, the one solve of all three models, and rescales
    ``(x_d, y_d)`` by ``r / r_d``. model2 and model3 start it from the
    paper's closed-form root of their radius cubic ``r + k1 r^2 + k2 r^3 =
    r_d`` (model2: ``r + k1 r^3 = r_d``; model3 with ``k2 = 0``: a
    quadratic), which its Newton steps only polish. For model3 this is the
    paper's component cubic with ``r = sqrt(1 + c^2) |x|``, and inside the
    monotone domain both give the same point. model1 has no closed form and
    starts from ``r_d``. An ``r_d`` above ``F(fold)`` has no radius on the
    rising branch: NoRealSolution, for every model.
    """
    r_d = d.radius
    r = invert_radius_newton(spec, r_d)
    if r == 0.0:
        return NormalizedPoint(0.0, 0.0)
    s = r / r_d
    return NormalizedPoint(d.x * s, d.y * s)


def undistort_array(spec: DistortionSpec, xy: np.ndarray) -> np.ndarray:
    """undistort for an ``(n, 2)`` array of distorted normalized points.

    The radius equation is solved for all rows at once by
    ``_newton_radius_array``, which takes the scalar solve's start and steps
    lane by lane, so that each row agrees with undistort to the bit. Rows
    with no admissible solution, and rows with a non-finite component, come
    back as NaN.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    r_d = radius_array(xy)
    r = _newton_radius_array(spec, r_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xy * (r / r_d)[:, None]
    out[r == 0.0] = 0.0
    return out
