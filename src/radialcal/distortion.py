"""Radial distortion models, the warp, and undistortion dispatch.

Three radial warp factors are supported, each acting on the normalized image
plane as ``(x_d, y_d) = f(r) * (x, y)`` with ``r = sqrt(x^2 + y^2)``:

* ``model1``: ``f(r) = 1 + k1 r^2 + k2 r^4`` (classic two-term even warp)
* ``model2``: ``f(r) = 1 + k1 r^2`` (single coefficient)
* ``model3``: ``f(r) = 1 + k1 r + k2 r^2`` (odd low-order warp with a
  closed-form inverse through a cubic)

Coefficients are not comparable across models; a spec binds them to its model
tag so they cannot be reused under a different basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .cubic import RadiusCubic, _quadratic_roots
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
        object.__setattr__(self, "_fold", None)

    @property
    def coefficients(self) -> tuple[float, ...]:
        if self.model is Model.MODEL2:
            return (self.k1,)
        return (self.k1, self.k2)

    @cached_property
    def radius_cubic(self) -> RadiusCubic:
        """The radius equation ``r f(r) = r_d`` of model2 or model3 as a cubic."""
        if self.model is Model.MODEL2:
            return RadiusCubic(0.0, self.k1)
        return RadiusCubic(self.k1, self.k2)

    @property
    def fold(self) -> float:
        """The first positive zero of ``F'`` for ``F(r) = r f(r)``, inf if none.

        ``F`` rises from ``F(0) = 0`` up to its fold, so the inverse exists on
        ``[0, fold]`` only. Computed on first use and kept in an attribute
        that ``__post_init__`` made: a cached_property writes through the
        instance ``__dict__``, which makes every later attribute read of the
        spec slower on CPython 3.11, and model1's Newton inverse reads them
        in its loop.
        """
        if self._fold is None:
            if self.model is not Model.MODEL1:
                fold = self.radius_cubic.fold
            else:
                # F' = 1 + 3 k1 s + 5 k2 s^2 with s = r^2.
                slope_zeros = _quadratic_roots(5.0 * self.k2, 3.0 * self.k1, 1.0)
                fold = math.sqrt(min((s for s in slope_zeros if s > 0.0), default=math.inf))
            object.__setattr__(self, "_fold", fold)
        return self._fold

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


# Residual tolerance (relative to max(1, r_d)) and step budget of the
# bracketed Newton radius inversion, scalar and array alike.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


def _rising_branch(spec: DistortionSpec) -> tuple[float, float]:
    """``(fold, F(fold))``: the radii up to ``F(fold)``, and no others, have a
    root on ``[0, fold]``. Both are inf without a fold (``F(inf)`` is NaN for
    ``k1 < 0 < k2``)."""
    fold = spec.fold
    return fold, (fold * warp_factor(spec, fold) if fold < math.inf else math.inf)


def _dominant_terms(spec: DistortionSpec) -> list[tuple[float, int]]:
    """``(c, p)`` for each term ``c r^p`` of model1's ``F(r)`` whose root
    ``(r_d / c)^(1/p)`` starts the Newton solve: ``k2 r^5`` for ``k2 > 0``,
    and ``k1 r^3`` for ``k1 > 0`` when ``k2 >= 0``, where it bounds the root
    from above."""
    terms = [(spec.k2, 5)] if spec.k2 > 0.0 else []
    if spec.k1 > 0.0 and spec.k2 >= 0.0:
        terms.append((spec.k1, 3))
    return terms


def _dominant_start(spec: DistortionSpec, r_d: float) -> float:
    """The smallest root ``r_d^(1/p) / c^(1/p)`` of the dominant terms, or inf.

    Taken apart, so that it does not overflow, and by Python's pow, so that
    the scalar and the array solve start from the same bits.
    """
    return min((r_d ** (1.0 / p) / c ** (1.0 / p) for c, p in _dominant_terms(spec)), default=math.inf)


def invert_radius_newton(spec: DistortionSpec, r_d: float) -> float:
    """Newton solve of ``r f(r) = r_d`` on the rising branch ``[0, spec.fold]``.

    Used as the model1 inverse and as an independent cross-check of the
    analytic paths. It starts at ``min(r_d, fold)``, and at most at
    ``_dominant_start``: from ``r_d`` itself a huge radius would take more
    than the step budget to come down. It keeps a bracket ``[lo, hi]``
    around the root: a step that leaves it, or comes from a slope that is
    not positive, goes to its midpoint instead (``rtsafe`` in Press et al.,
    Numerical Recipes). Raises NotConverged for an ``r_d`` above
    ``F(fold)``, which has no root there, and when the residual does not
    fall below ``_NEWTON_TOL`` within ``_NEWTON_MAX_ITER`` steps.
    """
    if r_d < 0.0:
        raise ValueError("distorted radius must be nonnegative")
    if r_d == 0.0:
        return 0.0
    fold, top = _rising_branch(spec)
    if not (r_d <= top and r_d < math.inf):
        raise NotConverged(f"r_d={r_d!r} exceeds F(fold)={top!r}: no root up to the fold")
    limit = _NEWTON_TOL * max(1.0, r_d)
    lo, hi, r = 0.0, fold, min(r_d, fold, _dominant_start(spec, r_d))
    for _ in range(_NEWTON_MAX_ITER + 1):
        res = r * warp_factor(spec, r) - r_d
        if abs(res) <= limit:
            return r
        lo, hi = (r, hi) if res < 0.0 else (lo, r)
        slope = warp_factor(spec, r) + r * warp_slope(spec, r)
        # Without a step r stays at an end of the bracket: the midpoint.
        if slope > 0.0:
            r -= res / slope
        if not lo < r < hi:
            r = 0.5 * (lo + hi)
    raise NotConverged(f"no convergence after {_NEWTON_MAX_ITER} iterations (residual {res!r})")


def _newton_radius_array(spec: DistortionSpec, r_d: np.ndarray) -> np.ndarray:
    """invert_radius_newton on a 1-D array of observed radii, all lanes at once.

    The same start, bracket, steps and tolerance, lane by lane: a slope that
    is not positive sends the step out of the bracket, to its midpoint. NaN
    where the scalar solve raises NotConverged, and for a non-finite radius.
    """
    fold, top = _rising_branch(spec)
    r = np.where(r_d == 0.0, 0.0, np.nan)
    lanes = np.flatnonzero((r_d > 0.0) & (r_d <= top) & np.isfinite(r_d))
    y = r_d[lanes]
    x = np.minimum(y, fold)
    lo, hi = np.zeros(y.shape), np.full(y.shape, fold)
    limit = _NEWTON_TOL * np.maximum(1.0, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A term's root is below r_d only past c r_d^(p-1) = 1, so the
        # dominant-term start moves only lanes in far.
        reach = min((c ** (-1.0 / (p - 1)) for c, p in _dominant_terms(spec)), default=math.inf)
        far = np.flatnonzero(y > 0.8 * reach)
        x[far] = np.minimum(x[far], [_dominant_start(spec, v) for v in y[far].tolist()])
        for _ in range(_NEWTON_MAX_ITER + 1):
            res = x * warp_factor(spec, x) - y
            done = np.abs(res) <= limit
            r[lanes[done]] = x[done]
            go = ~done
            lanes, y, x, res, limit, lo, hi = (a[go] for a in (lanes, y, x, res, limit, lo, hi))
            if lanes.size == 0:
                break
            below = res < 0.0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            x = x - res / (warp_factor(spec, x) + x * warp_slope(spec, x))
            x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    return r


def undistort(spec: DistortionSpec, d: NormalizedPoint) -> NormalizedPoint:
    """Inverse of distort_array, one point, on the spec's monotone working domain.

    model2 and model3 solve their radius cubic ``r + k1 r^2 + k2 r^3 = r_d``
    (model2: ``r + k1 r^3 = r_d``; model3 with ``k2 = 0``: a quadratic) once
    per point in closed form and rescale ``(x_d, y_d)`` by ``r / r_d``. For
    model3 this is the paper's component cubic with ``r = sqrt(1 + c^2) |x|``,
    and inside the monotone domain both give the same point. model1 has no
    closed form and falls back to the bracketed Newton radius inversion. An
    ``r_d`` above ``F(fold)`` for ``F(r) = r f(r)`` has no radius on the rising
    branch: NoRealSolution (model2, model3) or NotConverged (model1).
    """
    r_d = d.radius
    if spec.model is Model.MODEL1:
        r = invert_radius_newton(spec, r_d)
    else:
        r = spec.radius_cubic.solve(r_d)
    if r == 0.0:
        return NormalizedPoint(0.0, 0.0)
    s = r / r_d
    return NormalizedPoint(d.x * s, d.y * s)


def undistort_array(spec: DistortionSpec, xy: np.ndarray) -> np.ndarray:
    """undistort for an ``(n, 2)`` array of distorted normalized points.

    The radius equation is solved for all rows at once, by the same steps as
    undistort: the closed-form radius cubic for model2 and model3, whose rows
    with an undecided discriminant or a failed residual check go on to the
    general cubic solve one by one, and the bracketed Newton for model1. Rows
    with no admissible solution, and rows with a non-finite component, come
    back as NaN.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    r_d = radius_array(xy)
    if spec.model is Model.MODEL1:
        r = _newton_radius_array(spec, r_d)
    else:
        r = spec.radius_cubic.solve_array(r_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xy * (r / r_d)[:, None]
    out[r == 0.0] = 0.0
    return out
