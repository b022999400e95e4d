"""Output checks, written against numpy alone so they share no code with the
library they check. Each check returns an error message, or None when the
output is correct."""

from __future__ import annotations

import math

import numpy as np

# Pixel tolerance for a warped point, both directions.
POINT_TOL_PX = 1e-6
# The localizer is exact on noiseless input (acceptance criterion 6).
FIX_TOL = 1e-9
# Fits of the generating model on sigma = 0.2 px data. A 5-view session
# recovers focal lengths to about 0.6 % and the principal point to about
# 1.2 px; the bounds below leave a wide margin for that and are far tighter
# than what a diverged or early-stopped fit gives.
FOCAL_REL_TOL = 0.03
CENTER_TOL_PX = 6.0
COEFF_TOL = 0.1
# RMS of the generating-model fit, as a multiple of the noise's expected
# RMS distance (sigma * sqrt(2)).
RMS_FACTOR = 1.25


def warp_factor(model: str, k1: float, k2: float, r: np.ndarray) -> np.ndarray:
    if model == "model1":
        return 1.0 + k1 * r**2 + k2 * r**4
    if model == "model2":
        return 1.0 + k1 * r**2
    return 1.0 + k1 * r + k2 * r**2


def to_normalized(a: dict, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (n, 2) to the unit focal plane under intrinsics ``a``."""
    y = (uv[:, 1] - a["v0"]) / a["beta"]
    return (uv[:, 0] - a["u0"] - a["gamma"] * y) / a["alpha"], y


def to_pixels(a: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.column_stack([a["alpha"] * x + a["gamma"] * y + a["u0"], a["beta"] * y + a["v0"]])


def forward_pixels(calib: dict, uv: np.ndarray) -> np.ndarray:
    """Distort undistorted pixels ``uv`` (n, 2) through a calibration dict."""
    x, y = to_normalized(calib["intrinsics"], uv)
    f = warp_factor(calib["model"], calib["k1"], calib["k2"], np.hypot(x, y))
    return to_pixels(calib["intrinsics"], x * f, y * f)


def read_points_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _max_row_error(expected: np.ndarray, got: np.ndarray) -> tuple[float, int]:
    err = np.max(np.abs(expected - got), axis=1)
    bad = ~(err <= POINT_TOL_PX)  # NaN rows count as bad
    return float(np.nanmax(err)) if err.size else 0.0, int(bad.sum())


def check_inverse(calib: dict, inputs: np.ndarray, outputs: np.ndarray) -> str | None:
    """Warping every undistorted output forward must land on its input."""
    if outputs.shape != inputs.shape:
        return f"inverse: {outputs.shape[0]} rows for {inputs.shape[0]} inputs"
    worst, bad = _max_row_error(inputs, forward_pixels(calib, outputs))
    if bad:
        return f"inverse {calib['model']}: {bad} rows off by more than {POINT_TOL_PX} px (max {worst:.3g})"
    return None


def check_forward(calib: dict, inputs: np.ndarray, outputs: np.ndarray) -> str | None:
    if outputs.shape != inputs.shape:
        return f"forward: {outputs.shape[0]} rows for {inputs.shape[0]} inputs"
    worst, bad = _max_row_error(forward_pixels(calib, inputs), outputs)
    if bad:
        return f"forward {calib['model']}: {bad} rows off by more than {POINT_TOL_PX} px (max {worst:.3g})"
    return None


def check_fit(fit: dict, truth: dict, rms_px: float, noise_sigma: float) -> str | None:
    """A fit of the generating model must recover the synthetic camera."""
    want, got = truth["intrinsics"], fit
    for key in ("alpha", "beta"):
        if not abs(got[key] - want[key]) <= FOCAL_REL_TOL * want[key]:
            return f"{key} = {got[key]!r}, truth {want[key]!r}"
    for key in ("u0", "v0"):
        if not abs(got[key] - want[key]) <= CENTER_TOL_PX:
            return f"{key} = {got[key]!r}, truth {want[key]!r}"
    for key in ("k1", "k2"):
        if not abs(got[key] - truth["distortion"][key]) <= COEFF_TOL:
            return f"{key} = {got[key]!r}, truth {truth['distortion'][key]!r}"
    limit = RMS_FACTOR * noise_sigma * math.sqrt(2.0)
    if not rms_px <= limit:
        return f"rms {rms_px!r} px above {limit:.3g}"
    return None


def check_fix(fix, delta_theta: float, position: np.ndarray) -> str | None:
    if not abs(fix.delta_theta - delta_theta) <= FIX_TOL:
        return f"yaw {fix.delta_theta!r}, truth {delta_theta!r}"
    err = float(np.max(np.abs(np.asarray(fix.t1) - position)))
    if not err <= FIX_TOL:
        return f"translation off by {err:.3g}"
    return None
