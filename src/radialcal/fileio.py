"""On-disk formats: correspondence/point CSV and calibration/pose/scene JSON.

CSV numbers are written with 17 significant digits so parsing them back is
lossless for doubles; readers accept both LF and CRLF line endings. All
writers go through a temp-file-plus-rename so partially written outputs never
appear under the final name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import CalibrationResult, CalibrationView, CorrespondenceSet, OptimizerOptions
from .distortion import DistortionSpec, Model
from .geometry import IntrinsicMatrix, ViewExtrinsics
from .synth import PoseRanges, SceneTruth, SynthSpec

CORRESPONDENCE_HEADER = "view_id,Xw,Yw,ud,vd"
POINTS_HEADER = "u,v"


class ParseError(ValueError):
    """Input file is malformed; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def fmt(x: float) -> str:
    """Shortest 17-significant-digit decimal, lossless for float64."""
    return format(float(x), ".17g")


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(path: str | Path) -> list[str]:
    return Path(path).read_text().splitlines()


# ---------------------------------------------------------------------------
# Correspondence CSV


def write_correspondences(path: str | Path, corr: CorrespondenceSet) -> None:
    rows = [CORRESPONDENCE_HEADER]
    for view in corr.views:
        for (xw, yw), (ud, vd) in zip(view.world_xy, view.pixels):
            rows.append(
                f"{view.view_id},{fmt(xw)},{fmt(yw)},{fmt(ud)},{fmt(vd)}"
            )
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_correspondences(path: str | Path) -> CorrespondenceSet:
    """Parse `view_id,Xw,Yw,ud,vd` rows grouped by view id.

    Raises ParseError, naming the line, for malformed rows.
    """
    lines = _lines(path)
    if not lines or lines[0].strip() != CORRESPONDENCE_HEADER:
        raise ParseError(
            f"expected header {CORRESPONDENCE_HEADER!r}", line=1
        )
    grouped: dict[int, list[list[float]]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 5:
            raise ParseError(f"expected 5 comma-separated fields, got {len(parts)}", line=lineno)
        try:
            view_id = int(parts[0])
        except ValueError:
            raise ParseError(f"view_id {parts[0]!r} is not an integer", line=lineno) from None
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {raw!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"non-finite coordinate in {raw!r}", line=lineno)
        grouped.setdefault(view_id, []).append(values)
    if not grouped:
        raise ParseError("file contains no correspondence rows")
    views = []
    for view_id, rows in grouped.items():
        arr = np.asarray(rows)
        views.append(
            CalibrationView(view_id=view_id, world_xy=arr[:, 0:2], pixels=arr[:, 2:4])
        )
    return CorrespondenceSet(tuple(views))


# ---------------------------------------------------------------------------
# Point CSV


def write_points(path: str | Path, points: np.ndarray) -> None:
    """Write ``u,v`` rows; ``%.17g`` is the same rendering as fmt."""
    values = np.asarray(points, dtype=float).reshape(-1, 2)
    body = "%.17g,%.17g\n" * len(values) % tuple(values.ravel().tolist())
    atomic_write_text(path, f"{POINTS_HEADER}\n{body}")


def read_points(path: str | Path) -> np.ndarray:
    lines = _lines(path)
    if lines and lines[0].strip() and lines[0].strip() != POINTS_HEADER:
        raise ParseError(f"expected header {POINTS_HEADER!r}", line=1)
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=lineno)
        try:
            out.append([float(parts[0]), float(parts[1])])
        except ValueError:
            raise ParseError(f"non-numeric point in {raw!r}", line=lineno) from None
    return np.asarray(out, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Calibration JSON


@dataclass(frozen=True)
class CalibrationFile:
    """Decoded calibration output file."""

    intrinsics: IntrinsicMatrix
    distortion: DistortionSpec
    view_ids: tuple[int, ...]
    extrinsics: tuple[ViewExtrinsics, ...]
    j_final: float
    rms_px: float
    options: OptimizerOptions


def calibration_to_dict(result: CalibrationResult, options: OptimizerOptions) -> dict:
    A = result.intrinsics
    return {
        "model": result.distortion.model.value,
        "k1": result.distortion.k1,
        "k2": result.distortion.k2,
        "intrinsics": {
            "alpha": A.alpha,
            "beta": A.beta,
            "gamma": A.gamma,
            "u0": A.u0,
            "v0": A.v0,
        },
        "views": [
            {
                "view_id": vid,
                "axis_angle": [float(v) for v in E.axis_angle],
                "t": [float(v) for v in E.t],
            }
            for vid, E in zip(result.view_ids, result.extrinsics)
        ],
        "J_final": result.j_final,
        "rms_px": result.rms_px,
        "options": {
            "tol_x": options.tol_x,
            "tol_fun": options.tol_fun,
            "max_iter": options.max_iter,
            "max_fun_evals": options.max_fun_evals,
        },
    }


def write_calibration(
    path: str | Path, result: CalibrationResult, options: OptimizerOptions
) -> None:
    atomic_write_text(path, json.dumps(calibration_to_dict(result, options), indent=2) + "\n")


def _intrinsics_from_dict(d: dict) -> IntrinsicMatrix:
    return IntrinsicMatrix(
        alpha=float(d["alpha"]),
        beta=float(d["beta"]),
        gamma=float(d["gamma"]),
        u0=float(d["u0"]),
        v0=float(d["v0"]),
    )


def read_calibration(path: str | Path) -> CalibrationFile:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        spec = DistortionSpec(Model(data["model"]), float(data["k1"]), float(data["k2"]))
        A = _intrinsics_from_dict(data["intrinsics"])
        view_ids = []
        extrinsics = []
        for v in data["views"]:
            view_ids.append(int(v["view_id"]))
            extrinsics.append(
                ViewExtrinsics(np.asarray(v["axis_angle"], dtype=float), np.asarray(v["t"], dtype=float))
            )
        opts = data.get("options", {})
        options = OptimizerOptions(
            tol_x=float(opts.get("tol_x", 1e-5)),
            tol_fun=float(opts.get("tol_fun", 1e-5)),
            max_iter=int(opts.get("max_iter", 120)),
            max_fun_evals=int(opts.get("max_fun_evals", 8000)),
        )
        return CalibrationFile(
            intrinsics=A,
            distortion=spec,
            view_ids=tuple(view_ids),
            extrinsics=tuple(extrinsics),
            j_final=float(data["J_final"]),
            rms_px=float(data["rms_px"]),
            options=options,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid calibration file ({exc})") from None


# ---------------------------------------------------------------------------
# Pose and synth-spec JSON


def read_pose(path: str | Path) -> ViewExtrinsics:
    try:
        data = json.loads(Path(path).read_text())
        return ViewExtrinsics(
            np.asarray(data["axis_angle"], dtype=float),
            np.asarray(data["t"], dtype=float),
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid pose file ({exc})") from None


def write_pose(path: str | Path, pose: ViewExtrinsics) -> None:
    data = {
        "axis_angle": [float(v) for v in pose.axis_angle],
        "t": [float(v) for v in pose.t],
    }
    atomic_write_text(path, json.dumps(data, indent=2) + "\n")


def read_synth_spec(path: str | Path) -> SynthSpec:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        grid = data.get("grid", {})
        pose_d = data.get("pose", {})
        pose = PoseRanges(
            distance=tuple(pose_d.get("distance", PoseRanges().distance)),
            tilt_deg=tuple(pose_d.get("tilt_deg", PoseRanges().tilt_deg)),
            offset=tuple(pose_d.get("offset", PoseRanges().offset)),
        )
        dist = data["distortion"]
        return SynthSpec(
            seed=int(data["seed"]),
            intrinsics=_intrinsics_from_dict(data["intrinsics"]),
            distortion=DistortionSpec(
                Model(dist["model"]), float(dist["k1"]), float(dist.get("k2", 0.0))
            ),
            grid_nx=int(grid.get("nx", 8)),
            grid_ny=int(grid.get("ny", 8)),
            spacing=float(grid.get("spacing", 0.15)),
            n_views=int(data.get("views", 3)),
            noise_sigma=float(data.get("noise_sigma", 0.0)),
            pose=pose,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid synth spec ({exc})") from None


def write_scene_truth(path: str | Path, truth: SceneTruth) -> None:
    A = truth.intrinsics
    data = {
        "intrinsics": {
            "alpha": A.alpha,
            "beta": A.beta,
            "gamma": A.gamma,
            "u0": A.u0,
            "v0": A.v0,
        },
        "distortion": {
            "model": truth.distortion.model.value,
            "k1": truth.distortion.k1,
            "k2": truth.distortion.k2,
        },
        "views": [
            {
                "view_id": i,
                "axis_angle": [float(v) for v in E.axis_angle],
                "t": [float(v) for v in E.t],
            }
            for i, E in enumerate(truth.extrinsics)
        ],
        "noise_sigma": truth.noise_sigma,
        "seed": truth.seed,
    }
    atomic_write_text(path, json.dumps(data, indent=2) + "\n")


def read_scene_truth(path: str | Path) -> SceneTruth:
    try:
        data = json.loads(Path(path).read_text())
        dist = data["distortion"]
        return SceneTruth(
            intrinsics=_intrinsics_from_dict(data["intrinsics"]),
            distortion=DistortionSpec(
                Model(dist["model"]), float(dist["k1"]), float(dist["k2"])
            ),
            extrinsics=tuple(
                ViewExtrinsics(
                    np.asarray(v["axis_angle"], dtype=float),
                    np.asarray(v["t"], dtype=float),
                )
                for v in data["views"]
            ),
            noise_sigma=float(data["noise_sigma"]),
            seed=int(data["seed"]),
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid scene truth file ({exc})") from None
