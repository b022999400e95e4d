"""On-disk formats: correspondence/point CSV and calibration/pose/scene JSON.

CSV numbers are written with 17 significant digits so parsing them back is
lossless for doubles; readers accept both LF and CRLF line endings. The CSV
readers parse all rows in one ``np.loadtxt`` pass and group correspondences
by view in numpy. Unusual spellings that ``float`` and ``int`` accept but
``np.loadtxt`` does not (``1_000``, non-ASCII digits, view ids beyond 64
bits) take a slower per-line checked parse, which reads them alike; it
also names the first bad line of a malformed file. A file with
whitespace-only lines takes a second ``np.loadtxt`` pass without them.
All writers go through a temp-file-plus-rename so partially written
outputs never appear under the final name; the file gets the mode that
the umask gives a new file.
"""

from __future__ import annotations

import json
import os
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .calibration import CalibrationResult, CorrespondenceSet, OptimizerOptions
from .distortion import DistortionSpec, Model
from .geometry import IntrinsicMatrix, ViewExtrinsics, checked_array
from .synth import PoseRanges, SceneTruth, SynthSpec

CORRESPONDENCE_HEADER = "view_id,Xw,Yw,ud,vd"
POINTS_HEADER = "u,v"
# One correspondence row as np.loadtxt parses it: the view id, then Xw, Yw, ud, vd.
_CORRESPONDENCE_ROW = np.dtype([("id", np.int64), ("xy", np.float64, (4,))])


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
    # Created as open() creates a file, so that the umask sets its mode
    # (mkstemp's is 0600); O_EXCL keeps the random name from clobbering.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# CSV tables: a header line, then one row of numbers per non-blank line


def _lines(path: str | Path, header: str) -> list[str]:
    """The file's lines, the first of which must be ``header``."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:  # as the JSON readers report it
        raise ParseError(f"{path}: {exc}") from None
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", line=1)
    return lines


def _loadtxt(body: list[str], dtype, ndmin: int) -> np.ndarray | None:
    """The non-blank lines of ``body`` in one ``np.loadtxt`` pass; None if it refuses them.

    What it accepts it converts as ``float`` and ``int`` do. It refuses some
    spellings that they accept (``1_000``, non-ASCII digits, integers beyond
    64 bits): those files go to ``_scan``. It refuses whitespace-only lines
    too, so a refused body is tried once more without them. From numpy 1.23,
    while the deprecation lasts, it parses an integer field that ``int``
    refuses (``1.5``, ``2**70``) as a float and warns; the warning is raised
    here, so that such a file is refused as well.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)
    except (ValueError, DeprecationWarning):
        rows = [raw for raw in body if raw.strip()]
        return _loadtxt(rows, dtype, ndmin) if len(rows) < len(body) else None


def _rows(lines: list[str]) -> list[tuple[int, str]]:
    """Line number and text of each non-blank line under the header."""
    return [(n, raw) for n, raw in enumerate(lines[1:], start=2) if raw.strip()]


def _scan(rows: list[tuple[int, str]], width: int, noun: str) -> np.ndarray:
    """The fields of ``rows`` as an (n, width) float array, converted line by
    line as ``float`` converts them. Raises ParseError naming the first line
    with the wrong number of fields or a field that does not convert.
    """
    values = []
    for n, raw in rows:
        cells = raw.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} comma-separated fields, got {len(cells)}", line=n)
        try:
            values.append(np.array(cells, dtype=float))
        except ValueError:
            raise ParseError(f"non-numeric {noun} in {raw!r}", line=n) from None
    return np.array(values).reshape(-1, width)


def _render(row_format: str, values: np.ndarray) -> str:
    """Each row of ``values`` in ``row_format``, by one ``%``; its ``%.17g`` matches fmt."""
    return row_format * len(values) % tuple(values.ravel().tolist())


def write_correspondences(path: str | Path, corr: CorrespondenceSet) -> None:
    rows = np.hstack([corr.world_xy, corr.pixels])
    body = "".join(
        _render(f"{view_id},%.17g,%.17g,%.17g,%.17g\n", rows[a:b])
        for view_id, a, b in zip(corr.view_ids, corr.offsets, corr.offsets[1:])
    )
    atomic_write_text(path, f"{CORRESPONDENCE_HEADER}\n{body}")


def read_correspondences(path: str | Path) -> CorrespondenceSet:
    """Parse `view_id,Xw,Yw,ud,vd` rows grouped by view id.

    Views come in order of first appearance, each with its rows in file
    order, gathered in one pass. Raises ParseError, naming the line, for
    malformed rows.
    """
    lines = _lines(path, CORRESPONDENCE_HEADER)
    table = _loadtxt(lines[1:], _CORRESPONDENCE_ROW, ndmin=1)
    rows = None
    if table is not None:
        ids, xy = table["id"], table["xy"]
    else:
        rows = _rows(lines)
        values = _scan(rows, 5, "coordinate")
        ids = np.empty(len(values), dtype=object)
        for i, (n, raw) in enumerate(rows):
            field = raw.partition(",")[0]
            try:
                ids[i] = int(field)
            except ValueError:
                raise ParseError(f"view_id {field!r} is not an integer", line=n) from None
        xy = values[:, 1:]
    if not len(ids):
        raise ParseError("file contains no correspondence rows")
    bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
    if bad.size:
        n, raw = (_rows(lines) if rows is None else rows)[bad[0]]
        raise ParseError(f"non-finite coordinate in {raw!r}", line=n)
    # Number the views by their first rows, then gather each one's rows in
    # file order; an object array of ids beyond 64 bits groups alike.
    view_ids, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    label = np.argsort(by_first)[inverse]
    grouped = xy[np.argsort(label, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(label))])
    return CorrespondenceSet(view_ids[by_first].tolist(), grouped[:, :2], grouped[:, 2:], offsets)


def write_points(path: str | Path, points: np.ndarray) -> None:
    body = _render("%.17g,%.17g\n", np.asarray(points, dtype=float).reshape(-1, 2))
    atomic_write_text(path, f"{POINTS_HEADER}\n{body}")


def read_points(path: str | Path) -> np.ndarray:
    """Parse `u,v` rows into an (n, 2) array; NaN rows are kept."""
    lines = _lines(path, POINTS_HEADER)
    values = _loadtxt(lines[1:], float, ndmin=2)
    if values is None or values.shape[1] != 2:
        values = _scan(_rows(lines), 2, "point")
    return values


# ---------------------------------------------------------------------------
# JSON records: one dict codec per record, one decode/error path per file


@contextmanager
def _json_record(path: str | Path, what: str):
    """Yield the decoded JSON file at ``path`` to the block that reads it.

    Malformed JSON, and a missing, mistyped or out-of-range field met in the
    block (an array where an object belongs fails ``.get``), become a
    ParseError naming the file.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        yield data
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid {what} ({exc})") from None


def _write_json(path: str | Path, data: dict) -> None:
    atomic_write_text(path, json.dumps(data, indent=2) + "\n")


def _int(value, name: str) -> int:
    """A JSON integer field; ``int`` alone would truncate 5.9 to 5."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _intrinsics_from_dict(d: dict) -> IntrinsicMatrix:
    return IntrinsicMatrix(**{f.name: float(d[f.name]) for f in fields(IntrinsicMatrix)})


def _distortion_to_dict(spec: DistortionSpec) -> dict:
    return {"model": spec.model.value, "k1": spec.k1, "k2": spec.k2}


def _distortion_from_dict(d: dict) -> DistortionSpec:
    return DistortionSpec(Model(d["model"]), float(d["k1"]), float(d["k2"]))


def _pose_to_dict(pose: ViewExtrinsics) -> dict:
    return {"axis_angle": pose.axis_angle.tolist(), "t": pose.t.tolist()}


def _pose_from_dict(d: dict) -> ViewExtrinsics:
    return ViewExtrinsics(np.asarray(d["axis_angle"], dtype=float), np.asarray(d["t"], dtype=float))


def _pose_array(views: list) -> np.ndarray:
    """The views' poses as ``(v, 6)`` rows ``[*axis_angle, *t]``, each part
    checked as ViewExtrinsics checks it, without building one per view."""
    if not views:
        return np.empty((0, 6))
    parts = [checked_array(key, [v[key] for v in views], (len(views), 3)) for key in ("axis_angle", "t")]
    return np.hstack(parts)


# ---------------------------------------------------------------------------
# Calibration JSON


def write_calibration(path: str | Path, result: CalibrationResult) -> None:
    """The record as JSON; ``per_point_residuals`` is not stored."""
    _write_json(
        path,
        {
            **_distortion_to_dict(result.distortion),
            "intrinsics": asdict(result.intrinsics),
            "views": [
                {"view_id": vid, "axis_angle": pose[:3], "t": pose[3:]}
                for vid, pose in zip(result.view_ids, result.poses.tolist())
            ],
            "J_init": result.j_init,
            "J_final": result.j_final,
            "rms_px": result.rms_px,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "n_iterations": result.n_iterations,
            "options": asdict(result.options),
        },
    )


def read_calibration(path: str | Path) -> CalibrationResult:
    """The record write_calibration wrote, without per-point residuals.

    Missing options take their defaults, and an outcome field that the file
    lacks is None, as files written before it was recorded lack it.
    """
    with _json_record(path, "calibration file") as data:
        opts = {**asdict(OptimizerOptions()), **data.get("options", {})}
        converged, stop_reason, n_iterations, j_init = (
            data.get(key) for key in ("converged", "stop_reason", "n_iterations", "J_init")
        )
        if not isinstance(converged, (bool, type(None))):
            raise ValueError(f"converged must be true or false, got {converged!r}")
        if not isinstance(stop_reason, (str, type(None))):
            raise ValueError(f"stop_reason must be a string, got {stop_reason!r}")
        return CalibrationResult(
            intrinsics=_intrinsics_from_dict(data["intrinsics"]),
            distortion=_distortion_from_dict(data),
            view_ids=tuple(_int(v["view_id"], "view_id") for v in data["views"]),
            poses=_pose_array(data["views"]),
            j_final=float(data["J_final"]),
            rms_px=float(data["rms_px"]),
            per_point_residuals=None,
            options=OptimizerOptions(
                tol_x=float(opts["tol_x"]),
                tol_fun=float(opts["tol_fun"]),
                max_iter=_int(opts["max_iter"], "max_iter"),
            ),
            converged=converged,
            stop_reason=stop_reason,
            n_iterations=None if n_iterations is None else _int(n_iterations, "n_iterations"),
            j_init=None if j_init is None else float(j_init),
        )


# ---------------------------------------------------------------------------
# Pose, synth-spec and scene-truth JSON


def read_pose(path: str | Path) -> ViewExtrinsics:
    with _json_record(path, "pose file") as data:
        return _pose_from_dict(data)


def write_pose(path: str | Path, pose: ViewExtrinsics) -> None:
    _write_json(path, _pose_to_dict(pose))


# SynthSpec's defaults, by field; the pose's default comes from a factory.
_SYNTH_DEFAULTS = {f.name: f.default for f in fields(SynthSpec)}


def read_synth_spec(path: str | Path) -> SynthSpec:
    """The spec in the file; a field that it lacks takes SynthSpec's default."""
    default, default_pose = _SYNTH_DEFAULTS, PoseRanges()
    with _json_record(path, "synth spec") as data:
        grid = data.get("grid", {})
        pose = data.get("pose", {})
        return SynthSpec(
            seed=_int(data["seed"], "seed"),
            intrinsics=_intrinsics_from_dict(data["intrinsics"]),
            distortion=_distortion_from_dict({"k2": 0.0, **data["distortion"]}),
            grid_nx=_int(grid.get("nx", default["grid_nx"]), "nx"),
            grid_ny=_int(grid.get("ny", default["grid_ny"]), "ny"),
            spacing=float(grid.get("spacing", default["spacing"])),
            n_views=_int(data.get("views", default["n_views"]), "views"),
            noise_sigma=float(data.get("noise_sigma", default["noise_sigma"])),
            pose=PoseRanges(
                distance=tuple(pose.get("distance", default_pose.distance)),
                tilt_deg=tuple(pose.get("tilt_deg", default_pose.tilt_deg)),
                offset=tuple(pose.get("offset", default_pose.offset)),
            ),
        )


def write_scene_truth(path: str | Path, truth: SceneTruth) -> None:
    _write_json(
        path,
        {
            "intrinsics": asdict(truth.intrinsics),
            "distortion": _distortion_to_dict(truth.distortion),
            "views": [{"view_id": i, **_pose_to_dict(E)} for i, E in enumerate(truth.extrinsics)],
            "noise_sigma": truth.noise_sigma,
            "seed": truth.seed,
        },
    )


def read_scene_truth(path: str | Path) -> SceneTruth:
    with _json_record(path, "scene truth file") as data:
        return SceneTruth(
            intrinsics=_intrinsics_from_dict(data["intrinsics"]),
            distortion=_distortion_from_dict(data["distortion"]),
            extrinsics=tuple(_pose_from_dict(v) for v in data["views"]),
            noise_sigma=float(data["noise_sigma"]),
            seed=_int(data["seed"], "seed"),
        )
