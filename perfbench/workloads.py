"""The benchmark workloads: seeded inputs, timed operations and their checks.

Every workload is a closed loop with one client: each operation starts when
the previous one has finished, in this process, through the public API.
Calibration work goes through ``radialcal.cli.main`` exactly as a user's
command line would; the localizer is called as a library function, as a
robot would call it each frame.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

calibration = importlib.import_module("radialcal.calibration")
cli = importlib.import_module("radialcal.cli")
distortion = importlib.import_module("radialcal.distortion")
fileio = importlib.import_module("radialcal.fileio")
geometry = importlib.import_module("radialcal.geometry")
localize_mod = importlib.import_module("radialcal.localize")


class SetupError(RuntimeError):
    """The generated inputs do not meet the workload's preconditions."""


@dataclass(frozen=True)
class Sizes:
    paper_sessions: int = 100
    v100_sessions: int = 4
    v100_views: int = 100
    grid_w: int = 320
    grid_h: int = 240
    tiles: int = 16
    localize_cases: int = 100  # per calibration
    fixes_per_pass: int = 100


# A run of selftest.py uses these so that every workload finishes in seconds.
TINY = Sizes(
    paper_sessions=3, v100_sessions=2, v100_views=6, grid_w=16, grid_h=12,
    tiles=4, localize_cases=4, fixes_per_pass=5,
)


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrix of a nonzero axis-angle vector."""
    theta = float(np.linalg.norm(w))
    k = w / theta
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def _quiet_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run one CLI command in-process; return (wall seconds, exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return wall, code, out.getvalue()


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(error)


@dataclass
class Unit:
    """What one unit of work did: op walls and span ranges by op kind, bytes
    moved through fileio, and the RMS of each refined fit."""

    walls: dict[str, list[float]] = field(default_factory=dict)
    ranges: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)
    rms: list[float] = field(default_factory=list)


def _note_spans(tracer, kind: str, unit: Unit, begin: int) -> None:
    """Record that spans ``begin`` onwards belong to one operation of ``kind``."""
    if tracer is not None:
        unit.ranges.setdefault(kind, []).append((begin, len(tracer)))


# ---------------------------------------------------------------------------
# Calibration sessions


@dataclass(frozen=True)
class SessionConfig:
    intrinsics: dict
    distortion: dict
    grid: dict
    views: int
    noise_sigma: float
    command: tuple[str, ...]


SHORT_FOCAL = {"alpha": 277.0, "beta": 270.5, "gamma": -0.57, "u0": 154.0, "v0": 119.8}


# Sessions whose views score below this are redrawn: about 2 % of 5-view
# draws, whose median score is 0.11. Of some 7,000 5-view draws, three made
# `compare` fail (no positive-definite conic in the linear stage, or LM at
# its iteration cap from a start hundreds of pixels off); they scored 0.008,
# 0.015 and 0.029. The score depends on the poses alone, never on how the
# program fares, so both sides of a comparison get the same sessions.
MIN_VIEW_DIVERSITY = 0.03


def view_diversity(views: list[dict]) -> float:
    """How well a session's true poses pin down the camera, from 0 to 1.

    Zhang's linear method solves V b = 0 for the absolute conic, two rows of
    V per view. Built from the poses alone (the homographies [r1 r2 t] with
    the intrinsics taken out), V always has b = (1, 0, 1, 0, 0, 1) in its
    null space; the ratio of its second-smallest to its largest singular
    value is how far the views are from leaving a second null direction.
    Views tilted about nearly the same axis score near 0.
    """

    def row(H, i, j):
        return np.array([
            H[0, i] * H[0, j], H[0, i] * H[1, j] + H[1, i] * H[0, j], H[1, i] * H[1, j],
            H[2, i] * H[0, j] + H[0, i] * H[2, j], H[2, i] * H[1, j] + H[1, i] * H[2, j],
            H[2, i] * H[2, j],
        ])

    rows = []
    for view in views:
        R = _rodrigues(np.asarray(view["axis_angle"], dtype=float))
        t = -R.T @ np.asarray(view["t"], dtype=float)
        H = np.column_stack([R[0], R[1], t])  # columns r1, r2 of R^T, then t
        H /= np.linalg.norm(H)
        rows += [row(H, 0, 1), row(H, 0, 0) - row(H, 1, 1)]
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return float(s[-2] / s[0])


class SessionWorkload:
    """Many seeded sessions, each calibrated by one CLI command."""

    cycle = 1

    def __init__(self, config: SessionConfig, n_sessions: int):
        self.config = config
        self.n_sessions = n_sessions
        self.kind = config.command[0]
        self.n_obs = config.grid["nx"] * config.grid["ny"] * config.views
        self.truth = {"intrinsics": config.intrinsics, "distortion": config.distortion}

    def _synth(self, work: Path, stem: str, seed: int, views: int) -> Path:
        c = self.config
        spec = {
            "seed": seed,
            "intrinsics": c.intrinsics,
            "distortion": c.distortion,
            "grid": c.grid,
            "views": views,
            "noise_sigma": c.noise_sigma,
        }
        spec_path = work / f"{stem}.spec.json"
        spec_path.write_text(json.dumps(spec))
        corr = work / f"{stem}.csv"
        _, code, _ = _quiet_cli(["synth", "--spec", str(spec_path), "--output", str(corr)])
        if code != 0:
            raise SetupError(f"synth of {stem} exited with {code}")
        return corr

    def _draw(self, work: Path, stem: str, seed: int, views: int) -> Path:
        """Synthesize a session through the CLI, redrawing ones whose views
        are too alike to calibrate from (see view_diversity)."""
        for attempt in range(100):
            corr = self._synth(work, stem, _sub_seed(seed, attempt), views)
            truth = json.loads(corr.with_suffix(".truth.json").read_text())
            if view_diversity(truth["views"]) >= MIN_VIEW_DIVERSITY:
                return corr
            self.redrawn += 1
        raise SetupError(f"{stem}: no session with diverse enough views in 100 draws")

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.redrawn = 0
        self.sessions = [
            self._draw(work, f"s{i:03d}", _sub_seed(seed, i), self.config.views)
            for i in range(self.n_sessions)
        ]
        # Warm-up: one operation on a small session of the same camera.
        warm = self._draw(work, "warm", _sub_seed(seed, 10**6), 5)
        _, code, stdout = self.run_command(warm, work / "warm.out.json")
        error, _ = self.check(code, stdout, work / "warm.out.json")
        if error is not None:
            raise SetupError(f"warm-up {self.kind} failed: {error}")

    def run_command(self, corr: Path, out: Path) -> tuple[float, int, str]:
        argv = [*self.config.command, "--input", str(corr)]
        if self.kind == "calibrate":
            argv += ["--output", str(out)]
        return _quiet_cli(argv)

    def check(self, code: int, stdout: str, out: Path) -> tuple[str | None, list[float]]:
        """Check one run: (error or None, RMS of each refined fit)."""
        if code != 0:
            return f"{self.kind} exited with {code}", []
        try:
            if self.kind == "compare":
                report = json.loads(stdout)
                fits = {m: report[m] for m in ("model1", "model2", "model3")}
            else:
                data = json.loads(out.read_text())
                fits = {data["model"]: {**data["intrinsics"], "k1": data["k1"], "k2": data["k2"], "J": data["J_final"]}}
        except (OSError, ValueError, KeyError) as exc:
            return f"{self.kind} output unreadable: {exc}", []
        rms = {}
        for model, fit in fits.items():
            if "error" in fit or not fit.get("converged", True):
                return f"{model} fit failed: {fit.get('error', 'not converged')}", []
            rms[model] = math.sqrt(fit["J"] / self.n_obs) if fit["J"] >= 0 else math.nan
        generating = self.config.distortion["model"]
        error = checks.check_fit(fits[generating], self.truth, rms[generating], self.config.noise_sigma)
        return error, list(rms.values()) if error is None else []

    def run_unit(self, i: int, tally: Tally, tracer) -> Unit:
        unit = Unit()
        corr = self.sessions[i % self.n_sessions]
        begin = len(tracer) if tracer is not None else 0
        out = self.work / f"out{i % self.n_sessions:03d}.json"
        wall, code, stdout = self.run_command(corr, out)
        _note_spans(tracer, self.kind, unit, begin)
        error, rms = self.check(code, stdout, out)
        tally.record(error)
        unit.walls[self.kind] = [wall]
        unit.rms = rms
        unit.bytes["correspondences"] = corr.stat().st_size
        return unit

    def jacobian_eval_s(self) -> float:
        """Median time of one objective_gradient at the first session's fit."""
        corr = fileio.read_correspondences(self.sessions[0])
        model = distortion.Model(self.config.distortion["model"])
        fit = calibration.calibrate(corr, model)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration.objective_gradient(corr, fit.intrinsics, fit.distortion, fit.extrinsics)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def end_to_end(self, units: list[Unit]) -> tuple[dict, dict]:
        walls = [u.walls[self.kind][0] for u in units]
        rms = [r for u in units for r in u.rms]
        n = len(walls)
        metrics = {
            "latency_ms_mean": (1e3 * float(np.mean(walls)), "ms"),
            "throughput_pts_per_s": (self.n_obs * n / sum(walls), "1/s"),
        }
        report = {
            f"{self.kind}_s_p50": {"value": float(np.median(walls)), "unit": "s", "n": n},
            "calib_rms_px": {"value": float(np.mean(rms)) if rms else math.nan, "unit": "px", "n": len(rms)},
            "sessions_redrawn": self.redrawn,
        }
        if n >= 100:
            report[f"{self.kind}_s_p90"] = {"value": float(np.percentile(walls, 90)), "unit": "s", "n": n}
        return metrics, report


def session_paper(sizes: Sizes) -> SessionWorkload:
    return SessionWorkload(
        SessionConfig(
            intrinsics=SHORT_FOCAL,
            distortion={"model": "model1", "k1": -0.3435, "k2": 0.1232},
            grid={"nx": 8, "ny": 8, "spacing": 0.15},
            views=5,
            noise_sigma=0.2,
            command=("compare", "--json"),
        ),
        sizes.paper_sessions,
    )


def session_100v(sizes: Sizes) -> SessionWorkload:
    return SessionWorkload(
        SessionConfig(
            intrinsics=SHORT_FOCAL,
            distortion={"model": "model3", "k1": -0.25, "k2": -0.05},
            grid={"nx": 12, "ny": 12, "spacing": 0.1},
            views=sizes.v100_views,
            noise_sigma=0.2,
            command=("calibrate", "--model", "3"),
        ),
        sizes.v100_sessions,
    )


# ---------------------------------------------------------------------------
# Point warping and localization with fixed calibrations

CAMERA = {"alpha": 520.0, "beta": 515.0, "gamma": 0.4, "u0": 321.5, "v0": 239.0}
IMAGE_W, IMAGE_H = 640.0, 480.0
COEFFICIENTS = {"model1": (-0.2, 0.05), "model2": (-0.15, 0.0), "model3": (-0.1, -0.05)}
MODELS = tuple(COEFFICIENTS)
DIRECTIONS = ("inverse", "forward")
PASSES = tuple((d, m) for d in DIRECTIONS for m in MODELS)


def _downward_axis_angle(yaw: float, tilt: float) -> np.ndarray:
    """Axis-angle of ``Rz(yaw) @ Rx(pi - tilt)``, from the quaternion product.

    Built in closed form so that poses near a rotation of pi (downward
    cameras) are exact inputs, independent of the library's own log map.
    """
    ca, sa = math.cos(yaw / 2.0), math.sin(yaw / 2.0)
    cb, sb = math.cos((math.pi - tilt) / 2.0), math.sin((math.pi - tilt) / 2.0)
    w, v = ca * cb, np.array([ca * sb, sa * sb, sa * cb])
    norm = float(np.linalg.norm(v))
    return v * (2.0 * math.atan2(norm, w) / norm)


class PointsWorkload:
    """CLI undistort passes over tiles of an image-sized grid, each followed
    by a block of localize fixes. One operation is one pass and its block.

    A tile is every ``tiles``-th point of the grid, so every tile spans the
    whole image and costs the same. Whole-grid passes of 1-3 s left each pass
    kind three or four samples in a run, and the throughput spread by 12-25 %
    between runs on a shared 2-core host; tile passes of 50-150 ms, dozens
    per kind and interleaved over the whole run, spread by 4-10 %.
    """

    cycle = len(PASSES)  # operations until every pass kind has run once

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        rng = np.random.default_rng(_sub_seed(seed, 0))
        gw, gh = self.sizes.grid_w, self.sizes.grid_h
        i, j = np.meshgrid(np.arange(gw), np.arange(gh), indexing="xy")
        u = (i.ravel() + rng.uniform(0.0, 1.0, i.size)) * (IMAGE_W / gw)
        v = (j.ravel() + rng.uniform(0.0, 1.0, j.size)) * (IMAGE_H / gh)
        self.points = np.column_stack([u, v])
        n_tiles = self.sizes.tiles
        self.tiles = [self.points[k::n_tiles] for k in range(n_tiles)]
        self.tile_paths = [work / f"tile{k:02d}.csv" for k in range(n_tiles)]
        for tile, path in zip(self.tiles, self.tile_paths):
            np.savetxt(path, tile, fmt="%.17g", delimiter=",", header="u,v", comments="")

        self.A = geometry.IntrinsicMatrix(**CAMERA)
        self.calibs, self.calib_paths, self.specs = {}, {}, {}
        for model, (k1, k2) in COEFFICIENTS.items():
            calib = {
                "model": model, "k1": k1, "k2": k2, "intrinsics": CAMERA, "views": [],
                "J_final": 0.0, "rms_px": 0.0,
            }
            path = work / f"calib_{model}.json"
            path.write_text(json.dumps(calib))
            self.calibs[model], self.calib_paths[model] = calib, path
            self.specs[model] = distortion.DistortionSpec(distortion.Model(model), k1, k2)
            self._check_domain(model)
        self.cases = self._localize_cases(rng)

        # Warm-up: every pass kind on a slice of the grid, and a few fixes.
        warm = work / "warm.csv"
        np.savetxt(warm, self.points[:: max(1, self.points.shape[0] // 200)], fmt="%.17g",
                   delimiter=",", header="u,v", comments="")
        for model in MODELS:
            for direction in DIRECTIONS:
                _, code, _ = _quiet_cli(self._argv(model, direction, warm, work / "warm.out.csv"))
                if code != 0:
                    raise SetupError(f"warm-up {direction} {model} exited with {code}")
        for case in self.cases[:30]:
            localize_mod.localize(*case[0])

    def _check_domain(self, model: str) -> None:
        """Each grid point must have exactly one preimage in the monotone domain.

        Checked as: F(r) = r f(r) is increasing on [0, R] (validate_monotone)
        and F(R) exceeds the distorted radius of the farthest image corner.
        """
        corners = np.array([[0.0, 0.0], [IMAGE_W, 0.0], [0.0, IMAGE_H], [IMAGE_W, IMAGE_H]])
        r_corner = float(np.max(np.hypot(*checks.to_normalized(CAMERA, corners))))
        r_max = 1.5 * r_corner
        k1, k2 = COEFFICIENTS[model]
        reach = r_max * float(checks.warp_factor(model, k1, k2, np.array(r_max)))
        monotone = distortion.validate_monotone(self.specs[model], distortion.WorkingDomain(r_max))
        if not (monotone and reach > r_corner):
            raise SetupError(f"{model}: image corner radius {r_corner:.3f} is outside the monotone domain")

    def _localize_cases(self, rng) -> list:
        """Noiseless fixes with known answers, observed through each calibration's warp."""
        cases = []
        for _ in range(self.sizes.localize_cases):
            for model in MODELS:
                cases.append(self._one_case(rng, model))
        return cases

    def _one_case(self, rng, model: str):
        while True:
            yaw, tilt = rng.uniform(-math.pi, math.pi), rng.uniform(0.25, 0.8)
            t1 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)])
            w1 = _downward_axis_angle(yaw, tilt)
            R1 = _rodrigues(w1)
            n = rng.uniform(-0.35, 0.35, (2, 2))
            rays = np.column_stack([n, np.ones(2)]) @ R1.T
            if np.any(rays[:, 2] > -1e-3):
                continue
            ground = t1 + (-t1[2] / rays[:, 2])[:, None] * rays
            if math.hypot(*(ground[1, :2] - ground[0, :2])) < 0.2:
                continue
            # Observed pixels: project the ground points back with the true pose.
            cam = (ground - t1) @ R1
            xy = cam[:, :2] / cam[:, 2:3]
            pix = checks.forward_pixels(self.calibs[model], checks.to_pixels(CAMERA, xy[:, 0], xy[:, 1]))
            delta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            dt = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
            assumed = geometry.ViewExtrinsics(_downward_axis_angle(yaw + delta, tilt), t1 + dt)
            line = localize_mod.LineMap(geometry.WorldPoint(*ground[0]), geometry.WorldPoint(*ground[1]))
            args = (
                line,
                geometry.PixelPoint(*pix[0]),
                geometry.PixelPoint(*pix[1]),
                self.A,
                self.specs[model],
                assumed,
            )
            return args, delta, t1

    def _argv(self, model: str, direction: str, points: Path, out: Path) -> list[str]:
        return ["undistort", "--calib", str(self.calib_paths[model]), "--points", str(points),
                "--output", str(out), "--direction", direction]

    def check_pass(self, direction: str, model: str, inputs: np.ndarray, out: Path) -> str | None:
        check = checks.check_inverse if direction == "inverse" else checks.check_forward
        return check(self.calibs[model], inputs, checks.read_points_csv(out))

    def run_unit(self, index: int, tally: Tally, tracer) -> Unit:
        """One CLI pass, the next in the cycle of every model in both
        directions, on the next tile, followed by a block of fixes, so that
        the passes and the fixes both sample the whole run."""
        direction, model = PASSES[index % len(PASSES)]
        tile = (index // len(PASSES)) % len(self.tiles)
        kind = f"{direction}-{model}"
        unit = Unit(bytes={"read_points": 0, "write_points": 0})
        out = self.work / f"out_{direction}_{model}.csv"
        begin = len(tracer) if tracer is not None else 0
        wall, code, _ = _quiet_cli(self._argv(model, direction, self.tile_paths[tile], out))
        _note_spans(tracer, kind, unit, begin)
        unit.walls[kind] = [wall]
        if code != 0:
            tally.record(f"undistort {direction} {model} exited with {code}")
        else:
            tally.record(self.check_pass(direction, model, self.tiles[tile], out))
            unit.bytes["read_points"] += self.tile_paths[tile].stat().st_size
            unit.bytes["write_points"] += out.stat().st_size
        self._fixes(unit, tally, tracer, index * self.sizes.fixes_per_pass)
        return unit

    def _fixes(self, unit: Unit, tally: Tally, tracer, first: int) -> None:
        walls = unit.walls["localize"] = []
        clock = time.perf_counter
        begin = len(tracer) if tracer is not None else 0
        for k in range(first, first + self.sizes.fixes_per_pass):
            args, delta, position = self.cases[k % len(self.cases)]
            t0 = clock()
            try:
                fix = localize_mod.localize(*args)
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                walls.append(clock() - t0)
                tally.record(f"localize raised {type(exc).__name__}: {exc}")
                continue
            walls.append(clock() - t0)
            tally.record(checks.check_fix(fix, delta, position))
        _note_spans(tracer, "localize", unit, begin)

    def end_to_end(self, units: list[Unit]) -> tuple[dict, dict]:
        """Rates combine the mean wall of each pass kind, so a run that ends
        part-way through a cycle weighs every kind alike."""
        n_pts = self.tiles[0].shape[0]
        walls = {}
        for u in units:
            for kind, ws in u.walls.items():
                walls.setdefault(kind, []).extend(ws)

        def rate(kinds) -> float:
            return n_pts * len(kinds) / sum(float(np.mean(walls[k])) for k in kinds)

        fixes = np.array(walls["localize"])
        metrics = {
            "latency_ms_mean": (1e3 * float(np.mean(fixes)), "ms"),
            "throughput_pts_per_s": (rate([f"{d}-{m}" for d, m in PASSES]), "1/s"),
        }
        report = {
            f"undistort_{m.replace('model', 'm')}_pts_per_s": {
                "value": rate([f"inverse-{m}"]), "unit": "1/s", "n": len(walls[f"inverse-{m}"])
            }
            for m in MODELS
        }
        forward = [f"forward-{m}" for m in MODELS]
        report["forward_pts_per_s"] = {"value": rate(forward), "unit": "1/s", "n": sum(len(walls[k]) for k in forward)}
        report["localize_us_p50"] = {"value": 1e6 * float(np.median(fixes)), "unit": "us", "n": fixes.size}
        if fixes.size >= 1000:
            report["localize_us_p99"] = {"value": 1e6 * float(np.percentile(fixes, 99)), "unit": "us", "n": fixes.size}
        return metrics, report


WORKLOADS = {
    "session-paper": session_paper,
    "session-100v": session_100v,
    "points": PointsWorkload,
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
