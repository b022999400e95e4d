#!/usr/bin/env python3
"""Fit equivalence: a fixed, seeded set of calibrations, array inverses and
ground-line fixes to compare two versions of the code on.

The set is ``compare_models`` on 20 five-view sessions shaped like the
repository benchmark's ``session-paper`` sessions (seeds 5000-5019), and
``calibrate`` on the 10-, 30- and 100-view scenes of ``bench_calibrate.py``
and on a ragged scene: views of 4, 9 and 64 points, plus a collinear view,
one whose pixels coincide and one of two points, which the linear stage
drops. For each fit the JSON holds the LM iteration count, the stop reason,
``J_init``, ``J_final`` and the RMS, the SHA-256 of the per-point residuals
and the parameters (the five intrinsics, the coefficients, then each view's
axis-angle and translation), or the error that a failed model reported.
Each fit also records its distance to a tight refit (``refine`` from the
fit at ``tol_x = tol_fun = 1e-14``): the scaled distance ``|a - b| /
max(1, |a|, |b|)`` of each shared parameter, and how far ``J_final`` lies
above the refit's, relative. That yardstick judges a change that moves the
LM's stop points by how close they stay to the minimum, not by bits; it is
not compared.
For each scene it holds the linear stage's intrinsics and poses and the ids
of the views it dropped. It also holds the SHA-256 of ``undistort_array``'s
output on each seeded row set of ``bench_undistort.py`` (``SPECS`` and
``FOLD_SPECS``) and on its model1 fold rows for three model1 specs
(``FAR_BRANCH_SPECS``), each with the count and SHA-256 of its NaN-row
mask; for each of those specs, its fold and ``F(fold) = fold *
warp_factor(spec, fold)`` as ``float.hex``; the SHA-256 of the CSV that
``write_correspondences`` writes for the ragged scene; and the SHA-256 of
the bytes that the CLI (``radialcal.cli.main``) writes: the correspondence
CSV and the ``.truth.json`` of ``synth`` for the 10-, 30- and 100-view
scenes, the calibration JSON of ``calibrate --model 3`` on the 10- and
30-view scenes and the ragged scene, and
``undistort`` in both directions for each model on a jittered 320x240 grid
of a 640x480 image (76,800 points), whose ``--calib`` file is written as
a plain dict, as the repository benchmark writes its own. Last, it holds
``localize`` fixes per model: seeded noiseless cases from
``bench_undistort.localize_cases``, some with the assumed pose's rotation
angle at pi (yaw +-pi, tilt 1e-6 and 1e-3), each with the endpoints in
both orders, and four inputs on which the fix must fail. A fix's record is its yaw deviation, ``t1``, both
recovered endpoints and both discrepancies, or its error.

    PYTHONPATH=src python scripts/equivalence.py --output fits.json
    PYTHONPATH=src python scripts/equivalence.py --against fits.json

``--against FILE`` compares the set with FILE, which this script wrote
(against another tree, run it with that tree's ``src`` on PYTHONPATH). It
prints each record whose iteration count, stop reason, error, objective,
residual hash, dropped views or output hash differs (the objective bit for
bit); an ``undistort_array`` record whose hash differs is reported as moved
NaN rows (a flag gained or lost) or as moved values on the same NaN rows,
and the two are counted apart; a moved fold record is reported with the
ulp distance of its fold and ``F(fold)``, and counted apart too. Then it
prints the largest relative parameter difference ``|a - b| / max(1, |a|,
|b|)`` and the largest absolute difference of a fix (over every pair of
records with as many values, those that differ included), and for each
side the largest distance of a fit to its tight refit. It exits with
status 1 when one of those differs, a parameter differs by more than 1e-9 relative
or a fix by more than 1e-12. BLAS runs one thread unless
OPENBLAS_NUM_THREADS is set, so that a rerun on one machine repeats every
bit.
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_calibrate  # noqa: E402
import bench_undistort  # noqa: E402
from radialcal import calibration  # noqa: E402
from radialcal.calibration import (  # noqa: E402
    CorrespondenceSet,
    OptimizerOptions,
    calibrate,
    compare_models,
    linear_stage,
    refine,
)
from radialcal.cli import main as cli_main  # noqa: E402
from radialcal.distortion import DistortionSpec, Model, undistort_array, warp_factor  # noqa: E402
from radialcal.fileio import write_correspondences, write_points  # noqa: E402
from radialcal.geometry import PixelPoint, ViewExtrinsics, WorldPoint  # noqa: E402
from radialcal.localize import LineMap, localize  # noqa: E402
from radialcal.synth import SynthSpec, generate_scene  # noqa: E402

PAPER_SEEDS = range(5000, 5020)
PAPER_SESSION = dict(
    intrinsics=bench_calibrate.SCENE["intrinsics"],
    distortion=DistortionSpec(Model.MODEL1, -0.3435, 0.1232),
    grid_nx=8,
    grid_ny=8,
    spacing=0.15,
    n_views=5,
    noise_sigma=0.2,
)
# The CLI undistort grid: one point jittered inside each cell of GRID over
# an IMAGE-sized image, from its own generator.
GRID_SEED = 4
GRID = (320, 240)
IMAGE = (640.0, 480.0)
PARAM_RTOL = 1e-9
FIX_ATOL = 1e-12
# model1 specs on the model1 fold rows. The first two have an F(r) = r f(r)
# that rises again past its fold: Newton that ignores the fold finds a root
# on the far branch. The pincushion third has F(fold) above its fold: the
# rows between the two have a root, though their start lies past the fold.
FAR_BRANCH_SPECS = {
    "model1_-0.5_0.1": DistortionSpec(Model.MODEL1, -0.5, 0.1),
    "model1_-0.3_0.02": DistortionSpec(Model.MODEL1, -0.3, 0.02),
    "model1_0.5_-0.1": DistortionSpec(Model.MODEL1, 0.5, -0.1),
}
TIGHT = OptimizerOptions(tol_x=1e-14, tol_fun=1e-14)
SHARED = ("alpha", "beta", "gamma", "u0", "v0", "k1", "k2")
# Record fields that must match exactly.
OUTCOME = ("error", "n_iterations", "stop_reason", "objective", "residuals_sha256", "sha256", "dropped")


def shared_params(result) -> list[float]:
    A = result.intrinsics
    return [A.alpha, A.beta, A.gamma, A.u0, A.v0, *result.distortion.coefficients]


def fit_record(result, corr) -> dict:
    """The record of a fit of corr's views."""
    shared = shared_params(result)
    params = list(shared)
    for E in result.extrinsics:
        params += [*E.axis_angle, *E.t]
    residuals = np.concatenate(result.per_point_residuals)
    tight = refine(corr, result, TIGHT)
    a, b = np.array(shared), np.array(shared_params(tight))
    distance = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return {
        "n_iterations": result.n_iterations,
        "stop_reason": result.stop_reason,
        "objective": [result.j_init, result.j_final, result.rms_px],
        "residuals_sha256": hashlib.sha256(residuals.tobytes()).hexdigest(),
        "params": [float(x) for x in params],
        "tight": {
            **dict(zip(SHARED, distance.tolist())),
            "J_final": (result.j_final - tight.j_final) / tight.j_final,
        },
    }


def linear_record(stage) -> dict:
    A = stage.intrinsics
    return {
        "dropped": [view_id for view_id, _ in stage.dropped],
        "params": [float(x) for x in (A.alpha, A.beta, A.gamma, A.u0, A.v0, *stage.poses.ravel())],
    }


def session(view_ids, world_xy, pixels, offsets) -> CorrespondenceSet:
    """The session of these stacked rows. A tree from before the stacked
    constructor takes one ``CalibrationView`` per view; they are built for
    it here, so that a reference can be written with that tree's ``src``."""
    if not hasattr(calibration, "CalibrationView"):
        return CorrespondenceSet(view_ids, world_xy, pixels, offsets)
    parts = zip(view_ids, np.split(world_xy, offsets[1:-1]), np.split(pixels, offsets[1:-1]))
    return CorrespondenceSet(tuple(calibration.CalibrationView(*part) for part in parts))


def ragged_scene():
    """Views of 4, 9 and 64 points of the benchmark's 12x12 target (ids 7,
    2, 40), a collinear view (31), one whose pixels coincide (5) and one of
    two points (11), gathered as rows of a generated six-view scene: view
    k's points are its rows ``144 k`` on."""
    spec = SynthSpec(seed=46, n_views=6, **bench_calibrate.SCENE)
    corr = generate_scene(spec)[0]
    corners = [0, 11, 132, 143]
    sub_grid = [ix * 12 + iy for ix in (0, 5, 11) for iy in (0, 5, 11)]
    square = [ix * 12 + iy for ix in range(8) for iy in range(8)]
    row = [ix * 12 + 2 for ix in range(12)]
    picks = (corners, sub_grid, row, square, range(144), [0, 1])
    rows = [144 * k + np.asarray(pick) for k, pick in enumerate(picks)]
    world_rows = np.concatenate(rows)
    # The pixels of view id 5 are all the first pixel of its scene view.
    pixel_rows = np.concatenate(rows[:4] + [np.full(144, 144 * 4)] + rows[5:])
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return session((7, 2, 31, 40, 5, 11), corr.world[world_rows, :2], corr.pixels[pixel_rows], offsets)


def run_fits() -> dict:
    fits = {}
    for seed in PAPER_SEEDS:
        corr, _ = generate_scene(SynthSpec(seed=seed, **PAPER_SESSION))
        stage = linear_stage(corr)
        fits[f"linear/seed{seed}"] = linear_record(stage)
        for entry in compare_models(corr):
            key = f"compare/seed{seed}/{entry.model.value}"
            fits[key] = {"error": entry.error} if entry.result is None else fit_record(entry.result, stage.corr)
    scenes = {f"{n}v": bench_calibrate.scene(n) for n in bench_calibrate.VIEWS}
    with warnings.catch_warnings():
        # The ragged scene's dropped views are recorded, not printed.
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, corr in {**scenes, "ragged": ragged_scene()}.items():
            stage = linear_stage(corr)
            fits[f"linear/{name}"] = linear_record(stage)
            result = calibrate(corr, bench_calibrate.MODEL)
            fits[f"calibrate/{name}/{bench_calibrate.MODEL.value}"] = fit_record(result, stage.corr)
    return fits


def array_hashes() -> dict:
    """SHA-256 of undistort_array's output on bench_undistort's row sets,
    and on its model1 fold rows for FAR_BRANCH_SPECS; and the fold record
    of each of those specs."""
    rows = bench_undistort.undistort_rows(np.random.default_rng(bench_undistort.SEED))
    folded = bench_undistort.fold_rows()
    sets = (
        ("undistort", bench_undistort.SPECS, rows),
        ("past_the_fold", bench_undistort.FOLD_SPECS, folded),
        ("far_branch", FAR_BRANCH_SPECS, dict.fromkeys(FAR_BRANCH_SPECS, folded["model1"])),
    )
    records = {}
    for section, specs, row_sets in sets:
        for name, spec in specs.items():
            records[f"undistort_array/{section}/{name}"] = array_record(undistort_array(spec, row_sets[name]))
            records[f"fold/{section}/{name}"] = fold_record(spec)
    return records


def fold_record(spec: DistortionSpec) -> dict:
    """The spec's fold and ``F(fold)`` (inf without a fold), as float.hex."""
    fold = spec.fold
    top = fold * warp_factor(spec, fold) if fold < math.inf else math.inf
    return {"fold": fold.hex(), "top": top.hex()}


def ulps(a: str, b: str) -> int:
    """The ulp distance of two positive floats written by float.hex."""
    x, y = (int(np.float64(float.fromhex(v)).view(np.int64)) for v in (a, b))
    return abs(x - y)


def array_record(out: np.ndarray) -> dict:
    """The SHA-256 of an undistort_array output, and the count and SHA-256
    of its NaN-row mask: a flag that moved, apart from values that moved."""
    mask = np.isnan(out).any(axis=1)
    return {
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
        "nan_rows": int(mask.sum()),
        "nan_sha256": hashlib.sha256(mask.tobytes()).hexdigest(),
    }


def sha256_of(path: Path) -> dict:
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def run_cli(argv: list[str]) -> None:
    """radialcal.cli.main on argv, its printed lines and warnings discarded."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cli_main(argv)


def grid_points() -> np.ndarray:
    """The CLI undistort grid: one point jittered inside each cell of GRID."""
    rng = np.random.default_rng(GRID_SEED)
    i, j = np.meshgrid(np.arange(GRID[0]), np.arange(GRID[1]), indexing="xy")
    u = (i.ravel() + rng.uniform(0.0, 1.0, i.size)) * (IMAGE[0] / GRID[0])
    v = (j.ravel() + rng.uniform(0.0, 1.0, j.size)) * (IMAGE[1] / GRID[1])
    return np.column_stack([u, v])


def grid_calibration(model: str) -> dict:
    """The ``--calib`` record of the grid's undistort for a model of
    bench_undistort's SPECS: its camera and coefficients, no views."""
    spec, A = bench_undistort.SPECS[model], bench_undistort.CAMERA
    return {
        "model": model, "k1": spec.k1, "k2": spec.k2,
        "intrinsics": {"alpha": A.alpha, "beta": A.beta, "gamma": A.gamma, "u0": A.u0, "v0": A.v0},
        "views": [], "J_final": 0.0, "rms_px": 0.0,
    }


def cli_hashes(work: Path) -> dict:
    """SHA-256 of the correspondence CSV and the truth JSON that CLI
    ``synth`` writes for bench_calibrate's scenes, of the CSV that
    ``write_correspondences`` writes for the ragged scene, of the
    calibration JSON that CLI ``calibrate --model 3`` writes, and of CLI
    ``undistort``'s output on the grid."""
    records = {}
    for n in bench_calibrate.VIEWS:
        spec_path, corr_path = work / f"synth_{n}v.json", work / f"synth_{n}v.csv"
        spec_path.write_text(json.dumps(bench_calibrate.synth_spec(n)))
        run_cli(["synth", "--spec", str(spec_path), "--output", str(corr_path)])
        records[f"cli/synth/{n}v/csv"] = sha256_of(corr_path)
        records[f"cli/synth/{n}v/truth"] = sha256_of(corr_path.with_suffix(".truth.json"))
    scenes = {f"{n}v": bench_calibrate.scene(n) for n in bench_calibrate.VIEWS[:2]}
    for name, corr in {**scenes, "ragged": ragged_scene()}.items():
        corr_path, out = work / f"{name}.csv", work / f"{name}.json"
        write_correspondences(corr_path, corr)
        if name == "ragged":
            records["write_correspondences/ragged"] = sha256_of(corr_path)
        run_cli(["calibrate", "--input", str(corr_path), "--model", "3", "--output", str(out)])
        records[f"cli/calibrate/{name}/model3"] = sha256_of(out)
    points = work / "grid.csv"
    write_points(points, grid_points())
    for model in bench_undistort.LOCALIZE_MODELS:
        calib_path = work / f"calib_{model}.json"
        calib_path.write_text(json.dumps(grid_calibration(model)))
        for direction in ("inverse", "forward"):
            out = work / f"{direction}_{model}.csv"
            run_cli(["undistort", "--calib", str(calib_path), "--points", str(points),
                     "--direction", direction, "--output", str(out)])
            records[f"cli/undistort/{direction}/{model}"] = sha256_of(out)
    return records


def fix_record(args: tuple) -> dict:
    try:
        fix = localize(*args)
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    a, b = fix.recovered_a, fix.recovered_b
    values = [fix.delta_theta, *fix.t1, a.x, a.y, a.z, b.x, b.y, b.z]
    return {"fix": [float(v) for v in (*values, fix.length_discrepancy, fix.translation_consistency)]}


def failing_fixes(spec: DistortionSpec) -> dict:
    """Inputs on which the fix fails, one per error it names."""
    A = bench_undistort.CAMERA
    center, off = PixelPoint(A.u0, A.v0), PixelPoint(A.u0 + 40.0, A.v0 - 25.0)
    line = LineMap(WorldPoint(0.0, 0.0), WorldPoint(1.0, 0.0))
    down = np.array([math.pi - 0.3, 0.0, 0.0])
    return {
        "coincide": (line, center, PixelPoint(A.u0, A.v0), A, spec, ViewExtrinsics(down, np.array([0.0, 0.0, 1.0]))),
        # Optical axis parallel to the floor.
        "parallel": (line, center, off, A, spec, ViewExtrinsics(np.array([math.pi / 2, 0.0, 0.0]), np.ones(3))),
        # Looking up from height 1.
        "behind": (line, off, center, A, spec, ViewExtrinsics(np.zeros(3), np.array([0.0, 0.0, 1.0]))),
        # 1e-6 above the floor: points 0.05 px apart land 1e-10 apart.
        "degenerate": (
            line, center, PixelPoint(A.u0 + 0.05, A.v0), A, spec, ViewExtrinsics(down, np.array([0.0, 0.0, 1e-6]))
        ),
    }


def fix_records() -> dict:
    rng = np.random.default_rng(bench_undistort.LOCALIZE_SEED)
    families = {"random": (None, None, 10)}
    for yaw_name, yaw in (("+pi", math.pi), ("-pi", -math.pi)):
        for tilt in (1e-6, 1e-3):
            families[f"yaw{yaw_name}_tilt{tilt:g}"] = (yaw, tilt, 3)
    records = {}
    for model in bench_undistort.LOCALIZE_MODELS:
        spec = bench_undistort.SPECS[model]
        cases = {
            f"{family}/{k}": args
            for family, (yaw, tilt, count) in families.items()
            for k, args in enumerate(bench_undistort.localize_cases(rng, spec, count, yaw, tilt))
        }
        for name, args in {**cases, **failing_fixes(spec)}.items():
            line, a, b, *rest = args
            for order, pair in (("ab", (a, b)), ("ba", (b, a))):
                records[f"localize/{model}/{name}/{order}"] = fix_record((line, *pair, *rest))
    return records


def outcome(fit: dict) -> dict:
    return {key: fit.get(key) for key in OUTCOME} | {"values": len(fit.get("params", fit.get("fix", [])))}


def tight_distances(fits: dict) -> str:
    """The largest distance to a tight refit over the fits, per quantity."""
    worst = {}
    for key, fit in fits.items():
        for name, value in fit.get("tight", {}).items():
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, key)
    if not worst:
        return "not recorded"
    return "; ".join(f"{name} {value:.3g} ({key})" for name, (value, key) in worst.items())


def compare(base: dict, fits: dict) -> bool:
    """Print how fits differ from base; True when they are equivalent."""
    mismatched = sorted(set(base) ^ set(fits))
    for key in mismatched:
        print(f"{key}: only in {'the reference' if key in base else 'this run'}")
    worst, worst_key = 0.0, None
    worst_fix, worst_fix_key = 0.0, None
    flags_moved = values_moved = folds_moved = 0
    for key in sorted(set(base) & set(fits)):
        a, b = base[key], fits[key]
        if "fold" in a:
            moved = [f"{k} by {ulps(a[k], b[k])} ulp" for k in ("fold", "top") if a[k] != b[k]]
            if moved:
                mismatched.append(key)
                folds_moved += 1
                print(f"{key}: {', '.join(moved)} (top is F(fold))")
            continue
        oa, ob = outcome(a), outcome(b)
        if oa != ob:
            mismatched.append(key)
            differ = sorted(k for k in oa if oa[k] != ob[k])
            if differ == ["sha256"] and "nan_sha256" in a:
                if a["nan_sha256"] == b["nan_sha256"]:
                    values_moved += 1
                    print(f"{key}: values moved, same {b['nan_rows']} NaN rows")
                else:
                    flags_moved += 1
                    print(f"{key}: NaN rows moved: reference {a['nan_rows']}, this run {b['nan_rows']}")
                continue
            print(f"{key}: reference {[oa[k] for k in differ]}, this run {[ob[k] for k in differ]} ({', '.join(differ)})")
        # A record whose outcome moved still counts toward the largest
        # differences, unless its values cannot be paired.
        if oa["values"] != ob["values"]:
            continue
        if "params" in a:
            pa, pb = np.array(a["params"]), np.array(b["params"])
            rel = float(np.max(np.abs(pa - pb) / np.maximum(1.0, np.maximum(np.abs(pa), np.abs(pb)))))
            if rel > worst:
                worst, worst_key = rel, key
        if "fix" in a:
            diff = float(np.max(np.abs(np.array(a["fix"]) - np.array(b["fix"]))))
            if diff > worst_fix or worst_fix_key is None:
                worst_fix, worst_fix_key = diff, key
    print(
        f"{len(fits)} records; {len(mismatched)} with another iteration count, stop reason, "
        "error, objective, residuals, dropped views, hash or fold"
    )
    print(f"undistort_array: {flags_moved} with moved NaN rows, {values_moved} with only moved values")
    print(f"folds: {folds_moved} moved")
    if worst_key is None:
        print("parameters: no difference")
    else:
        print(f"largest relative parameter difference: {worst:.3g} ({worst_key})")
    if worst_fix_key is not None:
        print(f"largest absolute fix difference: {worst_fix:.3g} ({worst_fix_key})")
    print(f"largest distance to the tight refit, reference: {tight_distances(base)}")
    print(f"largest distance to the tight refit, this run: {tight_distances(fits)}")
    return not mismatched and worst <= PARAM_RTOL and worst_fix <= FIX_ATOL


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", help="write the fits to this JSON file")
    parser.add_argument("--against", help="compare the fits with this JSON file")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        fits = {**run_fits(), **array_hashes(), **cli_hashes(Path(work)), **fix_records()}
    if args.output:
        Path(args.output).write_text(json.dumps(fits, indent=1) + "\n")
    if args.against:
        return 0 if compare(json.loads(Path(args.against).read_text()), fits) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
