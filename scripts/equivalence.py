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
For each scene it holds the linear stage's intrinsics and poses and the ids
of the views it dropped. It also holds the SHA-256 of ``undistort_array``'s
output on each seeded row set of ``bench_undistort.py`` (``SPECS`` and
``FOLD_SPECS``), and ``localize`` fixes per model: seeded noiseless cases
from ``bench_undistort.localize_cases``, some with the assumed pose's
rotation angle at pi (yaw +-pi, tilt 1e-6 and 1e-3), each with the
endpoints in both orders, with and without ``try_both_orders``, and four
inputs on which the fix must fail. A fix's record is its yaw deviation,
``t1``, both recovered endpoints and both discrepancies, or its error.

    PYTHONPATH=src python scripts/equivalence.py --output fits.json
    PYTHONPATH=src python scripts/equivalence.py --against fits.json

``--against FILE`` compares the set with FILE, which this script wrote
(against another tree, run it with that tree's ``src`` on PYTHONPATH). It
prints each record whose iteration count, stop reason, error, objective,
residual hash, dropped views or array hash differs (the objective bit for
bit), the largest relative parameter difference ``|a - b| / max(1, |a|,
|b|)`` and the largest absolute difference of a fix. It exits with status 1
when one of those differs, a parameter differs by more than 1e-9 relative
or a fix by more than 1e-12. BLAS runs one thread unless
OPENBLAS_NUM_THREADS is set, so that a rerun on one machine repeats every
bit.
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_calibrate  # noqa: E402
import bench_undistort  # noqa: E402
from radialcal.calibration import (  # noqa: E402
    CalibrationView,
    CorrespondenceSet,
    calibrate,
    compare_models,
    linear_stage,
)
from radialcal.distortion import DistortionSpec, Model, undistort_array  # noqa: E402
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
PARAM_RTOL = 1e-9
FIX_ATOL = 1e-12
# Record fields that must match exactly.
OUTCOME = ("error", "n_iterations", "stop_reason", "objective", "residuals_sha256", "sha256", "dropped")


def fit_record(result) -> dict:
    A = result.intrinsics
    params = [A.alpha, A.beta, A.gamma, A.u0, A.v0, *result.distortion.coefficients]
    for E in result.extrinsics:
        params += [*E.axis_angle, *E.t]
    residuals = np.concatenate(result.per_point_residuals)
    return {
        "n_iterations": result.n_iterations,
        "stop_reason": result.stop_reason,
        "objective": [result.j_init, result.j_final, result.rms_px],
        "residuals_sha256": hashlib.sha256(residuals.tobytes()).hexdigest(),
        "params": [float(x) for x in params],
    }


def linear_record(corr) -> dict:
    stage = linear_stage(corr)
    A = stage.intrinsics
    return {
        "dropped": [view_id for view_id, _ in stage.dropped],
        "params": [float(x) for x in (A.alpha, A.beta, A.gamma, A.u0, A.v0, *stage.poses.ravel())],
    }


def ragged_scene():
    """Views of 4, 9 and 64 points of the benchmark's 12x12 target (ids 7,
    2, 40), a collinear view (31), one whose pixels coincide (5) and one of
    two points (11)."""
    spec = SynthSpec(seed=46, n_views=6, **bench_calibrate.SCENE)
    v = generate_scene(spec)[0].views
    corners = [0, 11, 132, 143]
    sub_grid = [ix * 12 + iy for ix in (0, 5, 11) for iy in (0, 5, 11)]
    square = [ix * 12 + iy for ix in range(8) for iy in range(8)]
    row = [ix * 12 + 2 for ix in range(12)]
    return CorrespondenceSet(
        (
            CalibrationView(7, v[0].world_xy[corners], v[0].pixels[corners]),
            CalibrationView(2, v[1].world_xy[sub_grid], v[1].pixels[sub_grid]),
            CalibrationView(31, v[2].world_xy[row], v[2].pixels[row]),
            CalibrationView(40, v[3].world_xy[square], v[3].pixels[square]),
            CalibrationView(5, v[4].world_xy, np.tile(v[4].pixels[:1], (144, 1))),
            CalibrationView(11, v[5].world_xy[:2], v[5].pixels[:2]),
        )
    )


def run_fits() -> dict:
    fits = {}
    for seed in PAPER_SEEDS:
        corr, _ = generate_scene(SynthSpec(seed=seed, **PAPER_SESSION))
        fits[f"linear/seed{seed}"] = linear_record(corr)
        for entry in compare_models(corr).entries:
            key = f"compare/seed{seed}/{entry.model.value}"
            fits[key] = {"error": entry.error} if entry.result is None else fit_record(entry.result)
    scenes = {f"{n}v": bench_calibrate.scene(n) for n in bench_calibrate.VIEWS}
    with warnings.catch_warnings():
        # The ragged scene's dropped views are recorded, not printed.
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, corr in {**scenes, "ragged": ragged_scene()}.items():
            fits[f"linear/{name}"] = linear_record(corr)
            result = calibrate(corr, bench_calibrate.MODEL)
            fits[f"calibrate/{name}/{bench_calibrate.MODEL.value}"] = fit_record(result)
    return fits


def array_hashes() -> dict:
    """SHA-256 of undistort_array's output on bench_undistort's row sets."""
    rows = bench_undistort.undistort_rows(np.random.default_rng(bench_undistort.SEED))
    sets = (
        ("undistort", bench_undistort.SPECS, rows),
        ("past_the_fold", bench_undistort.FOLD_SPECS, bench_undistort.fold_rows()),
    )
    return {
        f"undistort_array/{section}/{name}": {
            "sha256": hashlib.sha256(undistort_array(spec, row_sets[name]).tobytes()).hexdigest()
        }
        for section, specs, row_sets in sets
        for name, spec in specs.items()
    }


def fix_record(args: tuple, try_both_orders: bool) -> dict:
    try:
        fix = localize(*args, try_both_orders=try_both_orders)
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
                for both in (False, True):
                    key = f"localize/{model}/{name}/{order}{'/both' if both else ''}"
                    records[key] = fix_record((line, *pair, *rest), both)
    return records


def outcome(fit: dict) -> dict:
    return {key: fit.get(key) for key in OUTCOME} | {"values": len(fit.get("params", fit.get("fix", [])))}


def compare(base: dict, fits: dict) -> bool:
    """Print how fits differ from base; True when they are equivalent."""
    mismatched = sorted(set(base) ^ set(fits))
    for key in mismatched:
        print(f"{key}: only in {'the reference' if key in base else 'this run'}")
    worst, worst_key = 0.0, None
    worst_fix, worst_fix_key = 0.0, None
    for key in sorted(set(base) & set(fits)):
        a, b = base[key], fits[key]
        oa, ob = outcome(a), outcome(b)
        if oa != ob:
            mismatched.append(key)
            differ = sorted(k for k in oa if oa[k] != ob[k])
            print(f"{key}: reference {[oa[k] for k in differ]}, this run {[ob[k] for k in differ]} ({', '.join(differ)})")
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
        "error, objective, residuals, dropped views or hash"
    )
    if worst_key is None:
        print("parameters: no difference")
    else:
        print(f"largest relative parameter difference: {worst:.3g} ({worst_key})")
    if worst_fix_key is not None:
        print(f"largest absolute fix difference: {worst_fix:.3g} ({worst_fix_key})")
    return not mismatched and worst <= PARAM_RTOL and worst_fix <= FIX_ATOL


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", help="write the fits to this JSON file")
    parser.add_argument("--against", help="compare the fits with this JSON file")
    args = parser.parse_args()
    fits = {**run_fits(), **array_hashes(), **fix_records()}
    if args.output:
        Path(args.output).write_text(json.dumps(fits, indent=1) + "\n")
    if args.against:
        return 0 if compare(json.loads(Path(args.against).read_text()), fits) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
