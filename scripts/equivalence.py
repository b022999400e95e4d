#!/usr/bin/env python3
"""Fit equivalence: a fixed, seeded set of calibrations and array inverses
to compare two versions of the code on.

The set is ``compare_models`` on 20 five-view sessions shaped like the
repository benchmark's ``session-paper`` sessions (seeds 5000-5019), and
``calibrate`` on the 10-, 30- and 100-view scenes of ``bench_calibrate.py``
and on a ragged scene: views of 4, 9 and 64 points, plus a collinear view,
one whose pixels coincide and one of two points, which the linear stage
drops. For each fit the JSON holds the LM iteration count, the stop reason
and the parameters (the five intrinsics, the coefficients, then each view's
axis-angle and translation), or the error that a failed model reported.
For each scene it holds the linear stage's intrinsics and poses and the ids
of the views it dropped. It also holds the SHA-256 of ``undistort_array``'s
output on each seeded row set of ``bench_undistort.py`` (``SPECS`` and
``FOLD_SPECS``).

    PYTHONPATH=src python scripts/equivalence.py --output fits.json
    PYTHONPATH=src python scripts/equivalence.py --against fits.json

``--against FILE`` compares the set with FILE. It prints each fit whose
iteration count, stop reason or error differs, each linear stage whose
dropped views differ, each array whose hash differs, and the largest
relative parameter difference
``|a - b| / max(1, |a|, |b|)``. It exits with status 1 when a count,
reason, error, dropped view or hash differs, or a parameter differs by more than 1e-9
relative. BLAS runs one thread unless OPENBLAS_NUM_THREADS is set, so
that a rerun on one machine repeats every bit.
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_calibrate  # noqa: E402
import bench_undistort  # noqa: E402
from radialcal.calibration import (  # noqa: E402
    CalibrationView,
    CorrespondenceSet,
    _linear_stage,
    calibrate,
    compare_models,
)
from radialcal.distortion import DistortionSpec, Model, undistort_array  # noqa: E402
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


def fit_record(result) -> dict:
    A = result.intrinsics
    params = [A.alpha, A.beta, A.gamma, A.u0, A.v0, *result.distortion.coefficients]
    for E in result.extrinsics:
        params += [*E.axis_angle, *E.t]
    return {
        "n_iterations": result.n_iterations,
        "stop_reason": result.stop_reason,
        "params": [float(x) for x in params],
    }


def linear_record(corr) -> dict:
    stage = _linear_stage(corr)
    A = stage.intrinsics
    return {
        "dropped": list(stage.dropped),
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


def outcome(fit: dict) -> tuple:
    return (
        fit.get("error"),
        fit.get("n_iterations"),
        fit.get("stop_reason"),
        fit.get("sha256"),
        fit.get("dropped"),
        len(fit.get("params", [])),
    )


def compare(base: dict, fits: dict) -> bool:
    """Print how fits differ from base; True when they are equivalent."""
    mismatched = sorted(set(base) ^ set(fits))
    for key in mismatched:
        print(f"{key}: only in {'the reference' if key in base else 'this run'}")
    worst, worst_key = 0.0, None
    for key in sorted(set(base) & set(fits)):
        a, b = base[key], fits[key]
        if outcome(a) != outcome(b):
            mismatched.append(key)
            print(f"{key}: reference {outcome(a)[:5]}, this run {outcome(b)[:5]}")
            continue
        if "params" in a:
            pa, pb = np.array(a["params"]), np.array(b["params"])
            rel = float(np.max(np.abs(pa - pb) / np.maximum(1.0, np.maximum(np.abs(pa), np.abs(pb)))))
            if rel > worst:
                worst, worst_key = rel, key
    print(
        f"{len(fits)} records; {len(mismatched)} with another iteration count, stop reason, "
        "error, dropped views or hash"
    )
    if worst_key is None:
        print("parameters: no difference")
    else:
        print(f"largest relative parameter difference: {worst:.3g} ({worst_key})")
    return not mismatched and worst <= PARAM_RTOL


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", help="write the fits to this JSON file")
    parser.add_argument("--against", help="compare the fits with this JSON file")
    args = parser.parse_args()
    fits = {**run_fits(), **array_hashes()}
    if args.output:
        Path(args.output).write_text(json.dumps(fits, indent=1) + "\n")
    if args.against:
        return 0 if compare(json.loads(Path(args.against).read_text()), fits) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
