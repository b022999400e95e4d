#!/usr/bin/env python3
"""Fit equivalence: a fixed, seeded set of calibrations and array inverses
to compare two versions of the code on.

The set is ``compare_models`` on 20 five-view sessions shaped like the
repository benchmark's ``session-paper`` sessions (seeds 5000-5019), and
``calibrate`` on the 10-, 30- and 100-view scenes of ``bench_calibrate.py``.
For each fit the JSON holds the LM iteration count, the stop reason and the
parameters (the five intrinsics, the coefficients, then each view's
axis-angle and translation), or the error that a failed model reported.
It also holds the SHA-256 of ``undistort_array``'s output on each seeded
row set of ``bench_undistort.py`` (``SPECS`` and ``FOLD_SPECS``).

    PYTHONPATH=src python scripts/equivalence.py --output fits.json
    PYTHONPATH=src python scripts/equivalence.py --against fits.json

``--against FILE`` compares the set with FILE. It prints each fit whose
iteration count, stop reason or error differs, each array whose hash
differs, and the largest relative parameter difference
``|a - b| / max(1, |a|, |b|)``. It exits with status 1 when a count,
reason, error or hash differs, or a parameter differs by more than 1e-9
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
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_calibrate  # noqa: E402
import bench_undistort  # noqa: E402
from radialcal.calibration import calibrate, compare_models  # noqa: E402
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


def run_fits() -> dict:
    fits = {}
    for seed in PAPER_SEEDS:
        corr, _ = generate_scene(SynthSpec(seed=seed, **PAPER_SESSION))
        for entry in compare_models(corr).entries:
            key = f"compare/seed{seed}/{entry.model.value}"
            fits[key] = {"error": entry.error} if entry.result is None else fit_record(entry.result)
    for n_views in bench_calibrate.VIEWS:
        result = calibrate(bench_calibrate.scene(n_views), bench_calibrate.MODEL)
        fits[f"calibrate/{n_views}v/{bench_calibrate.MODEL.value}"] = fit_record(result)
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
            print(f"{key}: reference {outcome(a)[:4]}, this run {outcome(b)[:4]}")
            continue
        if "params" in a:
            pa, pb = np.array(a["params"]), np.array(b["params"])
            rel = float(np.max(np.abs(pa - pb) / np.maximum(1.0, np.maximum(np.abs(pa), np.abs(pb)))))
            if rel > worst:
                worst, worst_key = rel, key
    print(f"{len(fits)} records; {len(mismatched)} with another iteration count, stop reason, error or hash")
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
