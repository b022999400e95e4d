"""Command-line front end.

Subcommands: ``synth`` (generate a seeded synthetic correspondence set),
``calibrate`` (full pipeline to a calibration JSON), ``compare`` (three-model
comparison table), ``undistort`` (batch point warping either direction), and
``localize`` (single-view ground-line pose fix).

Exit codes: 0 success, 2 parse error, 3 singular or degenerate configuration,
4 refinement did not converge (output still written), 5 some points had no
admissible undistortion (rows emitted as NaN), 6 geometric failure in
localization.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    BehindCamera,
    DegenerateConfiguration,
    ModelReport,
    OptimizerOptions,
    SingularConfiguration,
    calibrate,
    compare_models,
)
from .cubic import NoRealSolution
from .distortion import Model, NotConverged, distort_array, undistort_array
from .fileio import (
    ParseError,
    fmt,
    read_calibration,
    read_correspondences,
    read_points,
    read_pose,
    read_synth_spec,
    write_calibration,
    write_correspondences,
    write_points,
    write_scene_truth,
)
from .geometry import (
    DepthNotPositive,
    PixelPoint,
    WorldPoint,
    to_normalized_array,
    to_pixel_array,
)
from .localize import (
    DegenerateLine,
    EndpointsCoincide,
    LineMap,
    PointBehindCamera,
    RayParallelToGround,
    localize,
)
from .synth import generate_scene

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_NOT_CONVERGED = 4
EXIT_NO_SOLUTION = 5
EXIT_GEOMETRY = 6

_GEOMETRY_ERRORS = (
    RayParallelToGround,
    PointBehindCamera,
    DegenerateLine,
    EndpointsCoincide,
    DepthNotPositive,
)
_CONFIG_ERRORS = (DegenerateConfiguration, SingularConfiguration, BehindCamera)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OptimizerOptions()
    parser.add_argument("--tol-x", type=float, default=defaults.tol_x)
    parser.add_argument("--tol-fun", type=float, default=defaults.tol_fun)
    parser.add_argument("--max-iter", type=int, default=defaults.max_iter)


def _options_from_args(args: argparse.Namespace) -> OptimizerOptions:
    """The optimizer flags; settings the options reject are a ParseError."""
    try:
        return OptimizerOptions(tol_x=args.tol_x, tol_fun=args.tol_fun, max_iter=args.max_iter)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        opts = _options_from_args(args)
        corr = read_correspondences(args.input)
    except (OSError, ParseError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    model = Model(f"model{args.model}")
    try:
        result = calibrate(corr, model, opts)
    except (*_CONFIG_ERRORS, DepthNotPositive) as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    write_calibration(args.output, result)
    print(f"J_init={fmt(result.j_init)}")
    print(f"J_final={fmt(result.j_final)}")
    print(f"iterations={result.n_iterations}")
    if not result.converged:
        print(
            f"warning: refinement stopped without converging ({result.stop_reason}); "
            "output written anyway",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


_TABLE_ROWS = ("J", "alpha", "gamma", "u0", "beta", "v0", "k1", "k2")


def _report_cells(entry: ModelReport) -> dict | None:
    """One model's cells of the comparison table, by row; None if its fit failed."""
    res = entry.result
    if res is None:
        return None
    A = res.intrinsics
    return {
        "J": res.j_final,
        "alpha": A.alpha,
        "gamma": A.gamma,
        "u0": A.u0,
        "beta": A.beta,
        "v0": A.v0,
        "k1": res.distortion.k1,
        "k2": res.distortion.k2,
    }


def _report_as_dict(reports: tuple[ModelReport, ...]) -> dict:
    out = {}
    for entry in reports:
        cells = _report_cells(entry)
        if cells is None:
            out[entry.model.value] = {"error": entry.error}
            continue
        cells["init_k"] = list(entry.init_coefficients)
        cells["converged"] = entry.result.converged
        out[entry.model.value] = cells
    return out


def _print_report_table(reports: tuple[ModelReport, ...]) -> None:
    columns = [_report_cells(e) for e in reports]
    header = f"{'':>8}" + "".join(f"{e.model.value:>16}" for e in reports)
    print(header)
    for row in _TABLE_ROWS:
        cells = [f"{c[row]:>16.6g}" if c is not None else f"{'error':>16}" for c in columns]
        print(f"{row:>8}" + "".join(cells))
    for entry in reports:
        if entry.error is not None:
            print(f"{entry.model.value}: {entry.error}", file=sys.stderr)


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        opts = _options_from_args(args)
        corr = read_correspondences(args.input)
    except (OSError, ParseError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        reports = compare_models(corr, opts)
    except _CONFIG_ERRORS as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    if args.json:
        print(json.dumps(_report_as_dict(reports), indent=2))
    else:
        _print_report_table(reports)
    if all(e.result is None for e in reports):
        return EXIT_DEGENERATE
    if any(e.result is not None and not e.result.converged for e in reports):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_undistort(args: argparse.Namespace) -> int:
    try:
        calib = read_calibration(args.calib)
        points = read_points(args.points)
    except (OSError, ParseError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    A, spec = calib.intrinsics, calib.distortion
    # A row with a non-finite coordinate, such as a nan,nan row of an earlier
    # run, is a failed row.
    points[~np.isfinite(points).all(axis=1)] = math.nan
    xy = to_normalized_array(points, A)
    if args.direction == "forward":
        warped = distort_array(spec, xy)
    else:
        warped = undistort_array(spec, xy)
    out = to_pixel_array(warped, A)
    failed = ~np.isfinite(out).all(axis=1)
    out[failed] = math.nan
    write_points(args.output, out)
    failures = int(failed.sum())
    if failures:
        print(f"{failures} of {len(points)} points had no admissible solution")
        return EXIT_NO_SOLUTION
    return EXIT_OK


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != expected:
        raise ParseError(f"{what} needs {expected} comma-separated numbers, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"{what} contains a non-numeric value: {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"{what} contains a non-finite value: {text!r}")
    return values


def _cmd_localize(args: argparse.Namespace) -> int:
    try:
        calib = read_calibration(args.calib)
        pose = read_pose(args.pose)
        ax, ay, bx, by = _parse_floats(args.line_map, 4, "--line-map")
        ua, va, ub, vb = _parse_floats(args.observed, 4, "--observed")
    except (OSError, ParseError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        line = LineMap(WorldPoint(ax, ay, 0.0), WorldPoint(bx, by, 0.0))
        fix = localize(
            line,
            PixelPoint(ua, va),
            PixelPoint(ub, vb),
            calib.intrinsics,
            calib.distortion,
            pose,
        )
    except (*_GEOMETRY_ERRORS, NoRealSolution, NotConverged) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_GEOMETRY)
    payload = {
        "delta_theta_rad": fix.delta_theta,
        "delta_theta_deg": math.degrees(fix.delta_theta),
        "t1": [float(v) for v in fix.t1],
        "recovered_a": [fix.recovered_a.x, fix.recovered_a.y, fix.recovered_a.z],
        "recovered_b": [fix.recovered_b.x, fix.recovered_b.y, fix.recovered_b.z],
        "length_discrepancy": fix.length_discrepancy,
        "translation_consistency": fix.translation_consistency,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                print(f"{key}=[{', '.join(fmt(v) for v in value)}]")
            else:
                print(f"{key}={fmt(value)}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = read_synth_spec(args.spec)
    except (OSError, ParseError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        corr, truth = generate_scene(spec)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    write_correspondences(args.output, corr)
    write_scene_truth(Path(args.output).with_suffix(".truth.json"), truth)
    print(f"wrote {corr.n_points} correspondences in {corr.n_views} views")
    return EXIT_OK


# Built once per process: parse_args does not change the parser, and
# building the tree costs about a millisecond per in-process main call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialcal",
        description="Planar camera calibration and radial undistortion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run the full calibration pipeline")
    p.add_argument("--input", required=True, help="correspondence CSV")
    p.add_argument("--model", required=True, choices=("1", "2", "3"))
    p.add_argument("--output", required=True, help="calibration JSON to write")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compare", help="refine all three distortion models")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("undistort", help="warp a point list through a calibration")
    p.add_argument("--calib", required=True)
    p.add_argument("--points", required=True, help="CSV with u,v columns")
    p.add_argument("--output", required=True)
    p.add_argument("--direction", choices=("forward", "inverse"), default="inverse")
    p.set_defaults(func=_cmd_undistort)

    p = sub.add_parser("localize", help="ground-line pose fix from one view")
    p.add_argument("--calib", required=True)
    p.add_argument("--pose", required=True, help="assumed pose JSON (axis_angle, t)")
    p.add_argument("--line-map", required=True, metavar="Ax,Ay,Bx,By")
    p.add_argument("--observed", required=True, metavar="uA,vA,uB,vB")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("synth", help="generate a synthetic correspondence set")
    p.add_argument("--spec", required=True, help="synth spec JSON")
    p.add_argument("--output", required=True, help="correspondence CSV to write")
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
