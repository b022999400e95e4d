#!/usr/bin/env python3
"""End-to-end benchmark of the command line, in process.

Times ``radialcal.cli.main`` on the commands a user runs: ``synth``,
``calibrate --model 3`` and ``compare`` on a seeded 20-view and a 100-view
session (``bench_calibrate.py``'s scene family: seed 3, a 12x12 target,
model3 warp, 0.3 px noise; its 100-view session is that script's 100-view
scene), and ``undistort`` in both directions for each model on the
76,800-point grid of ``equivalence.py``. The sessions are written by the
timed ``synth`` commands themselves.

Each command's wall time is split into stages: parse (the argument parser),
read (the file readers the command calls), write (the file writers it
calls) and compute (the rest). The readers and writers are timed by
wrapping the names that ``radialcal.cli`` calls them by. Each reader's
Python call count on each input (cProfile's, after a warm-up call) is also
recorded: a deterministic witness of the work a read does, where the
timings move with the host's speed.

The commands are interleaved: after one warm-up pass, each of the repeats
runs every command once, so a drift in the host's speed reaches all rows
alike. Each time is reported as its median, minimum and interquartile range
over the repeats. BLAS runs one thread unless OPENBLAS_NUM_THREADS is set.
The JSON written also records the machine.

    PYTHONPATH=src python scripts/bench_cli.py [--output BENCH_cli.json] [--repeats N]
"""

import os

# Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_calibrate  # noqa: E402
import bench_undistort  # noqa: E402
import equivalence  # noqa: E402
from bench_undistort import machine_info, summary  # noqa: E402
from radialcal import cli, fileio  # noqa: E402

SESSION_VIEWS = (20, 100)
REPEATS = 11
READERS = ("read_correspondences", "read_calibration", "read_points", "read_synth_spec")
WRITERS = ("write_correspondences", "write_scene_truth", "write_calibration", "write_points")
STAGES = ("parse", "read", "compute", "write")


def commands(work: Path) -> dict:
    """Each command's argv, by name; the synth commands come first, as they
    write the sessions that calibrate and compare read."""
    argvs = {}
    for n in SESSION_VIEWS:
        spec, corr = work / f"spec_{n}v.json", work / f"session_{n}v.csv"
        spec.write_text(json.dumps(bench_calibrate.synth_spec(n)))
        argvs[f"synth/{n}v"] = ["synth", "--spec", str(spec), "--output", str(corr)]
    for n in SESSION_VIEWS:
        corr, calib = str(work / f"session_{n}v.csv"), str(work / f"calib_{n}v.json")
        argvs[f"calibrate/{n}v"] = ["calibrate", "--input", corr, "--model", "3", "--output", calib]
        argvs[f"compare/{n}v"] = ["compare", "--input", corr]
    points = work / "grid.csv"
    fileio.write_points(points, equivalence.grid_points())
    for model in bench_undistort.LOCALIZE_MODELS:
        calib = work / f"grid_calib_{model}.json"
        calib.write_text(json.dumps(equivalence.grid_calibration(model)))
        for direction in ("inverse", "forward"):
            out = work / f"grid_{direction}_{model}.csv"
            argvs[f"undistort/{direction}/{model}"] = [
                "undistort", "--calib", str(calib), "--points", str(points),
                "--direction", direction, "--output", str(out),
            ]
    return argvs


class StageClock:
    """Seconds spent in the readers and writers that radialcal.cli calls,
    summed per stage while installed."""

    def __init__(self):
        self.seconds = dict.fromkeys(("read", "write"), 0.0)
        self._saved = {}

    def _timed(self, stage: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - start

        return wrapper

    def __enter__(self):
        for stage, names in (("read", READERS), ("write", WRITERS)):
            for name in names:
                self._saved[name] = getattr(cli, name)
                setattr(cli, name, self._timed(stage, self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(cli, name, fn)


def run_command(argv: list[str]) -> dict:
    """Seconds of one in-process command, in total and by stage. A command
    that fails on its input (exit code 2 or 3) stops the benchmark."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        start = time.perf_counter()
        cli.build_parser().parse_args(argv)
        parse = time.perf_counter() - start
        with StageClock() as clock:
            start = time.perf_counter()
            code = cli.main(argv)
            total = time.perf_counter() - start
    if code in (cli.EXIT_PARSE, cli.EXIT_DEGENERATE):
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")
    read, write = clock.seconds["read"], clock.seconds["write"]
    return {"total": total, "parse": parse, "read": read, "compute": total - parse - read - write, "write": write}


def call_count(fn, *args) -> int:
    """Python-level calls (cProfile's count) of fn(*args), after a warm-up call."""
    fn(*args)
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return pstats.Stats(profile).total_calls


def read_calls(work: Path) -> dict:
    calls = {}
    for n in SESSION_VIEWS:
        calls[f"read_synth_spec/{n}v"] = call_count(fileio.read_synth_spec, work / f"spec_{n}v.json")
        calls[f"read_correspondences/{n}v"] = call_count(fileio.read_correspondences, work / f"session_{n}v.csv")
        calls[f"read_calibration/{n}v"] = call_count(fileio.read_calibration, work / f"calib_{n}v.json")
    calls["read_points/grid"] = call_count(fileio.read_points, work / "grid.csv")
    return calls


def bench(work: Path, repeats: int) -> dict:
    argvs = commands(work)
    for argv in argvs.values():
        run_command(argv)
    runs = {name: [] for name in argvs}
    for _ in range(repeats):
        for name, argv in argvs.items():
            runs[name].append(run_command(argv))
    report = {
        name: {f"{key}_ms": summary(1e3 * np.array([run[key] for run in times])) for key in ("total", *STAGES)}
        for name, times in runs.items()
    }
    sizes = {
        **{f"session_{n}v.csv": (work / f"session_{n}v.csv").stat().st_size for n in SESSION_VIEWS},
        "grid.csv": (work / "grid.csv").stat().st_size,
    }
    return {"commands": report, "read_calls": read_calls(work), "input_bytes": sizes}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="BENCH_cli.json")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        results = bench(Path(tmp), args.repeats)
    report = {
        "seed": bench_calibrate.SEED,
        "session_views": list(SESSION_VIEWS),
        "grid_points": equivalence.GRID[0] * equivalence.GRID[1],
        "repeats": args.repeats,
        "statistic": "median, min and interquartile range over the repeats",
        **results,
        "machine": machine_info(),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
