#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that each
run is correct and reports exactly the metrics BENCHMARK.json names, with
their units. Then feeds each output check one corrupted output and checks
that the operation is counted as failed, so the checks are not vacuous.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

wl = run.import_library()
import checks  # noqa: E402  (importable once run.import_library set sys.path)

SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def expect_metrics(metrics: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    expect(got == want, f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, (value, _) in metrics.items():
        expect(math.isfinite(value), f"{what}: {name} = {value}")


def corrupted_runs_fail(work) -> None:
    tally = wl.Tally()

    points = wl.PointsWorkload(wl.TINY)
    points.setup(wl.fresh_dir(work / "points"), SEED)
    for i in range(points.cycle):
        points.run_unit(i, tally, None)
    expect(tally.failed == 0, f"clean points cycle failed: {tally.messages}")
    for direction in wl.DIRECTIONS:
        out = points.work / f"out_{direction}_model3.csv"
        rows = out.read_text().splitlines()
        u, v = rows[5].split(",")
        rows[5] = f"{float(u) + 1e-3!r},{v}"
        out.write_text("\n".join(rows) + "\n")
        tally.record(points.check_pass(direction, "model3", points.tiles[0], out))

    args, delta, position = points.cases[0]
    fix = wl.localize_mod.localize(*args)
    tally.record(checks.check_fix(fix, delta + 1e-8, position))

    session = wl.session_paper(wl.TINY)
    session.setup(wl.fresh_dir(work / "session"), SEED)
    _, code, stdout = session.run_command(session.sessions[0], session.work / "out.json")
    report = json.loads(stdout)
    report["model1"]["alpha"] *= 1.1
    tally.record(session.check(code, json.dumps(report), session.work / "out.json")[0])

    expect(tally.failed == 4, f"expected 4 caught corruptions, got {tally.failed}: {tally.messages}")
    expect(tally.failed / tally.attempted > 0, "failed_frac stayed 0")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.ROOT / ".perfbench_work" / "selftest"
    try:
        for name in wl.WORKLOADS:
            workload = wl.WORKLOADS[name](wl.TINY)
            tally, metrics, _ = run.run_untraced(wl, workload, SEED, 0.3, work / name, 0.0)
            expect(tally.failed == 0 and tally.attempted > 0, f"{name}: {tally.messages}")
            expect_metrics(metrics, declared["end_to_end"], f"{name} untraced")
            expect(all(v > 0 for v, _ in metrics.values()), f"{name}: an end-to-end metric is 0")

            workload = wl.WORKLOADS[name](wl.TINY)
            tally, metrics, _ = run.run_traced(wl, workload, SEED, 0.3, work / name, work / "spans.npz")
            expect(tally.failed == 0, f"{name} traced: {tally.messages}")
            expect_metrics(metrics, declared["per_layer"], f"{name} traced")
            print(f"ok {name}")
        corrupted_runs_fail(work)
        print("ok corrupted outputs are counted as failures")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
