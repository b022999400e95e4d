#!/usr/bin/env python3
"""Alternating A/B runs of one benchmark command on a base revision and on
this checkout.

    python scripts/ab.py BASE_REV [--pairs K] -- CMD...

Checks out BASE_REV with ``git worktree`` under a temporary directory, then
runs CMD K times in each tree, from the tree's root: the base (BASE_REV) and
the change (this working tree, uncommitted edits included). Within each pair
the side that runs first alternates, the base first in the first pair. CMD
must print, as the last line of its standard output, a JSON object whose
``metrics`` maps each name to ``{"value", "unit"}``, as
``perfbench/run.py`` does; its ``failed`` and ``attempted`` counts are
summed when present.

For each metric the script prints each side's median and interquartile
range over the K runs, the ratio of the medians, and in how many pairs the
change did better. Which way is better comes from the ``better`` field of
this checkout's ``BENCHMARK.json``; a metric it does not list gets no win
count. Ties count for neither side. The worktree is removed at the end,
also when a run fails. It uses plain git and no network.

    python scripts/ab.py HEAD --pairs 10 -- \\
        python3 perfbench/run.py --workload session-100v --seed 7 --seconds 40
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "change")


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_once(cmd: list[str], cwd: Path) -> dict:
    """Run cmd in cwd and return the JSON object on its last output line."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {cwd} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not isinstance(result.get("metrics"), dict):
        raise SystemExit(f"error: the last line of {' '.join(cmd)} holds no metrics")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better_directions(root: Path) -> dict[str, str]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    declared = json.loads(path.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in declared.get(key, [])}


def report(runs: dict[str, list[dict]], better: dict[str, str]) -> None:
    pairs = len(runs["base"])
    names = [n for n in runs["base"][0]["metrics"] if all(n in r["metrics"] for s in SIDES for r in runs[s])]
    print(f"{'metric':38s} {'unit':6s} {'base median (IQR)':>24s} {'change median (IQR)':>24s} {'ratio':>7s} {'wins':>6s}")
    for name in names:
        values = {s: [float(r["metrics"][name]["value"]) for r in runs[s]] for s in SIDES}
        (bq1, base_med, bq3), (cq1, change_med, cq3) = (quartiles(values[s]) for s in SIDES)
        cells = (f"{base_med:.4g} ({bq3 - bq1:.3g})", f"{change_med:.4g} ({cq3 - cq1:.3g})")
        ratio = f"{change_med / base_med:.3f}" if base_med else "-"
        wins = "-"
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            won = sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"]))
            wins = f"{won}/{pairs}"
        unit = runs["base"][0]["metrics"][name].get("unit", "")
        print(f"{name:38s} {unit:6s} {cells[0]:>24s} {cells[1]:>24s} {ratio:>7s} {wins:>6s}")
    for s in SIDES:
        if all("failed" in r and "attempted" in r for r in runs[s]):
            failed = sum(r["failed"] for r in runs[s])
            attempted = sum(r["attempted"] for r in runs[s])
            print(f"{s}: {failed} of {attempted} operations failed")


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv:
        raise SystemExit("usage: ab.py BASE_REV [--pairs K] -- CMD...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv[:split])
    cmd = argv[split + 1 :]
    if not cmd or args.pairs < 1:
        raise SystemExit("error: give a command after -- and at least one pair")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base), args.base_rev, cwd=root)
        try:
            trees = {"base": base, "change": root}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(cmd, trees[side]))
        finally:
            git("worktree", "remove", "--force", str(base), cwd=root)
    print(f"base {args.base_rev}, change: the working tree; {args.pairs} pairs of: {' '.join(cmd)}")
    report(runs, better_directions(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
