"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/steadiness.py --workload enum-reduce --seeds 1-10

For every end-to-end metric the script prints the median of the runs, the
distance between the first and third quartiles as a share of the median (the
spread), the bound from ``BENCHMARK.json``, the verdict "steady" when the
spread stays under a third of the bound, and the value of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        parser.error("a spread needs at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        command = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if not done.stdout.strip():
            print(f"seed {seed}: exit {done.returncode}, no result\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: exit {done.returncode} correct {result['correct']} "
            f"attempted {result['attempted']} failed {result['failed']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':34} {'median':>12} {'unit':>9} {'spread':>8} {'bound':>6}  verdict")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        verdict = ""  # set-up time is held to its median only
        if name != "setup_s":
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:34} {median:12.6g} {units[name]:>9} {spread:8.4f} {bound:6.3f}  {verdict}")
        print("    " + " ".join(f"{value:.5g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
