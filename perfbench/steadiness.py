"""Spread of every end-to-end metric across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--seconds 20] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per (workload, seed) and prints, per
metric, the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread must stay below the metric's bound in
``BENCHMARK.json``; aim for a third of it.  Each run's ``host.calib_s``
readings are kept, so two sets taken at different times can be told
apart by host speed.  Raw results go to ``.perfbench/steadiness-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, REPO, WORK, WORKLOADS


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=REPO, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    calib = next(line.split() for line in out if "host.calib_s" in line)
    result["calib"] = (float(calib[2]), float(calib[4]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    }
    record = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds)
                for seed in seed_range(args.seeds)]
        record[workload] = runs
        calib = [c for run in runs for c in run["calib"]]
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(run['correct'] for run in runs)}, host.calib_s median "
              f"{statistics.median(calib):.6f} (min {min(calib):.6f}, "
              f"max {max(calib):.6f})")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"  {name:14s} median {median:12.6g}  spread "
                  f"{(q3 - q1) / median:.4f}  bound {bound}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
