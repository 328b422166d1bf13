"""Rewrite ``digests.json``: the result digest of every simulation every
workload can run, recorded from the current commit.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run it only when simulated results are meant to change.  Each input is
swept on a fresh root under ``.perfbench/record/``; a guest-output or
differential-check failure aborts the recording.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench" / "record"
WORK.mkdir(parents=True, exist_ok=True)
os.environ["SCD_REPRO_CACHE_DIR"] = str(WORK / "default-cache")
os.environ["TMPDIR"] = str(WORK)
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNRECORDED = "no recorded digest for this input"


def record(workload) -> dict:
    digests: dict = {}
    for inputs in workload.all_inputs():
        root = WORK / workload.name / "cache"
        shutil.rmtree(root.parent, ignore_errors=True)
        root.mkdir(parents=True)
        workload.prepare(root, inputs)
        sweep = workload.sweep(root, inputs)
        workload.collect(root, inputs, sweep)
        failures = [
            (job, reason) for job, reason in gate.check(sweep, {})
            if reason != UNRECORDED
        ]
        if failures:
            job, reason = failures[0]
            raise SystemExit(
                f"{workload.name} {inputs}: {job.vm}/{job.scheme}/"
                f"{job.workload}: {reason}"
            )
        digests.update(gate.group_digests(sweep.ops))
        print(f"{workload.name} {inputs}: {len(sweep.ops)} results",
              flush=True)
        shutil.rmtree(root.parent)
    return digests


def main(names) -> int:
    table = gate.load_digests()
    for name in names or WORKLOADS:
        fresh = record(WORKLOADS[name])
        table = {k: v for k, v in table.items()
                 if not k.startswith(f"{name}|")}
        table.update(fresh)
    gate.DIGESTS.write_text(
        json.dumps(table, sort_keys=True, indent=0) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
