"""One repetition of a workload in a fresh interpreter.

Run by ``run.py`` with ``SCD_REPRO_CACHE_DIR`` and ``TMPDIR`` pointing into
the repetition's own directory.  Sets up, runs one timed sweep, checks
every simulation, and prints one JSON line.  Timestamps are
``CLOCK_MONOTONIC`` so the parent can time set-up from process start.

    python3 perfbench/rep.py --workload NAME --seed N --dir DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or of the largest child it waited for."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    root = args.dir / "cache"
    root.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from ledger import Tracer, ledger, worker_payloads

        tracer = Tracer(args.dir / "spool")
    import gate
    from workloads import WORKLOADS
    from repro.harness.parallel import METRICS

    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workload.prepare(root, inputs)

    start = monotonic()
    span = tracer.open_sweep() if tracer is not None else None
    sweep = workload.sweep(root, inputs)
    if span is not None:
        tracer.close(span)
    end = monotonic()

    report = {
        "sweep_start": start,
        "sweep_s": end - start,
        "events": sweep.metrics.events,
        # For corpus-fanout, the largest pool worker counts too.
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "store_bytes": tree_bytes(root),
        "cache_hits": sweep.metrics.cache_hits,
        "quarantined": METRICS.quarantined,
    }
    workload.collect(root, inputs, sweep)
    failures = gate.check(sweep, gate.load_digests())
    report["attempted"] = len(sweep.ops)
    report["failed"] = len(failures)
    report["failures"] = [
        f"{job.vm}/{job.scheme}/{job.workload}: {reason}"
        for job, reason in failures[:5]
    ]
    if tracer is not None:
        report["layers"] = ledger(tracer, span, sweep.metrics, sweep.corpus)
        report["layers"]["parallel.worker_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN
        )
        (args.dir / "spans.json").write_text(json.dumps({
            "main": tracer.spans,
            "workers": worker_payloads(tracer.spool),
        }))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
