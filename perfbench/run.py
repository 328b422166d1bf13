"""Sweep benchmark: one command, four workloads, tracing off or on.

    python3 perfbench/run.py --workload figure-cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each repetition is a fresh interpreter
(``rep.py``) on a fresh private cache root under ``.perfbench/``, so the
process-wide ``lru_cache``s and the stores start cold every time.
Repetitions continue until ``--seconds`` is spent (at least
:data:`MIN_REPS`); the figures are medians over them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer ledger (see
``ledger.py``).  Both print the host drift readings ``host.calib_s`` (a
fixed pure-Python loop, before and after the run) and ``host.cpu_share``
(CPU time of this process and its children over wall time) above the
result.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench"
WORKLOADS = ("figure-cold", "btb-sweep", "steady-memo", "corpus-fanout")

#: Fewest repetitions a run makes: untraced, and (untraced, traced)
#: pairs with ``--trace 1``.  corpus-fanout's two pool workers need both
#: of a 2-CPU host's cores, so co-tenant load moves it most; it takes
#: more repetitions.
MIN_REPS = {"corpus-fanout": 4}
DEFAULT_MIN_REPS = 3
MIN_PAIRS = 2

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

#: Declared metrics: ``{"end_to_end": {name: unit}, "per_layer": ...}``.
DECLARED = {
    kind: {m["name"]: m["unit"] for m in metrics}
    for kind, metrics in json.loads(
        (REPO / "BENCHMARK.json").read_text()
    ).items()
    if kind in ("end_to_end", "per_layer")
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop (no repo code)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


def child_env(rep_dir: Path) -> dict:
    """The repetition's environment: no inherited ``SCD_*`` settings, the
    default cache root and temp dir inside the repetition directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCD_")}
    env["SCD_REPRO_CACHE_DIR"] = str(rep_dir / "default-cache")
    env["TMPDIR"] = str(rep_dir / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload: str, seed: int, rep_dir: Path, traced: bool,
            deadline: float) -> dict:
    """One repetition; raises RuntimeError when it fails or overruns."""
    (rep_dir / "tmp").mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir)]
    if traced:
        cmd.append("--trace")
    spawned = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(rep_dir),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} repetition overran the run limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} repetition exited with code {proc.returncode}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["sweep_start"] - spawned
    report["wall_s"] = monotonic() - spawned
    return report


def end_to_end(reps: list) -> dict:
    return {
        "events_per_s": statistics.median(
            r["events"] / r["sweep_s"] for r in reps
        ),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        # The smallest peak: now and then a repetition of the same sweep
        # peaks ~6 MB higher (seen on steady-memo), which a median of
        # three repetitions does not always outvote.
        "peak_rss_mb": min(r["peak_rss_mb"] for r in reps),
        "store_mb": statistics.median(r["store_bytes"] for r in reps) / 1e6,
    }


def per_layer(plain: list, traced: list) -> dict:
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = layers.pop("trace.wall_s")
    plain_wall = statistics.median(r["sweep_s"] for r in plain)
    layers["trace.overhead_share"] = traced_wall / plain_wall - 1.0
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple:
    """Run repetitions until *seconds* are spent; returns the untraced
    and traced repetition reports."""
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    plain, traced = [], []
    longest = 0.0
    while True:
        with_trace = trace and len(traced) < len(plain)
        rep_dir = work / f"rep-{len(plain) + len(traced)}"
        report = run_rep(workload, seed, rep_dir, with_trace, deadline)
        spans = rep_dir / "spans.json"
        if spans.exists():
            spans.replace(WORK / f"spans-{workload}-seed{seed}.json")
        shutil.rmtree(rep_dir)
        (traced if with_trace else plain).append(report)
        longest = max(longest, report["wall_s"])
        enough = (
            len(traced) >= MIN_PAIRS and len(plain) >= MIN_PAIRS
            if trace
            else len(plain) >= MIN_REPS.get(workload, DEFAULT_MIN_REPS)
        )
        elapsed = monotonic() - started
        if enough and elapsed + longest > min(seconds, RUN_LIMIT_S):
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program sources at {REPO / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    wall_start = monotonic()
    cpu_start = os.times()
    calib_before = calibrate()
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_after = calibrate()
    cpu = os.times()
    cpu_s = sum(cpu[:4]) - sum(cpu_start[:4])
    cpu_share = cpu_s / (monotonic() - wall_start)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    clean = all(r["cache_hits"] == 0 and r["quarantined"] == 0 for r in reps)
    for r in reps:
        for line in r["failures"]:
            print(f"failed: {line}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in DECLARED[kind].items()
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(plain)} untraced + {len(traced)} traced")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'sweep_s per repetition':28s} "
          + " ".join(f"{r['sweep_s']:.3f}" for r in reps))
    print(f"  {'host.calib_s':28s} before {calib_before:.6f}  "
          f"after {calib_after:.6f}")
    print(f"  {'host.cpu_share':28s} {cpu_share:.4f}")
    print(json.dumps({
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
