"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]
os.environ.setdefault(
    "SCD_REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="perfbench-tests-")
)

import gate  # noqa: E402
import workloads  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402

#: The per-layer metrics the ledger must report (``trace.overhead_share``
#: is added by ``run.py``, which compares traced and untraced runs).
ISSUE_METRICS = {
    "lang.s", "lang.compiles",
    "vm.interpret_s", "vm.steps", "vm.records", "vm.records_per_key",
    "native.model_s", "native.live_s", "native.replay_s",
    "native.replay_events_per_s", "native.plan_s", "native.kernel_share",
    "native.kernels_compiled", "native.batch_share", "native.superblocks",
    "uarch.memo_hit_share", "uarch.memo_skip_share", "uarch.memo_loaded",
    "uarch.memo_import_s", "uarch.memo_export_s", "uarch.finalize_s",
    "cache.results_get_s", "cache.traces_get_s", "cache.memos_get_s",
    "cache.results_put_s", "cache.traces_put_s", "cache.memos_put_s",
    "cache.results_hit_share", "cache.quarantined",
    "parallel.jobs", "parallel.overhead_s", "parallel.busy_share",
    "parallel.retries",
    "corpus.build_s", "corpus.ok", "corpus.errors",
    "trace.unattributed_share", "trace.overhead_share",
}


class TinyFigure(workloads.FigureCold):
    """figure-cold's shape on one tiny program."""

    name = "tiny"
    programs = {"fibo": (5, 0)}


#: Runs TinyFigure traced on a fresh root in a fresh interpreter (the
#: tracer patches the program's modules for the life of the process).
TRACED_SWEEP = """
import json, sys
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
from ledger import Tracer, ledger
tracer = Tracer(Path({root!r}) / "spool")
tracer.install()
sys.path.insert(0, {tests!r})
from test_perfbench import TinyFigure
workload = TinyFigure()
sizes = workload.inputs(0)
span = tracer.open_sweep()
sweep = workload.sweep(Path({root!r}) / "cache", sizes)
tracer.close(span)
print(json.dumps({{"hits": sweep.metrics.cache_hits,
                  "layers": ledger(tracer, span, sweep.metrics)}}))
"""


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    sweep = TinyFigure().sweep(root, TinyFigure().inputs(0))
    return root, sweep


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    code = TRACED_SWEEP.format(
        bench=str(BENCH), src=str(REPO / "src"), root=str(root),
        tests=str(Path(__file__).parent),
    )
    env = dict(os.environ, SCD_REPRO_CACHE_DIR=str(root / "default"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_clean_sweep_passes_the_gate(tiny_sweep):
    _, sweep = tiny_sweep
    digests = gate.group_digests(sweep.ops)
    assert len(sweep.ops) == 8
    assert gate.check(sweep, digests) == []


def test_flipped_cycle_count_is_a_failed_operation(tiny_sweep):
    _, sweep = tiny_sweep
    digests = gate.group_digests(sweep.ops)
    group, job, result, error = sweep.ops[3]
    flipped = dataclasses.replace(result, cycles=result.cycles ^ 1)
    sweep = dataclasses.replace(sweep, ops=list(sweep.ops))
    sweep.ops[3] = (group, job, flipped, error)
    failures = gate.check(sweep, digests)
    assert [(f[0], f[1]) for f in failures] == [
        (job, "result differs from its recorded digest")
    ]


def test_wrong_output_missing_result_and_error_fail(tiny_sweep):
    _, sweep = tiny_sweep
    digests = gate.group_digests(sweep.ops)
    ops = list(sweep.ops)
    group, job, result, _ = ops[0]
    ops[0] = (group, job, dataclasses.replace(result, output=("0",)), None)
    ops[1] = (ops[1][0], ops[1][1], None, None)
    ops[2] = (ops[2][0], ops[2][1], None, "Traceback\nValueError: boom")
    failures = gate.check(dataclasses.replace(sweep, ops=ops), digests)
    assert [reason for _, reason in failures] == [
        "guest output differs from the reference",
        "missing result",
        "ValueError: boom",
    ]


def test_unrecorded_input_fails():
    sweep = workloads.Sweep(ops=[])
    group, job = "tiny|fibo|lua|5", workloads._job("fibo", "lua", "scd", 5)
    from repro.core.simulation import simulate

    result = simulate("fibo", vm="lua", scheme="scd", n=5)
    sweep.ops.append((group, job, result, None))
    assert [r for _, r in gate.check(sweep, {})] == [
        "no recorded digest for this input"
    ]


def test_fresh_root_has_no_result_cache_hits(tiny_sweep, traced):
    root, sweep = tiny_sweep
    assert sweep.metrics.cache_hits == 0
    assert sweep.metrics.sims == len(sweep.ops)
    assert traced["hits"] == 0
    assert traced["layers"]["cache.results_hit_share"] == 0
    assert traced["layers"]["cache.quarantined"] == 0
    # The same jobs on the now-populated root would all be hits.
    cache = ResultCache(root=root)
    assert all(cache.get(job.cache_key()) for _, job, _, _ in sweep.ops)


def test_every_per_layer_metric_is_reported(traced):
    layers = dict(traced["layers"])
    layers.pop("trace.wall_s")
    # Added by rep.py (worker peak RSS) and run.py (traced vs untraced).
    reported = set(layers) | {"parallel.worker_rss_mb", "trace.overhead_share"}
    assert ISSUE_METRICS <= reported
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert reported == {m["name"] for m in declared["per_layer"]}
    assert traced["layers"]["vm.records_per_key"] == 1.0
    assert 0 <= traced["layers"]["trace.unattributed_share"] <= 0.10


def test_every_seed_has_recorded_digests():
    digests = gate.load_digests()
    for seed in (0, 7, 23, 24, 99, 123456):
        for name in ("figure-cold", "btb-sweep", "steady-memo"):
            workload = workloads.WORKLOADS[name]
            for group, _ in workload.groups(workload.inputs(seed)):
                assert group in digests, (name, seed, group)
        corpus_seed = workloads.WORKLOADS["corpus-fanout"].inputs(seed)
        assert f"corpus-fanout|{corpus_seed}" in digests, seed


def test_seed_picks_inputs_from_the_band():
    for seed in range(20):
        sizes = workloads.pick_sizes("figure-cold", seed,
                                     workloads.FIGURE_PROGRAMS)
        assert sizes == workloads.pick_sizes("figure-cold", seed,
                                             workloads.FIGURE_PROGRAMS)
        for name, n in sizes.items():
            assert n in {b[name] for b in workloads.band(
                workloads.FIGURE_PROGRAMS)}
