"""Outside-in layer ledger for the traced run.

The program is not edited: :meth:`Tracer.install` wraps the public calls
into each layer (named by module) with spans that stay in memory.  A
layer's self time is its spans' time minus their child spans'.  On the
live path the downstream callable handed to ``TraceRecorder`` is timed,
which splits guest interpretation (``vm``) from event expansion plus the
Machine (``native``) without editing ``simulate``.

Pool workers inherit the wrappers when the pool forks; each writes its
spans to ``<spool>/spans-<pid>.json`` when it exits, and
:func:`ledger` folds them in.  With ``k`` workers the sweep has ``k``
lanes of wall time; lane time no span of another layer covers (idle
workers, dispatch, the parent's serial work) is pool overhead and counts
as ``parallel``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

clock = time.perf_counter

LAYERS = ("lang", "vm", "native", "uarch", "cache", "parallel", "corpus")

#: Spans whose self time is native model set-up (assembly, runner and
#: kernel binding, memo codec).
MODEL_SPANS = (
    "get_model", "runner_init", "runner_start", "runner_finish",
    "structure_digest", "memo_codec",
)


def _compile_misses() -> int:
    from repro.native import batch, kernel

    return sum(
        fn.cache_info().misses
        for fn in (kernel._compiled_kernel, kernel._compiled_fused,
                   batch._compiled_superblock)
    )


class Tracer:
    """In-memory span recorder.  A span is
    ``[name, layer, start, end, parent index, note]``."""

    def __init__(self, spool: Path):
        self.pid = os.getpid()
        self.spool = Path(spool)
        self.spans: list = []
        self.stack: list = []
        self.live = [0.0]
        self.trace_key = None
        self.compile_base = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str | None) -> list:
        if os.getpid() != self.pid:
            self._adopt_worker()
        stack = self.stack
        span = [name, layer, clock(), None, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = clock()
        self.stack.pop()

    def open_sweep(self) -> list:
        """Open the timed sweep's root span.  Kernels compiled before it
        (while set-up recorded traces) are not counted as the sweep's."""
        self.compile_base = _compile_misses()
        return self.open("sweep", None)

    def _adopt_worker(self) -> None:
        """First span in a forked pool worker: drop the parent's spans and
        spool this worker's at exit."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.compile_base = _compile_misses()
        mp_util.Finalize(None, self._spool_out, exitpriority=10)

    def _spool_out(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "compiles": _compile_misses() - self.compile_base,
        }
        (self.spool / f"spans-{self.pid}.json").write_text(json.dumps(payload))

    def wrap(self, owner, attr: str, name: str, layer: str | None,
             note=None) -> None:
        """Replace ``owner.attr`` by a spanned call; *note* maps
        ``(result, *args)`` to a value kept on the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span[5] = note(result, *args)
            return result

        setattr(owner, attr, traced)

    def _wrap_guest_run(self, vm_class) -> None:
        original = vm_class.run
        tracer = self

        @functools.wraps(original)
        def run(vm, *args, **kwargs):
            tracer.live[0] = 0.0
            span = tracer.open("run", "vm")
            index = tracer.stack[-1]
            try:
                return original(vm, *args, **kwargs)
            finally:
                tracer.close(span)
                live = tracer.live[0]
                span[5] = {"steps": vm.steps, "key": tracer.trace_key}
                tracer.spans.append(
                    ["live", "native", span[2], span[2] + live, index, None]
                )

        vm_class.run = run

    def _recorder_class(self, base):
        live = self.live

        def timed(downstream):
            def on_event(op, site, taken, callee, daddrs, builtin, cost):
                start = clock()
                downstream(op, site, taken, callee, daddrs, builtin, cost)
                live[0] += clock() - start
            return on_event

        class TimedRecorder(base):
            def __init__(self, downstream=None):
                super().__init__(
                    timed(downstream) if downstream is not None else None
                )

        self.wrap(TimedRecorder, "seal", "seal", "vm")
        return TimedRecorder

    def install(self) -> None:
        """Wrap every layer boundary the ledger reports."""
        import repro.lang
        from repro.core import simulation
        from repro.corpus import builder, runner
        from repro.harness import cache, parallel
        from repro.native import batch
        from repro.native.model import ModelRunner, NativeInterpreterModel
        from repro.uarch.pipeline import Machine, SteadyStateMemo
        from repro.uarch.stats import MachineStats
        from repro.vm.js import interp as js_interp
        from repro.vm.js import JsVM
        from repro.vm.lua import interp as lua_interp
        from repro.vm.lua import LuaVM

        wrap = self.wrap
        # lang: the front end.
        wrap(repro.lang, "parse", "parse", "lang")
        wrap(lua_interp, "compile_module", "compile_module", "lang")
        wrap(js_interp, "compile_module_js", "compile_module_js", "lang")
        # vm: guest construction, interpretation and trace capture.
        wrap(simulation, "_make_vm", "make_vm", "vm")
        self._wrap_guest_run(LuaVM)
        self._wrap_guest_run(JsVM)
        simulation.TraceRecorder = self._recorder_class(simulation.TraceRecorder)

        def stash_key(key, *args):
            self.trace_key = key

        wrap(simulation, "trace_key", "trace_key", "vm", note=stash_key)
        # native: model assembly, runner/kernel binding, replay rungs.
        wrap(simulation, "get_model", "get_model", "native")
        wrap(parallel, "get_model", "get_model", "native")
        wrap(ModelRunner, "__init__", "runner_init", "native")
        wrap(ModelRunner, "start", "runner_start", "native")
        wrap(ModelRunner, "finish", "runner_finish", "native")
        wrap(NativeInterpreterModel, "structure_digest", "structure_digest",
             "native")
        wrap(NativeInterpreterModel, "memo_codec", "memo_codec", "native")
        def events(n, *args):
            return n

        wrap(simulation, "replay_events", "replay", "native", note=events)
        wrap(simulation, "replay_events_memo", "replay", "native", note=events)
        wrap(batch, "trace_plan", "trace_plan", "native")
        # uarch: Machine set-up and finalize, the steady-state memo.
        wrap(Machine, "__init__", "machine_init", "uarch")
        wrap(Machine, "finalize", "finalize", "uarch")
        wrap(MachineStats, "component_counters", "counters", "uarch")
        wrap(SteadyStateMemo, "try_apply", "memo_probe", "uarch",
             note=lambda hit, memo, key, n: n if hit else -1)
        wrap(SteadyStateMemo, "begin", "memo_begin", "uarch")
        wrap(SteadyStateMemo, "commit", "memo_commit", "uarch")
        wrap(SteadyStateMemo, "import_payload", "memo_import", "uarch",
             note=lambda installed, *args: installed)
        wrap(SteadyStateMemo, "export_payload", "memo_export", "uarch")
        # cache: the three stores.
        for store, cls in (("results", cache.ResultCache),
                           ("traces", cache.TraceStore),
                           ("memos", cache.MemoStore)):
            wrap(cls, "__init__", f"{store}.open", "cache")
            wrap(cls, "get", f"{store}.get", "cache",
                 note=lambda hit, *args: int(hit is not None))
            wrap(cls, "put", f"{store}.put", "cache")
        wrap(cache, "memo_key", "memo_key", "cache")
        wrap(cache, "_quarantine_entry", "quarantine", "cache")
        # parallel: the job engine; simulate itself is glue.
        wrap(parallel, "run_jobs_partial", "run_jobs", "parallel")
        runner.run_jobs_partial = parallel.run_jobs_partial
        wrap(parallel, "execute_job", "execute_job", "parallel")
        wrap(parallel, "simulate", "simulate", None)
        # corpus: build (set-up) and run.
        wrap(builder, "build_corpus", "build_corpus", "corpus")
        wrap(runner, "run_corpus", "run_corpus", "corpus")


def _self_times(spans: list, keep) -> list:
    """``(span, self time)`` for the spans whose index is in *keep*."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            children[span[4]] += span[3] - span[2]
    return [
        (span, span[3] - span[2] - children[i])
        for i, span in enumerate(spans)
        if i in keep
    ]


def _subtree(spans: list, root: int) -> set:
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][4] in inside:
            inside.add(i)
    return inside


def worker_payloads(spool: Path) -> list:
    """The spans and compile counts each pool worker spooled at exit."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(spool).glob("spans-*.json"))
    ]


def ledger(tracer: Tracer, root: list, metrics, corpus=None) -> dict:
    """Per-layer metrics of the sweep under span *root*.

    *metrics* is the sweep's ``ThroughputMetrics``; *corpus* the
    ``CorpusRunSummary`` when there is one.
    """
    spans = tracer.spans
    index = spans.index(root)
    wall = root[3] - root[2]
    items = _self_times(spans, _subtree(spans, index))
    workers = []
    compiles = _compile_misses() - tracer.compile_base
    for payload in worker_payloads(tracer.spool):
        workers.append(
            _self_times(payload["spans"], range(len(payload["spans"])))
        )
        compiles += payload["compiles"]
    lanes = max(1, len(workers))
    total = lanes * wall
    spanned = items + [item for w in workers for item in w]

    layer = defaultdict(float)
    dur = defaultdict(float)
    own_time = defaultdict(float)
    count = defaultdict(int)
    notes = defaultdict(list)
    for span, own in spanned:
        name = span[0]
        if span[1] is not None:
            layer[span[1]] += own
        dur[name] += span[3] - span[2]
        own_time[name] += own
        count[name] += 1
        if span[5] is not None:
            notes[name].append(span[5])
    if workers:
        # Lane time that neither a worker's spans nor the parent's own
        # work covers is pool overhead.
        parent_parallel = sum(own for span, own in items if span[1] == "parallel")
        tops = sum(span[3] - span[2] for span, _ in spanned[len(items):]
                   if span[4] < 0)
        idle = total - (wall - parent_parallel) - tops
        layer["parallel"] += max(0.0, idle) - parent_parallel

    runs = notes["run"]
    keys = {run["key"] for run in runs}
    probes = notes["memo_probe"]
    skipped = sum(n for n in probes if n > 0)
    replayed = sum(notes["replay"])
    result_gets = notes["results.get"]
    events = metrics.events

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {
        "lang.s": layer["lang"],
        "lang.compiles": count["compile_module"] + count["compile_module_js"],
        "vm.interpret_s": own_time["run"],
        "vm.steps": sum(run["steps"] for run in runs),
        "vm.records": len(runs),
        "vm.records_per_key": share(len(runs), len(keys)),
        "native.model_s": sum(own_time[name] for name in MODEL_SPANS),
        "native.live_s": dur["live"],
        "native.replay_s": own_time["replay"],
        "native.replay_events_per_s": share(replayed - skipped,
                                            own_time["replay"]),
        "native.plan_s": dur["trace_plan"],
        "native.kernel_share": share(metrics.kernel_events, events),
        "native.kernels_compiled": compiles,
        "native.batch_share": share(metrics.batch_events, events),
        "native.superblocks": metrics.superblocks,
        "uarch.memo_hit_share": share(sum(1 for n in probes if n >= 0),
                                      len(probes)),
        "uarch.memo_skip_share": share(skipped, events),
        "uarch.memo_loaded": sum(notes["memo_import"]),
        "uarch.memo_import_s": dur["memo_import"],
        "uarch.memo_export_s": dur["memo_export"],
        "uarch.finalize_s": dur["finalize"],
        "cache.results_hit_share": share(sum(result_gets), len(result_gets)),
        "cache.quarantined": count["quarantine"],
        "parallel.jobs": count["execute_job"],
        "parallel.overhead_s": wall - dur["execute_job"] / lanes,
        "parallel.busy_share": share(dur["execute_job"], total),
        "parallel.retries": metrics.retries,
        "corpus.build_s": sum(
            span[3] - span[2] for span in spans if span[0] == "build_corpus"
        ),
        "corpus.ok": corpus.ok if corpus is not None else 0,
        "corpus.errors": corpus.error if corpus is not None else 0,
        "trace.unattributed_share": 1.0 - share(sum(layer.values()), total),
    }
    for store in ("results", "traces", "memos"):
        out[f"cache.{store}_get_s"] = dur[f"{store}.get"]
        out[f"cache.{store}_put_s"] = dur[f"{store}.put"]
    for name in LAYERS:
        out[f"{name}.share"] = share(layer[name], total)
    out["trace.wall_s"] = wall
    return out
