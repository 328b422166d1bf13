"""The four sweep workloads: seeded inputs, set-up, and the timed sweep.

Every workload is one closed-loop client submitting one sweep through the
public API (``run_jobs_partial`` or ``run_corpus``) on a private cache
root.  ``--seed`` only chooses inputs: each Table III program's ``n`` is
drawn from a fixed band of :data:`BAND` values above its base size, and
corpus-fanout uses it to pick a corpus seed from :data:`CORPUS_SEEDS`.
Because both sets are finite, every possible input has a recorded result
digest (see ``gate.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.simulation import SCHEMES, simulate
from repro.corpus import builder as corpus_builder
from repro.corpus import runner as corpus_runner
from repro.harness import parallel
from repro.harness.cache import ResultCache, TraceStore
from repro.harness.parallel import METRICS, SimJob, ThroughputMetrics
from repro.uarch.config import cortex_a5, cortex_a8, with_btb_geometry

VMS = ("lua", "js")

#: Number of input sizes in each program's band; n = base + step * i.
BAND = 4

#: Table III programs per workload: name -> (base n, band step).  Steps
#: keep a band within a few per cent of the base, so seeds move the
#: figures less than host noise does.
FIGURE_PROGRAMS = {"n-sieve": (1200, 8), "k-nucleotide": (240, 2), "pidigits": (40, 1)}
BTB_PROGRAMS = {"n-sieve": (300, 4), "fibo": (10, 0)}
MEMO_PROGRAMS = {"random": (24000, 200)}

#: figure11's flat Table II BTB sizes and JTE caps, and its measured
#: geometry (the main level is scaled 1/8x..1x of its nominal size).
BTB_SIZES = (64, 128, 256, 512)
JTE_CAPS = (4, 16, None)
GEOMETRY = "cortex-a72"

#: steady-memo runs the Lua guest only (as the perf-smoke trace grid
#: does): recording its input live is most of the set-up time.
MEMO_VMS = ("lua",)
MEMO_SCHEMES = ("baseline", "scd")
MEMO_SESSIONS = 2

#: corpus-fanout: programs in the generated corpus and pool width.
CORPUS_SIZE = 32
CORPUS_WORKERS = 2

#: The corpus seeds ``--seed`` picks from (seed mod their number), like
#: the Table III bands.  Each has recorded digests: an unrecorded corpus
#: falls back to the differential check in every repetition, which took
#: a run from about 60 s to 120-160 s, near the run time limit.  Of
#: corpus seeds 0-23 at this size, these four have store sizes within 3%
#: and rates within 4% of each other, so the seed moves the figures less
#: than host noise does.  Six of the others make the batch rung compile
#: a superblock that takes a pool worker from 71 MB to 117-176 MB.
CORPUS_SEEDS = (2, 3, 18, 19)


@dataclass
class Sweep:
    """What one timed sweep produced, for the correctness gate.

    ``ops`` holds ``(group, job, result, error)`` per simulation, with
    ``result`` None and ``error`` the failure text when the job failed.
    """

    ops: list = field(default_factory=list)
    metrics: ThroughputMetrics | None = None
    corpus: object = None


def pick_sizes(workload: str, seed: int, programs: dict) -> dict:
    """Each program's input size for *seed*, drawn from its band."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        name: base + step * rng.randrange(BAND)
        for name, (base, step) in programs.items()
    }


def band(programs: dict) -> list:
    """Every size assignment the band allows, one program at a time."""
    return [
        {name: base + step * i for name, (base, step) in programs.items()}
        for i in range(BAND)
    ]


def _job(program: str, vm: str, scheme: str, n: int, config=None) -> SimJob:
    return SimJob(program, vm, scheme, config=config, kwargs=(("n", n),))


def _run(jobs_by_group, cache: ResultCache, sweep: Sweep) -> None:
    """Run one session: every job of every group, serially, in order."""
    jobs = [job for _, group_jobs in jobs_by_group for job in group_jobs]
    results, failures = parallel.run_jobs_partial(
        jobs, workers=1, cache=cache, metrics=sweep.metrics
    )
    errors = {job.cache_key(): str(detail) for job, detail in failures}
    it = iter(results)
    for group, group_jobs in jobs_by_group:
        for job in group_jobs:
            sweep.ops.append(
                (group, job, next(it), errors.get(job.cache_key()))
            )


def _record_traces(root: Path, sizes: dict, vms) -> None:
    """Set-up for the replay workloads: one live recording per program."""
    store = TraceStore(root=root)
    for program, n in sizes.items():
        for vm in vms:
            simulate(program, vm=vm, scheme="baseline", n=n,
                     check_output=False, trace_store=store,
                     trace_mode="record")


class Workload:
    """A paper-program sweep: every (scheme, config) point of
    :meth:`points` for each program and VM, one group per (program, VM)."""

    name = ""
    programs: dict = {}
    vms = VMS

    def inputs(self, seed: int):
        return pick_sizes(self.name, seed, self.programs)

    def all_inputs(self) -> list:
        """Every input :meth:`inputs` can return (for digest recording)."""
        return band(self.programs)

    def points(self) -> list:
        """``[(scheme, config), ...]`` run for every program and VM."""
        raise NotImplementedError

    def groups(self, sizes) -> list:
        """``[(group, [SimJob, ...]), ...]`` in submission order."""
        points = self.points()
        return [
            (f"{self.name}|{program}|{vm}|{n}",
             [_job(program, vm, scheme, n, config) for scheme, config in points])
            for program, n in sizes.items()
            for vm in self.vms
        ]

    def prepare(self, root: Path, inputs) -> None:
        pass

    def sweep(self, root: Path, inputs) -> Sweep:
        sweep = Sweep(metrics=ThroughputMetrics())
        _run(self.groups(inputs), ResultCache(root=root), sweep)
        return sweep

    def collect(self, root: Path, inputs, sweep: Sweep) -> None:
        """Fill ``sweep.ops`` after the timed region, when the sweep
        could not."""


class FigureCold(Workload):
    """Both VMs x the paper's four schemes from an empty root: one live
    record per (program, vm), then three replays."""

    name = "figure-cold"
    programs = FIGURE_PROGRAMS

    def points(self):
        return [(scheme, None) for scheme in SCHEMES]


def btb_configs() -> list:
    """figure11's distinct (scheme, config) points, flat BTB then the
    measured geometry, without the duplicates figure11 dedupes."""
    base = with_btb_geometry(cortex_a5(), GEOMETRY)
    nominal = base.btb_levels[1].entries

    def geometry_sized(entries):
        main = replace(base.btb_levels[1], entries=entries)
        return base.with_changes(
            btb_levels=(base.btb_levels[0], main),
            btb_entries=entries,
            btb_ways=main.ways,
        )

    points = []
    for sizes, sized in (
        (BTB_SIZES, lambda e: cortex_a5().with_changes(btb_entries=e)),
        ([nominal // 8, nominal // 4, nominal // 2, nominal], geometry_sized),
    ):
        for size in sizes:
            points.append(("baseline", sized(size)))
            points.append(("scd", sized(size)))
        small = sized(sizes[0])
        for cap in JTE_CAPS:
            if cap is not None:
                points.append(("scd", small.with_changes(jte_cap=cap)))
    return points


class BtbSweep(Workload):
    """figure11's BTB-size x JTE-cap grid on the flat and the measured
    BTB, replaying traces recorded in set-up."""

    name = "btb-sweep"
    programs = BTB_PROGRAMS

    def points(self):
        return btb_configs()

    def prepare(self, root, sizes):
        _record_traces(root, sizes, self.vms)


class SteadyMemo(Workload):
    """Long loop-dominated traces recorded in set-up, then two sessions on
    one root: the first learns and persists memos, the second starts from
    a fresh result cache and imports them."""

    name = "steady-memo"
    programs = MEMO_PROGRAMS
    vms = MEMO_VMS

    def points(self):
        # The Table II core, a smaller BTB, and the higher-end Cortex-A8.
        configs = (
            cortex_a5(),
            cortex_a5().with_changes(btb_entries=128),
            cortex_a8(),
        )
        return [(scheme, config) for config in configs for scheme in MEMO_SCHEMES]

    def prepare(self, root, sizes):
        _record_traces(root, sizes, self.vms)

    def sweep(self, root, sizes):
        sweep = Sweep(metrics=ThroughputMetrics())
        for session in range(MEMO_SESSIONS):
            _run(self.groups(sizes),
                 ResultCache(f"results-{session}", root=root), sweep)
        return sweep


class CorpusFanout(Workload):
    """A seeded stratified corpus run over both VMs x four schemes on a
    two-worker pool."""

    name = "corpus-fanout"

    def inputs(self, seed):
        return CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]

    def all_inputs(self):
        return list(CORPUS_SEEDS)

    @staticmethod
    def corpus_dir(root: Path) -> Path:
        return root.parent / "corpus"

    def groups(self, seed, corpus_dir: Path | None = None):
        manifest = corpus_builder.load_manifest(corpus_dir)
        jobs = []
        for row in manifest["programs"]:
            source = (corpus_dir / row["path"]).read_text(encoding="utf-8")
            for vm in VMS:
                for scheme in SCHEMES:
                    jobs.append(SimJob(
                        workload=f"corpus:{row['name']}",
                        vm=vm,
                        scheme=scheme,
                        kwargs=(
                            ("source", source),
                            ("check_output", False),
                            ("max_steps", corpus_runner.CORPUS_MAX_STEPS),
                        ),
                    ))
        return [(f"{self.name}|{seed}", jobs)]

    def prepare(self, root, seed):
        corpus_builder.build_corpus(self.corpus_dir(root), seed=seed,
                                    size=CORPUS_SIZE)

    def sweep(self, root, seed):
        cache = ResultCache(root=root)
        summary = corpus_runner.run_corpus(
            self.corpus_dir(root), vms=VMS, schemes=SCHEMES,
            workers=CORPUS_WORKERS, cache=cache,
        )
        return Sweep(metrics=METRICS, corpus=summary)

    def collect(self, root, seed, sweep: Sweep) -> None:
        """Read every simulation's result back from the private cache
        (outside the timed region)."""
        cache = ResultCache(root=root)
        errors = sweep.corpus.errors
        for group, jobs in self.groups(seed, self.corpus_dir(root)):
            for job in jobs:
                program = job.workload.split(":", 1)[1]
                sweep.ops.append((group, job, cache.get(job.cache_key()),
                                  errors.get(program)))


WORKLOADS = {
    w.name: w
    for w in (FigureCold(), BtbSweep(), SteadyMemo(), CorpusFanout())
}
