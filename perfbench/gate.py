"""Correctness gate, applied to every simulation outside the timed region.

An operation (one simulation) fails when it raised, when its result is
missing, or when either check below disagrees:

* guest output: Table III programs must print
  ``Workload.expected_output(n)`` (``simulate`` skips this check when
  ``n`` is explicit); corpus programs must pass the cross-VM oracle and
  the manifest digests that ``run_corpus`` applies;
* timing: the ``SimResult`` must hash to the digest recorded from this
  commit in ``digests.json`` (``python3 perfbench/record_digests.py``
  rewrites it).  For a corpus seed with no recorded digests,
  ``DifferentialRunner.check_source`` verifies the first corpus programs
  across every execution path instead.  A benchmark run only draws
  recorded corpus seeds; ``record_digests.py`` takes this path before it
  records a corpus.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

#: Hex characters kept per result digest.
DIGEST_CHARS = 8

#: Corpus programs the differential runner checks when the seed has no
#: recorded digests (tiny and small ones; a medium one costs ~7 s).
DIFFERENTIAL_SAMPLE = 2


def result_digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:DIGEST_CHARS]


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def group_digests(ops) -> dict:
    """``{group: concatenated digests}`` of a sweep's results, in order."""
    out: dict = {}
    for group, _, result, _ in ops:
        out[group] = out.get(group, "") + result_digest(result)
    return out


def _expected_output(job) -> tuple:
    from repro.workloads import workload

    n = dict(job.kwargs)["n"]
    return tuple(workload(job.workload).expected_output(n=n))


def _differential_failures(ops) -> set:
    """Corpus programs, among the first few, that fail ``check_source``."""
    from repro.verify.differential import DifferentialRunner

    sources: dict = {}
    for _, job, _, _ in ops:
        sources.setdefault(job.workload, dict(job.kwargs)["source"])
    runner = DifferentialRunner()
    return {
        program
        for program, source in list(sources.items())[:DIFFERENTIAL_SAMPLE]
        if runner.check_source(source)
    }


def check(sweep, digests: dict) -> list:
    """Return ``[(job, reason), ...]``, one entry per failed operation."""
    unrecorded = [op for op in sweep.ops if op[0] not in digests]
    differential_bad = (
        _differential_failures(unrecorded)
        if unrecorded and sweep.corpus is not None else set()
    )
    failures = []
    position: dict = {}
    for group, job, result, error in sweep.ops:
        index = position.get(group, 0)
        position[group] = index + 1
        if error is not None:
            failures.append((job, error.strip().splitlines()[-1]))
        elif result is None:
            failures.append((job, "missing result"))
        elif sweep.corpus is None and result.output != _expected_output(job):
            failures.append((job, "guest output differs from the reference"))
        elif group in digests:
            want = digests[group][
                index * DIGEST_CHARS:(index + 1) * DIGEST_CHARS
            ]
            if result_digest(result) != want:
                failures.append((job, "result differs from its recorded digest"))
        elif sweep.corpus is None:
            failures.append((job, "no recorded digest for this input"))
        elif job.workload in differential_bad:
            failures.append((job, "differential check found a discrepancy"))
    return failures
