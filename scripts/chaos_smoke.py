#!/usr/bin/env python
"""Harness-chaos smoke drill: supervised pool + write-ahead journal.

Two deterministic fault drills, both seeded so CI reruns are
bit-reproducible:

1. **Worker chaos** — a small spec batch runs through a
   :class:`~repro.experiments.supervisor.SupervisedPool`-backed Runner
   with the ``worker-crash`` profile armed (seeded SIGKILLs inside the
   child).  The drill asserts the contract the serving layer depends
   on: *every* job resolves — a real result or a structured
   ``WorkerCrash``/``Timeout`` error — and the pool never hangs or
   raises.  With retries enabled and a crash rate well below 1.0, at
   least one job must also have survived via retry.

2. **Journal chaos** — appends run with the ``journal-crash`` profile
   until a :class:`~repro.faults.harness.SimulatedCrash` fires
   (possibly mid-write, leaving a torn line), then a fresh
   :class:`~repro.serve.journal.JobJournal` recovers the directory and
   the drill asserts no *accepted* record that was reported durable is
   lost, and that the torn tail was dropped cleanly.

Exit status 0 when both drills hold, 1 otherwise.  Used by CI's fast
``chaos-smoke`` step and runnable locally::

    PYTHONPATH=src python scripts/chaos_smoke.py --seed 7 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List

try:
    import repro  # noqa: F401
except ImportError:                                    # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.runner import Runner, RunSpec  # noqa: E402
from repro.experiments.supervisor import SupervisorConfig  # noqa: E402
from repro.faults.harness import HarnessChaos, SimulatedCrash  # noqa: E402
from repro.serve.journal import JobJournal  # noqa: E402


def drill_workers(seed: int, jobs: int, crash_rate: float) -> dict:
    """Seeded worker-crash chaos through the supervised pool."""
    specs = [RunSpec(workload=w, mode=m, n_cmps=2)
             for w in ("sor", "cg") for m in ("single", "double")]
    runner = Runner(
        jobs=jobs, cache=None,
        supervisor=SupervisorConfig(
            wall_limit_s=120.0, retries=2, retry_backoff_s=0.05,
            chaos_profile="worker-crash", chaos_seed=seed))
    # Rate override: the profile's default is fine for CI, but the
    # drill pins it so --crash-rate is honoured.
    runner.pool.chaos = HarnessChaos(seed=seed,
                                     worker_crash_rate=crash_rate)
    results = runner.run_batch(specs)
    report = {
        "jobs": len(specs),
        "resolved": len(results),
        "errors": [r.error["type"] for r in results
                   if r.error is not None],
        "pool": runner.pool.stats(),
    }
    problems: List[str] = []
    if len(results) != len(specs):
        problems.append(f"only {len(results)}/{len(specs)} jobs resolved")
    for result in results:
        if result.error is not None \
                and result.error["type"] not in ("WorkerCrash", "Timeout",
                                                 "CircuitOpen"):
            problems.append(f"unexpected error type "
                            f"{result.error['type']!r}")
    crashes = runner.pool.counts["worker_crashes"]
    if crash_rate > 0 and crashes == 0:
        problems.append("chaos armed but no worker crash was injected")
    survived = sum(1 for r in results if r.error is None)
    if crash_rate < 0.9 and survived == 0:
        problems.append("no job survived despite the retry budget")
    report["worker_crashes"] = crashes
    report["survived"] = survived
    report["problems"] = problems
    return report


def drill_journal(seed: int, appends: int) -> dict:
    """Crash the journal mid-append, then recover and audit."""
    root = Path(tempfile.mkdtemp(prefix="chaos-journal-"))
    try:
        chaos = HarnessChaos(seed=seed, journal_crash_rate=0.25)
        journal = JobJournal(root / "wal", fsync=False, chaos=chaos)
        durable = set()
        crashed_at = None
        for index in range(appends):
            key = f"spec-{index:04d}"
            try:
                journal.accepted(key, {"index": index}, client="drill")
            except SimulatedCrash as exc:
                crashed_at = (index, str(exc))
                break
            durable.add(key)
        journal.close()

        recovered = JobJournal(root / "wal", fsync=False)
        replay = recovered.recover()
        recovered.close()
        problems: List[str] = []
        missing = durable - set(replay.unresolved)
        if missing:
            problems.append(f"durable accepted record(s) lost in "
                            f"recovery: {sorted(missing)}")
        if crashed_at is None:
            problems.append(f"{appends} appends at rate 0.25 never "
                            f"crashed — chaos draws look unarmed")
        return {"appends_attempted": appends, "durable": len(durable),
                "crashed_at": crashed_at,
                "recovered_unresolved": len(replay.unresolved),
                "torn_dropped": replay.torn, "problems": problems}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--crash-rate", type=float, default=0.35)
    parser.add_argument("--journal-appends", type=int, default=32)
    args = parser.parse_args(argv)

    workers = drill_workers(args.seed, args.jobs, args.crash_rate)
    journal = drill_journal(args.seed, args.journal_appends)
    report = {"seed": args.seed, "workers": workers, "journal": journal}
    print(json.dumps(report, indent=2, sort_keys=True))
    problems = workers["problems"] + journal["problems"]
    if problems:
        for problem in problems:
            print(f"[chaos-smoke] FAIL: {problem}", file=sys.stderr)
        return 1
    print("[chaos-smoke] OK: every job resolved under chaos and the "
          "journal recovered cleanly", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
