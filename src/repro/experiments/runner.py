"""Declarative experiment execution: specs, batching, pooling, caching.

The figure/table generators used to call :func:`repro.experiments.driver.
run_mode` directly, serially, and re-simulated identical points many
times (the ``single``/``double`` baselines appear in Figures 1, 5, 6,
and 10; Figure 6's policy sweep repeats Figure 5's).  This module
separates *what to simulate* from *how to execute it*:

* :class:`RunSpec` — an immutable, hashable, picklable description of
  one simulation (workload, mode, CMP count, A-R policy, extension
  flags, config overrides).  Two specs compare equal iff they describe
  the same simulation, which is what enables deduplication.
* :class:`Runner` — executes batches of specs with (a) in-batch and
  in-process deduplication, (b) an optional on-disk
  :class:`~repro.experiments.cache.ResultCache`, and (c) fan-out of
  cache misses over the supervised worker pool
  (:mod:`repro.experiments.supervisor`, ``jobs > 1``), all through one
  per-spec step, :meth:`Runner.run_spec`.

Determinism: the simulator is seeded and event ordering is FIFO
tie-broken, so a spec produces bit-identical ``exec_cycles`` and
``fabric_stats`` whether it runs serially, in a pool worker, or came
from the cache (asserted in ``tests/test_runner.py``).

Every run gets a fresh :class:`~repro.config.MachineConfig` built from
the spec (``resolve_config``), so pooled or interleaved runs can mix
``n_cmps`` values and overrides without sharing any mutable config
state (``run_mode`` rewrites ``n_cmps`` for sequential runs).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig, scaled_config
from repro.experiments.driver import MODES, SLIPSTREAM, RunResult, run_mode
from repro.experiments.supervisor import SupervisedPool, SupervisorConfig
from repro.slipstream.arsync import policy_by_name
from repro.workloads import make


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run.

    ``config_overrides`` is a sorted tuple of ``(field, value)`` pairs
    applied on top of :func:`repro.config.scaled_config` — tuples (not a
    dict) keep the spec hashable and its content hash stable.
    """

    workload: str
    mode: str
    n_cmps: int
    policy: Optional[str] = None
    transparent: bool = False
    si: bool = False
    adaptive: bool = False
    migratory: bool = False
    forwarding: bool = False
    speculative_barriers: bool = False
    max_cycles: Optional[int] = None
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        # Canonicalize so equal simulations compare equal: slipstream gets
        # the driver's default policy name; other modes carry no policy,
        # and implied flags are resolved exactly as run_mode resolves them.
        if self.mode == SLIPSTREAM:
            if self.policy is None:
                object.__setattr__(self, "policy", "G1")
            policy_by_name(self.policy)  # validate early
        else:
            object.__setattr__(self, "policy", None)
        if self.si:
            object.__setattr__(self, "transparent", True)
        if self.speculative_barriers:
            object.__setattr__(self, "forwarding", True)
        overrides = tuple(sorted((str(k), v) for k, v in self.config_overrides))
        object.__setattr__(self, "config_overrides", overrides)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_config(self) -> MachineConfig:
        """A fresh :class:`MachineConfig` for this run.

        A new instance per call: no two runs (pooled or serial) ever see
        the same config object, so ``run_mode``'s sequential-mode
        ``n_cmps`` rewrite cannot leak between specs in a batch.
        """
        return scaled_config(self.n_cmps, **dict(self.config_overrides))

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able content (the spec half of the cache key)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def key(self) -> str:
        """Content-addressed cache key for this spec."""
        from repro.experiments.cache import result_key
        return result_key(self, self.resolve_config())

    def label(self) -> str:
        suffix = ""
        if self.mode == SLIPSTREAM:
            flags = "".join(tag for tag, on in (
                ("+tl", self.transparent and not self.si), ("+si", self.si),
                ("+ad", self.adaptive), ("+fw", self.forwarding)) if on)
            suffix = f"[{self.policy}{flags}]"
        return f"{self.workload}/{self.mode}{suffix}@{self.n_cmps}"

    def with_config_overrides(self, **overrides) -> "RunSpec":
        """A copy with ``overrides`` merged into ``config_overrides``
        (new values win).  Used by the Runner to push run-wide settings
        — e.g. ``--check`` — into every spec of a batch."""
        merged = dict(self.config_overrides)
        merged.update(overrides)
        return replace(self, config_overrides=tuple(sorted(merged.items())))


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec's simulation (always fresh; no caching here).

    Records the run's wall time on the result so batch statistics can
    report serial-equivalent time even for cache hits.
    """
    config = spec.resolve_config()
    policy = policy_by_name(spec.policy) if spec.policy else None
    kwargs = dict(transparent=spec.transparent, si=spec.si,
                  adaptive=spec.adaptive, migratory=spec.migratory,
                  forwarding=spec.forwarding,
                  speculative_barriers=spec.speculative_barriers,
                  max_cycles=spec.max_cycles)
    if policy is not None:
        kwargs["policy"] = policy
    started = time.perf_counter()
    result = run_mode(make(spec.workload), config, spec.mode, **kwargs)
    result.wall_seconds = time.perf_counter() - started
    return result


@dataclass
class BatchStats:
    """What one :meth:`Runner.run_batch` call actually did."""

    total: int = 0           #: specs requested (incl. duplicates)
    unique: int = 0          #: distinct simulations after dedup
    memo_hits: int = 0       #: served from this Runner's in-process memo
    cache_hits: int = 0      #: served from the on-disk result cache
    executed: int = 0        #: simulations actually run
    failed: int = 0          #: specs that produced an error result
    retried: int = 0         #: specs re-submitted after a worker crash
    jobs: int = 1            #: effective worker processes (CPU-capped)
    jobs_requested: int = 1  #: worker processes asked for at construction
    serial_seconds: float = 0.0  #: sum of per-run wall times (serial equivalent)
    wall_seconds: float = 0.0    #: actual elapsed batch time

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall time."""
        return self.serial_seconds / self.wall_seconds if self.wall_seconds else 0.0

    def merged_with(self, other: "BatchStats") -> "BatchStats":
        return BatchStats(
            total=self.total + other.total,
            unique=self.unique + other.unique,
            memo_hits=self.memo_hits + other.memo_hits,
            cache_hits=self.cache_hits + other.cache_hits,
            executed=self.executed + other.executed,
            failed=self.failed + other.failed,
            retried=self.retried + other.retried,
            jobs=max(self.jobs, other.jobs),
            jobs_requested=max(self.jobs_requested, other.jobs_requested),
            serial_seconds=self.serial_seconds + other.serial_seconds,
            wall_seconds=self.wall_seconds + other.wall_seconds)

    def summary(self) -> str:
        resilience = ""
        if self.failed or self.retried:
            resilience = (f", {self.failed} failed, "
                          f"{self.retried} retried after worker crashes")
        # Report both counts when the CPU cap bit: `jobs` is what actually
        # ran, `jobs_requested` is what the caller asked for.  Logging
        # only one of the two made pooled service logs misleading.
        jobs = (f"jobs={self.jobs}" if self.jobs_requested <= self.jobs
                else f"jobs={self.jobs} capped from {self.jobs_requested}")
        return (f"{self.total} runs requested: {self.executed} simulated, "
                f"{self.cache_hits} from disk cache, {self.memo_hits} "
                f"memoized, {self.total - self.unique} "
                f"deduplicated in-batch ({jobs}){resilience}; "
                f"serial-equivalent {self.serial_seconds:.1f}s in "
                f"{self.wall_seconds:.1f}s wall ({self.speedup:.2f}x)")


class Runner:
    """Batch executor with dedup, memoization, caching, and pooling.

    * in-batch dedup — duplicate specs in one batch simulate once;
    * in-process memo — results persist across batches for the Runner's
      lifetime (how Figure 6 reuses Figure 5's sweep inside one
      ``all`` invocation even with ``--no-cache``);
    * disk cache — optional :class:`ResultCache`, shared across
      processes and invocations;
    * pooling — with ``jobs > 1`` (or an explicit ``supervisor``), every
      cache miss runs in the supervised worker pool
      (:mod:`repro.experiments.supervisor`), a batch's distinct specs
      on ``jobs_effective`` threads; with ``jobs == 1`` misses run
      in-process one at a time, the reference path.

    Every path is one per-spec step, :meth:`run_spec`, which the
    serving layer also calls directly, one job at a time.

    Resilience (all modes return results in spec order, always):

    * a spec whose simulation raises produces a structured
      :attr:`RunResult.error` record instead of aborting the batch
      (``fail_fast=True`` raises instead: the exception itself on the
      serial path, a ``RuntimeError`` naming the worker's error type
      from the pool);
    * the pool adds per-job process isolation, wall-clock and
      address-space limits (a hung worker is killed and reported as
      ``error.type == "Timeout"``), crash retry with backoff, and a
      per-spec circuit breaker whose state persists across batches —
      all configured by the :class:`SupervisorConfig` passed as
      ``supervisor`` (its defaults for ``True``, or for ``None`` with
      ``jobs > 1``).

    Error results are never written to the disk cache and never
    memoized, so a failed spec is re-attempted on the next batch.
    Results are bit-identical on every path; only scheduling changes.
    """

    def __init__(self, jobs: int = 1, cache=None,
                 config_overrides: Optional[Dict[str, Any]] = None,
                 fail_fast: bool = False, supervisor=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        #: pool workers actually used: oversubscribing a box (jobs above
        #: the CPU count) only adds process churn — the workers are
        #: CPU-bound simulations, so extra ones time-slice, they do not
        #: overlap.  The pool itself still exists for the *requested*
        #: jobs, so explicitly-parallel callers keep pool semantics
        #: (isolation, wall limit, crash retry) even on one CPU.
        cpus = os.cpu_count() or 1
        self.jobs_effective = min(jobs, cpus)
        if self.jobs_effective < jobs:
            print(f"[runner] jobs={jobs} exceeds the {cpus} available "
                  f"CPU(s); capping pool workers at {self.jobs_effective}",
                  file=sys.stderr)
        self.cache = cache
        self.fail_fast = fail_fast
        #: machine-config fields forced onto every spec this Runner
        #: executes (e.g. ``{"check": True}`` for sanitized runs).  They
        #: participate in spec identity, so checked and unchecked results
        #: never alias in the memo or the disk cache.
        self.config_overrides = dict(config_overrides or {})
        self.pool: Optional[SupervisedPool] = None
        if supervisor is not None or jobs > 1:
            if supervisor is None or supervisor is True:
                supervisor = SupervisorConfig()
            self.pool = SupervisedPool(supervisor, self.jobs_effective)
        self._memo: Dict[RunSpec, RunResult] = {}
        #: guards ``_memo`` and the batch statistics: specs run on
        #: several threads at once (pooled batches, the serving layer)
        self._lock = threading.Lock()
        #: the in-process leg runs one simulation at a time, so a run the
        #: serving watchdog abandoned never overlaps the next one
        self._serial = threading.Lock()
        self.last_stats: Optional[BatchStats] = None
        self.total_stats = BatchStats(jobs=self.jobs_effective,
                                      jobs_requested=jobs)
        #: request tracer (repro.obs.trace), set by the serving layer.
        #: None (the default) keeps every execution leg on its untraced
        #: fast path — the spine's usual one-`is None`-test contract.
        self.tracer = None

    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunResult:
        """Single-spec convenience wrapper around :meth:`run_batch`."""
        return self.run_batch([spec])[0]

    def memoized(self, spec: RunSpec) -> Optional[RunResult]:
        """The result this Runner already memoized for ``spec``, or None.

        Read-only: no stats, no spans, no disk-cache read.  Safe to call
        from another thread while specs run.
        """
        if self.config_overrides:
            spec = spec.with_config_overrides(**self.config_overrides)
        with self._lock:
            return self._memo.get(spec)

    def run_spec(self, spec: RunSpec,
                 parent: Optional[object] = None) -> Tuple[RunResult, str]:
        """One spec's result and its source: ``"memo"``, ``"cache"`` or
        ``"executed"``.  Safe to call from any thread.

        Tries the memo, then the disk cache, then runs the simulation —
        in the pool when there is one, else in-process.  ``parent`` (a
        :class:`~repro.obs.trace.SpanContext`) nests the step's spans
        under a request when a tracer is attached.
        """
        if self.config_overrides:
            spec = spec.with_config_overrides(**self.config_overrides)
        tracer = self.tracer
        with self._lock:
            result = self._memo.get(spec)
        if result is not None:
            if tracer is not None:
                tracer.start_span("runner.memo_hit", parent=parent,
                                  spec=spec.label()).end()
            return result, "memo"
        key = spec.key() if self.cache is not None else None
        if key is not None:
            result = self.cache.get(key)
            if result is not None:
                if tracer is not None:
                    tracer.start_span("runner.cache_hit", parent=parent,
                                      spec=spec.label()).end()
                with self._lock:
                    self._memo[spec] = result
                return result, "cache"
        if self.pool is not None:
            result = self.pool.run(spec, parent, tracer)
            if self.fail_fast and result.error is not None:
                raise RuntimeError(
                    f"{result.error['type']} running {spec.label()}: "
                    f"{result.error['message']}")
        else:
            result = self._execute(spec, parent)
        if result.error is None:
            if key is not None:
                self.cache.put(key, result)
            with self._lock:
                self._memo[spec] = result
        return result, "executed"

    def _execute(self, spec: RunSpec, parent: Optional[object]) -> RunResult:
        """The in-process leg: one simulation at a time."""
        tracer = self.tracer
        with self._serial:
            span = (tracer.start_span("runner.execute", parent=parent,
                                      spec=spec.label())
                    if tracer is not None else None)
            try:
                if span is not None:
                    from repro.obs.trace import trace_scope
                    with trace_scope(tracer, span):
                        return execute_spec(spec)
                return execute_spec(spec)
            except Exception as exc:
                if self.fail_fast:
                    raise
                if span is not None:
                    span.event("error", type=type(exc).__name__)
                return RunResult.failure(spec, type(exc).__name__, str(exc),
                                         attempts=1)
            finally:
                if span is not None:
                    span.end()

    def run_batch(self, specs: Sequence[RunSpec],
                  parents: Optional[Sequence[object]] = None
                  ) -> List[RunResult]:
        """Execute all ``specs``; returns results in spec order.

        Duplicate specs share one :meth:`run_spec` step (and one result
        object); with a pool, the distinct specs' steps run on
        ``jobs_effective`` threads.

        ``parents`` — aligned with ``specs`` — carries per-request
        :class:`~repro.obs.trace.SpanContext` objects (or ``None``
        holes) when a tracer is attached; the spec is *never* touched
        (trace identity must not leak into content-addressed cache
        keys), so context flows beside the specs, first-submitter-wins
        across in-batch duplicates.
        """
        started = time.perf_counter()
        if self.config_overrides:
            specs = [spec.with_config_overrides(**self.config_overrides)
                     for spec in specs]
        parent_map: Dict[RunSpec, object] = {}
        if self.tracer is not None and parents is not None:
            for spec, ctx in zip(specs, parents):
                if ctx is not None:
                    parent_map.setdefault(spec, ctx)
        distinct = list(dict.fromkeys(specs))
        retries = self.pool.counts["retries"] if self.pool is not None else 0

        def step(spec: RunSpec) -> Tuple[RunResult, str]:
            return self.run_spec(spec, parent_map.get(spec))

        if self.pool is not None:
            with ThreadPoolExecutor(self.jobs_effective) as threads:
                steps = list(threads.map(step, distinct))
        else:
            steps = [step(spec) for spec in distinct]
        results = {spec: result for spec, (result, _) in zip(distinct, steps)}
        sources = Counter(source for _, source in steps)
        stats = BatchStats(
            total=len(specs), unique=len(distinct),
            memo_hits=sources["memo"], cache_hits=sources["cache"],
            executed=sources["executed"],
            failed=sum(1 for result, _ in steps if result.error is not None),
            retried=(self.pool.counts["retries"] - retries
                     if self.pool is not None else 0),
            jobs=self.jobs_effective, jobs_requested=self.jobs,
            serial_seconds=sum(result.wall_seconds for result, _ in steps),
            wall_seconds=time.perf_counter() - started)
        with self._lock:
            self.last_stats = stats
            self.total_stats = self.total_stats.merged_with(stats)
        return [results[spec] for spec in specs]
