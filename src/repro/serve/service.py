"""The simulation service core: admission → dedup → execute → observe.

:class:`SimulationService` is the long-lived front-end the one-shot CLI
never had.  It accepts :class:`~repro.experiments.runner.RunSpec`
requests from any number of concurrent clients and funnels them through
four stages, each reusing an existing subsystem rather than reinventing
it:

1. **admission** — a spec the Runner has already memoized is answered
   on the spot (no journal record, no queue slot).  Everything else
   meets a bounded queue of unresolved unique jobs plus a per-client
   in-flight cap.  Work beyond either bound is *shed* (:class:`Shed`,
   surfaced as HTTP 429 + ``Retry-After``) instead of being buffered
   without bound;
2. **single-flight dedup** — identical in-flight specs coalesce onto one
   job, keyed by the spec's content-addressed result-cache key
   (:meth:`RunSpec.key`), so a thundering herd of the same parameter
   point costs one simulation;
3. **execution** — each admitted job starts as soon as one of the
   Runner's ``jobs_effective`` slots is free and resolves on its own
   result: one :meth:`~repro.experiments.runner.Runner.run_spec` step
   (memo, disk cache, then — with a pool — an isolated, wall-clock
   limited, crash-retried worker);
4. **observation** — every stage feeds the ``repro.obs`` spine: probes on
   a wall-clock bus (``serve.request`` / ``serve.shed`` / ``serve.done``
   / ``serve.timeout``) and a
   :class:`~repro.obs.registry.MetricsRegistry` (queue depth,
   shed/coalesced/executed counters, a request-latency histogram that
   ``/metrics`` turns into p50/p95 gauges).

A wall-clock watchdog guards each job from the moment it starts: a job
unresolved after ``job_timeout_s`` resolves to the same structured
``error.type == "Timeout"`` record the pool's per-job wall-clock limit
produces.  The job's thread itself cannot be killed (a pool worker can;
the Runner's in-process leg cannot), so a deliberately-stalled run —
e.g. the fault layer's ``blackhole`` profile, where every coherence
request is dropped and only ``max_cycles`` terminates the run —
unblocks its *clients* immediately while the thread drains in the
background; its late result is discarded.

Bit-identity contract: the service never touches how a spec executes —
it only decides *when*.  A served result is therefore bit-identical
(minus ``wall_seconds``) to a direct ``Runner``/``execute_spec`` run of
the same spec, which the conformance suite and the load generator's
``--verify`` both assert.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import sys
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.config import ServiceConfig
from repro.experiments.driver import RunResult
from repro.experiments.runner import Runner, RunSpec
from repro.faults.harness import HarnessChaos, SimulatedCrash
from repro.obs import MetricsRegistry, ObsBus, Tracer
from repro.serve.journal import JobJournal

#: request-latency histogram buckets, milliseconds (simulations run in
#: the hundreds-of-ms to minutes range; the top finite bucket is the
#: "budget" edge — a p95 beyond it reads as inf and fails budget checks)
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                      5000, 10_000, 30_000, 60_000, 120_000)
#: deterministic RunResult fields — everything except the wall-clock
#: measurement — used by identity checks between served and direct runs
NONDETERMINISTIC_FIELDS = ("wall_seconds",)


def deterministic_dict(result: RunResult) -> Dict[str, object]:
    """``result.to_dict()`` minus the wall-clock field: the payload two
    executions of the same spec must agree on, bit for bit."""
    data = result.to_dict()
    for name in NONDETERMINISTIC_FIELDS:
        data.pop(name, None)
    return data


class WallClock:
    """Engine stand-in for the obs bus: monotonic microseconds.

    The bus stamps events with ``engine.now``; the service has no
    simulated time, so its spine runs on the host clock instead.
    """

    __slots__ = ()

    @property
    def now(self) -> int:
        return time.monotonic_ns() // 1000


class Shed(Exception):
    """Admission control rejected the request.

    ``status`` distinguishes back-pressure (429: the queue or a client
    cap is full, try again shortly) from unavailability (503: the
    service is replaying its journal, draining for shutdown, or its
    worker pool is unhealthy).  ``retry_after_s`` arrives pre-jittered
    by the service so shed clients never retry in a synchronized herd.
    """

    def __init__(self, reason: str, retry_after_s: float,
                 status: int = 429, trace_id: Optional[str] = None):
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.status = status
        #: trace identity of the shed request (None when tracing is off)
        #: — the HTTP layer echoes it in the 429/503 error payload so a
        #: rejected client can still correlate with the server trace
        self.trace_id = trace_id


class Job:
    """One admitted unique spec and everyone waiting on it — or one
    memo hit, resolved when it was created."""

    __slots__ = ("id", "spec", "key", "clients", "future", "status",
                 "submitted", "coalesced", "span", "wait_span", "exec_span",
                 "followers")

    def __init__(self, job_id: str, spec: RunSpec, key: Optional[str],
                 client: str, future: "asyncio.Future[RunResult]"):
        self.id = job_id
        self.spec = spec
        #: the spec's cache key; None for a memo hit, which never needs
        #: it to be answered (``info`` computes it on demand)
        self.key = key
        self.clients = [client]
        self.future = future
        self.status = "queued"
        self.submitted = time.monotonic()
        self.coalesced = 0          #: duplicate submissions attached
        #: tracing state (all None/empty when the service is untraced):
        #: the request root span, the open queue-wait child, the open
        #: execution child, and the coalesced followers' spans (each
        #: follower gets its own root, linked to this job's trace, plus
        #: a coalesce-wait child — all closed at resolution)
        self.span = None
        self.wait_span = None
        self.exec_span = None
        self.followers: List[object] = []

    def info(self) -> Dict[str, object]:
        """JSON-able record for ``/runs/{id}``."""
        record: Dict[str, object] = {
            "id": self.id, "status": self.status,
            "spec": self.spec.as_dict(), "label": self.spec.label(),
            "key": self.key if self.key is not None else self.spec.key(),
            "coalesced": self.coalesced,
            "clients": list(self.clients),
        }
        if self.span is not None:
            record["trace_id"] = self.span.context.trace_id
        if self.future.done() and not self.future.cancelled():
            record["result"] = self.future.result().to_dict()
        return record


class SimulationService:
    """Admission-controlled, coalescing front-end to a
    :class:`~repro.experiments.runner.Runner`.

    All state is owned by the event loop the service runs on; the only
    off-loop work is one ``Runner.run_spec`` per running job inside
    ``asyncio.to_thread``, which the Runner makes safe from any thread.
    At most ``jobs_effective`` jobs run at once.  An abandoned
    (timed-out) job gives its slot back, but its thread still holds the
    Runner's in-process leg or a pool worker until it drains, so a stall
    degrades capacity, never correctness.
    """

    def __init__(self, runner: Optional[Runner] = None,
                 config: Optional[ServiceConfig] = None,
                 journal: Optional[JobJournal] = None,
                 chaos: Optional[HarnessChaos] = None):
        self.runner = runner if runner is not None else Runner()
        self.config = config if config is not None else ServiceConfig()
        self.bus = ObsBus(WallClock())
        self.registry = MetricsRegistry()
        self.started = time.monotonic()

        #: request tracer (config.trace): the service owns the merged
        #: span set — runner- and worker-side spans are adopted into it
        #: — and renders it with Tracer.to_perfetto at shutdown.  None
        #: keeps every span site on its one-`is None`-test fast path.
        self.tracer: Optional[Tracer] = (
            Tracer(track="service") if self.config.trace else None)
        if self.tracer is not None:
            self.runner.tracer = self.tracer

        #: write-ahead job journal (None = durability disabled; the
        #: service then behaves exactly as the journal-free layer did)
        self._journal = journal
        if self._journal is None and self.config.journal_dir is not None:
            self._journal = JobJournal(
                self.config.journal_dir,
                segment_max_records=self.config.journal_segment_records,
                fsync=self.config.journal_fsync, chaos=chaos)
        #: lifecycle gates: not ready until start() finishes journal
        #: replay; draining refuses new work ahead of shutdown
        self.ready = False
        self.draining = False
        self.recovered = 0              #: jobs re-admitted by the last replay
        self.journal_errors = 0         #: non-critical append failures

        # probes (serve.* categories on the wall-clock bus)
        self._p_request = self.bus.probe("serve.request")
        self._p_shed = self.bus.probe("serve.shed")
        self._p_done = self.bus.probe("serve.done")
        self._p_timeout = self.bus.probe("serve.timeout")
        self._p_recovered = self.bus.probe("serve.recovered")

        # registry series (the /metrics schema)
        reg = self.registry
        self._g_depth = reg.gauge("serve.queue_depth")
        self._m_requests = reg.counter("serve.requests")
        self._m_shed = reg.counter("serve.shed")
        self._m_coalesced = reg.counter("serve.coalesced")
        self._m_executed = reg.counter("serve.executed")
        self._m_cache_hits = reg.counter("serve.cache_hits")
        self._m_memo_hits = reg.counter("serve.memo_hits")
        #: Runner.run_spec source -> the counter it feeds
        self._m_source = {"executed": self._m_executed,
                          "cache": self._m_cache_hits,
                          "memo": self._m_memo_hits}
        self._m_failed = reg.counter("serve.failed")
        self._m_timeouts = reg.counter("serve.timeouts")
        self._m_recovered = reg.counter("serve.recovered")
        self._m_unavailable = reg.counter("serve.unavailable")
        self._h_latency = reg.histogram("serve.latency_ms",
                                        buckets=LATENCY_BUCKETS_MS)
        self._h_replay = reg.histogram("serve.replay_ms",
                                       buckets=LATENCY_BUCKETS_MS)

        self._inflight: Dict[str, Job] = {}       # cache key -> live job
        self._history: "OrderedDict[str, Job]" = OrderedDict()
        self._client_inflight: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._tasks: Set[asyncio.Task] = set()    # one per admitted job
        #: the Runner's execution slots (created on the loop, in start)
        self._slots: Optional[asyncio.Semaphore] = None
        self.depth = 0                            #: unresolved unique jobs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.runner.jobs_effective)
        if self._journal is not None and not self.ready:
            self._replay_journal()
        self.ready = True

    def _replay_journal(self) -> None:
        """Recover the journal and re-admit every unresolved job.

        Runs before the service reports ready.  Re-admitted jobs skip
        the admission bounds (accepted work is never shed) and skip the
        write-ahead append (they are already journaled); already-
        resolved jobs need nothing — their results live in the result
        cache and any re-request is a cache hit.
        """
        started = time.monotonic()
        replay = self._journal.recover()
        recovered = invalid = 0
        for entry in replay.unresolved.values():
            try:
                spec = spec_from_dict(entry.spec)
            except (ValueError, KeyError, TypeError) as exc:
                invalid += 1
                print(f"[serve] journal replay: dropping unreadable spec "
                      f"for key {entry.key[:12]}...: {exc}", file=sys.stderr)
                continue
            job = self._admit(spec, entry.client, journal=False,
                              trace_id=entry.trace_id)
            job.status = "recovered"
            if job.span is not None:
                job.span.event("recovered", key=entry.key[:12],
                               journal_status=entry.status)
            recovered += 1
        elapsed_ms = (time.monotonic() - started) * 1000.0
        self.recovered = recovered
        self._m_recovered.inc(recovered)
        self._h_replay.observe(elapsed_ms)
        self._p_recovered(
            "replay", f"{recovered} job(s) re-admitted, "
            f"{len(replay.resolved)} already resolved, {invalid} invalid",
            ms=round(elapsed_ms, 3), torn=replay.torn,
            corrupt=replay.corrupt)
        if recovered or replay.torn or replay.corrupt:
            print(f"[serve] journal replay: {recovered} unresolved job(s) "
                  f"re-admitted, {len(replay.resolved)} resolved, "
                  f"{replay.torn} torn record(s) dropped, "
                  f"{replay.corrupt} corrupt record(s) skipped "
                  f"({elapsed_ms:.1f} ms)", file=sys.stderr)

    async def stop(self) -> None:
        self.ready = False
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for job in list(self._inflight.values()):
            if not job.future.done():
                # Deliberately NOT journaled as resolved: a stop with
                # work in flight must leave those jobs recoverable, so
                # the next start re-admits them.
                self._resolve(job, RunResult.failure(
                    job.spec, "ServiceStopped",
                    "service shut down before the job ran",
                    trace_id=self._trace_id(job)), "failed",
                    journal=False)
        if self._journal is not None:
            self._journal.close()

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work (503), wait for in-flight
        jobs up to the drain budget, then stop."""
        self.draining = True
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None
            else self.config.drain_timeout_s)
        while self.depth > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        await self.stop()

    # ------------------------------------------------------------------
    # Stage 1+2: admission and single-flight dedup
    # ------------------------------------------------------------------
    def submit_nowait(self, spec: RunSpec,
                      client: str = "anon") -> Tuple[Job, bool]:
        """Answer ``spec`` from the Runner's memo, or admit it (or
        coalesce onto an identical in-flight job).

        Returns ``(job, coalesced)``; raises :class:`Shed` when either
        admission bound rejects the request.  A memo hit returns an
        already-resolved job and checks no bound: it adds no work.
        Coalesced duplicates add no simulation work either, so they
        bypass the queue bound — but they do count against their
        client's in-flight cap.
        """
        self._m_requests.inc()
        if not self.is_ready():
            self._m_unavailable.inc()
            self._shed(spec, client, self._unready_reason(), status=503)
        result = self.runner.memoized(spec)
        if result is not None:
            return self._answer_memoized(spec, client, result), False
        cap = self.config.per_client_inflight
        held = self._client_inflight.get(client, 0)
        if held >= cap:
            self._shed(spec, client,
                       f"client {client!r} already has {held} in flight "
                       f"(cap {cap})")
        key = spec.key()
        job = self._inflight.get(key)
        if job is not None and not job.future.done():
            job.coalesced += 1
            job.clients.append(client)
            self._client_inflight[client] = held + 1
            self._m_coalesced.inc()
            self._p_request(job.id, f"coalesced onto {spec.label()}",
                            client=client)
            if self.tracer is not None and job.span is not None:
                # The follower is its own request, so its own trace: a
                # fresh root linked to the leader's context, plus an
                # open coalesce-wait child that closes when the leader
                # resolves everyone.
                root = self.tracer.start_span(
                    "serve.request", links=(job.span.context,),
                    client=client, spec=spec.label(), coalesced_onto=job.id)
                wait = self.tracer.start_span("serve.coalesce_wait",
                                              parent=root, leader=job.id)
                job.followers.extend((wait, root))
            return job, True
        if self.depth >= self.config.max_queue:
            self._shed(spec, client,
                       f"queue full ({self.depth}/{self.config.max_queue} "
                       f"unresolved jobs)")
        job = self._admit(spec, client, key=key)
        return job, False

    def _answer_memoized(self, spec: RunSpec, client: str,
                         result: RunResult) -> Job:
        """An already-resolved job carrying the Runner's memoized result.

        Nothing to recover or wait for, so no journal record, no queue
        slot, no in-flight bookkeeping; the job lives only in the
        history, so ``/runs/{id}`` can still answer for it.
        """
        span = admission = None
        if self.tracer is not None:
            span = self.tracer.start_span("serve.request", client=client,
                                          spec=spec.label())
            admission = self.tracer.start_span("serve.admission", parent=span,
                                               journaled=False)
        job = Job(f"r{next(self._ids):06d}", spec, None, client,
                  asyncio.get_running_loop().create_future())
        job.status = "done"
        job.future.set_result(result)
        self._remember(job)
        self._m_memo_hits.inc()
        self._p_request(job.id, spec.label(), client=client)
        if span is not None:
            admission.end()
            self.tracer.start_span("runner.memo_hit", parent=span,
                                   spec=spec.label()).end()
            job.span = span.set(job=job.id, outcome="done").end()
        self._observe_done(job)
        return job

    def _admit(self, spec: RunSpec, client: str, *,
               key: Optional[str] = None, journal: bool = True,
               trace_id: Optional[str] = None) -> Job:
        """Create, journal, and start a new unique job.

        The ``accepted`` record is written (and fsynced) *before* any
        service state mutates — if the append fails, the request errors
        out with nothing admitted, so every admitted job is recoverable
        (a memo hit is never admitted: it is answered before any record
        would be written).  Journal replay calls this with ``journal=False``
        (the record already exists) and bypasses the admission bounds:
        accepted work is never shed.

        ``trace_id`` forces the root span's trace identity — how a
        replayed job keeps the trace_id its ``accepted`` record carries.
        (A root span opened here but orphaned by a journal-append
        failure is simply never finished, so it never reaches the
        trace file.)
        """
        if key is None:
            key = spec.key()
        span = admission = None
        if self.tracer is not None:
            span = self.tracer.start_span("serve.request", trace_id=trace_id,
                                          client=client, spec=spec.label())
            admission = self.tracer.start_span("serve.admission", parent=span,
                                               journaled=journal)
        if journal and self._journal is not None:
            # Write-ahead: raises on failure (including an injected
            # journal-crash fault) before the job exists anywhere.
            self._journal.accepted(
                key, spec.as_dict(), client,
                trace_id=span.context.trace_id if span is not None else None)
        job = Job(f"r{next(self._ids):06d}", spec, key, client,
                  asyncio.get_running_loop().create_future())
        self._inflight[key] = job
        self._remember(job)
        self._client_inflight[client] = (
            self._client_inflight.get(client, 0) + 1)
        self.depth += 1
        self._g_depth.set(self.depth)
        if span is not None:
            span.set(job=job.id)
            admission.end()
            job.span = span
            job.wait_span = self.tracer.start_span("serve.queue_wait",
                                                   parent=span)
        task = asyncio.get_running_loop().create_task(self._execute(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        self._p_request(job.id, spec.label(), client=client)
        return job

    def admit_batch(self, specs: List[RunSpec],
                    client: str = "anon") -> List[Tuple[Job, bool]]:
        """Admit a whole batch atomically: memo hits are answered on the
        spot, and if the rest does not fit the queue bound or the
        client's in-flight cap, nothing is admitted.

        The memo only grows, so a spec counted as a hit here is still
        one when :meth:`submit_nowait` answers it.
        """
        misses = [spec for spec in specs
                  if self.runner.memoized(spec) is None]
        new_keys = {spec.key() for spec in misses}
        new_keys -= {key for key, job in self._inflight.items()
                     if not job.future.done()}
        first = specs[0] if specs else None
        if self.depth + len(new_keys) > self.config.max_queue:
            self._shed(first, client,
                       f"batch of {len(new_keys)} new job(s) does not fit "
                       f"the queue bound ({self.depth}/"
                       f"{self.config.max_queue} in use)")
        cap = self.config.per_client_inflight
        held = self._client_inflight.get(client, 0)
        if held + len(misses) > cap:
            self._shed(first, client,
                       f"batch needs {len(misses)} in-flight slot(s); client "
                       f"{client!r} already holds {held} (cap {cap})")
        return [self.submit_nowait(spec, client) for spec in specs]

    def _shed(self, spec: Optional[RunSpec], client: str, reason: str,
              status: int = 429):
        self._m_shed.inc()
        self._p_shed(spec.label() if spec is not None else "batch",
                     reason, client=client, status=status)
        trace_id = None
        if self.tracer is not None:
            # Shed requests still get a (tiny) trace: the id rides the
            # 429/503 payload so the client report and the server trace
            # correlate.
            span = self.tracer.start_span(
                "serve.request", client=client,
                spec=spec.label() if spec is not None else "batch",
                outcome="shed", status=status, reason=reason).end()
            trace_id = span.context.trace_id
        raise Shed(reason, self._retry_after(), status=status,
                   trace_id=trace_id)

    def _retry_after(self) -> float:
        """Configured retry hint with ±``retry_jitter`` uniform noise so
        simultaneously-shed clients do not retry in one synchronized
        herd (which would be shed again, forever)."""
        base = self.config.retry_after_s
        jitter = self.config.retry_jitter
        if jitter <= 0.0:
            return base
        return base * (1.0 + random.uniform(-jitter, jitter))

    def is_ready(self) -> bool:
        """Readiness: replay finished, not draining, worker pool (when
        supervised) not degraded or breaker-quarantined."""
        if not self.ready or self.draining:
            return False
        pool = getattr(self.runner, "pool", None)
        if pool is not None and not pool.healthy():
            return False
        return True

    def _unready_reason(self) -> str:
        if self.draining:
            return "service is draining for shutdown"
        if not self.ready:
            return "service is starting (journal replay in progress)"
        return "worker pool unhealthy (degraded or breaker open)"

    # ------------------------------------------------------------------
    # Stage 3: execution
    # ------------------------------------------------------------------
    async def _execute(self, job: Job) -> None:
        """Run one admitted job once a slot is free, and resolve it on
        its own result; the watchdog starts with the run."""
        async with self._slots:
            job.status = "running"
            self._journal_note("started", job.key)
            parent = None
            if job.span is not None:
                job.wait_span.end()
                job.wait_span = None
                # (the span keeps its historical name: benchmark layer
                # attribution and the CI tracing smoke key on it)
                job.exec_span = self.tracer.start_span(
                    "serve.wave_execute", parent=job.span)
                parent = job.exec_span.context
            try:
                result, source = await asyncio.wait_for(
                    asyncio.to_thread(self.runner.run_spec, job.spec,
                                      parent),
                    self.config.job_timeout_s)
            except asyncio.TimeoutError:
                self._m_timeouts.inc()
                self._p_timeout(job.id, job.spec.label())
                if job.exec_span is not None:
                    job.exec_span.event("watchdog_timeout",
                                        budget_s=self.config.job_timeout_s)
                status = "timeout"
                result = RunResult.failure(
                    job.spec, "Timeout",
                    f"no result within {self.config.job_timeout_s}s "
                    f"(serve watchdog)", trace_id=self._trace_id(job))
            except Exception as exc:
                # Whatever escapes the Runner (a failed cache write or
                # fork, no file descriptors left) fails this job alone.
                self._m_failed.inc()
                status = "failed"
                result = RunResult.failure(
                    job.spec, type(exc).__name__, str(exc),
                    trace_id=self._trace_id(job))
            else:
                self._m_source[source].inc()
                status = "done"
                if result.error is not None:
                    self._m_failed.inc()
                    status = "failed"
        self._resolve(job, result, status)

    # ------------------------------------------------------------------
    # Resolution and bookkeeping
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, result: RunResult, status: str,
                 journal: bool = True) -> None:
        job.status = status
        job.future.set_result(result)
        if job.span is not None:
            if job.exec_span is not None:
                job.exec_span.set(outcome=status).end()
            if job.wait_span is not None:
                job.wait_span.end()
            for span in job.followers:
                span.set(outcome=status).end()
            job.span.set(outcome=status).end()
        if journal:
            error = result.error or {}
            self._journal_note("resolved", job.key, status=status,
                               error_type=error.get("type"))
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        for client in job.clients:
            held = self._client_inflight.get(client, 1)
            if held <= 1:
                self._client_inflight.pop(client, None)
            else:
                self._client_inflight[client] = held - 1
        self.depth -= 1
        self._g_depth.set(self.depth)
        self._observe_done(job)

    def _observe_done(self, job: Job) -> None:
        """Record a resolved request's latency and fire ``serve.done``."""
        elapsed_ms = (time.monotonic() - job.submitted) * 1000.0
        self._h_latency.observe(elapsed_ms)
        self._p_done(job.id, f"{job.spec.label()} -> {job.status}",
                     ms=round(elapsed_ms, 3))

    def _journal_note(self, kind: str, key: str, status: str = "done",
                      error_type: Optional[str] = None) -> None:
        """Advisory journal append (``started``/``resolved``).

        Unlike the write-ahead ``accepted`` record, these only *narrow*
        recovery work — losing one means a restart re-runs a job it
        could have skipped, which determinism makes harmless.  So append
        failures are swallowed into a counter instead of failing the
        job.
        """
        if self._journal is None:
            return
        try:
            if kind == "started":
                self._journal.started(key)
            else:
                self._journal.resolved(key, status, error_type=error_type)
        except Exception:
            self.journal_errors += 1

    def _remember(self, job: Job) -> None:
        self._history[job.id] = job
        while len(self._history) > self.config.history_limit:
            self._history.popitem(last=False)

    @staticmethod
    def _trace_id(job: Job) -> Optional[str]:
        return job.span.context.trace_id if job.span is not None else None

    # ------------------------------------------------------------------
    # Introspection (the HTTP layer renders these)
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        return self._history.get(job_id)

    def snapshot(self) -> Dict[str, object]:
        """Health summary for ``/healthz``."""
        value = self.registry.value
        snap: Dict[str, object] = {
            "status": "ok",
            "ready": self.is_ready(),
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "queue_depth": self.depth,
            "max_queue": self.config.max_queue,
            "requests": value("serve.requests"),
            "shed": value("serve.shed"),
            "coalesced": value("serve.coalesced"),
            "executed": value("serve.executed"),
            "timeouts": value("serve.timeouts"),
            "recovered": self.recovered,
            "journal_errors": self.journal_errors,
        }
        if self._journal is not None:
            snap["journal"] = self._journal.stats()
        pool = getattr(self.runner, "pool", None)
        if pool is not None:
            snap["pool"] = pool.stats()
        return snap

    def metrics_flat(self) -> Dict[str, float]:
        """The registry's flat export, with latency quantile gauges and
        the result cache's counters refreshed at scrape time."""
        for q in (0.5, 0.95):
            self.registry.gauge("serve.latency_quantile_ms",
                                q=q).set(self._h_latency.quantile(q))
        hits = (self._m_cache_hits.value + self._m_memo_hits.value
                + self._m_coalesced.value)
        total = hits + self._m_executed.value
        self.registry.gauge("serve.hit_ratio").set(
            hits / total if total else 0.0)
        if self.runner.cache is not None:
            for name, value in self.runner.cache.stats().items():
                self.registry.gauge("serve.result_cache",
                                    stat=name).set(value)
        if self._journal is not None:
            for name, value in self._journal.stats().items():
                self.registry.gauge("serve.journal", stat=name).set(value)
            self.registry.gauge("serve.journal_errors").set(
                self.journal_errors)
        pool = getattr(self.runner, "pool", None)
        if pool is not None:
            stats = pool.stats()
            breaker = stats.pop("breaker")
            for state, count in breaker.items():
                self.registry.gauge("runner.breaker",
                                    state=state).set(count)
            self.registry.gauge("runner.pool_workers").set(
                stats.pop("workers"))
            self.registry.gauge("runner.degraded").set(
                stats.pop("degraded"))
            stats.pop("configured_workers", None)
            for name in ("worker_crashes", "worker_hangs", "retries",
                         "breaker_trips", "breaker_short_circuits"):
                self.registry.gauge(f"runner.{name}").set(
                    stats.get(name, 0))
        return self.registry.flat()


# ----------------------------------------------------------------------
# Wire-format helpers
# ----------------------------------------------------------------------
_SPEC_FIELDS = {f.name for f in dataclasses.fields(RunSpec)}


def spec_from_dict(payload: Dict[str, object]) -> RunSpec:
    """Build (and validate) a :class:`RunSpec` from a JSON object.

    Raises ``ValueError`` on unknown fields, unknown workloads/modes, or
    malformed ``config_overrides`` — the HTTP layer turns that into 400.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"spec must be a JSON object, "
                         f"got {type(payload).__name__}")
    unknown = set(payload) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown spec field(s): {sorted(unknown)}")
    data = dict(payload)
    overrides = data.get("config_overrides") or ()
    if isinstance(overrides, dict):
        overrides = tuple(overrides.items())
    else:
        try:
            overrides = tuple((str(k), v) for k, v in overrides)
        except (TypeError, ValueError):
            raise ValueError("config_overrides must be a mapping or a "
                             "list of [field, value] pairs") from None
    data["config_overrides"] = overrides
    from repro.workloads import REGISTRY
    workload = data.get("workload")
    if workload not in REGISTRY:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(REGISTRY)}")
    spec = RunSpec(**data)
    try:
        spec.resolve_config()        # validates override fields/values
    except TypeError as exc:
        raise ValueError(f"bad config_overrides: {exc}") from None
    return spec
