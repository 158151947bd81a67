"""Supervised worker pool: per-job isolation, limits, retry, breaker.

This is the Runner's one parallel execution leg: every cache miss of a
``Runner(jobs > 1)`` — or of any Runner given a ``supervisor`` — runs
here.  A shared executor lets one crashed worker abort every
outstanding job and can only abandon, never reap, a hung one; this
pool supervises each job instead:

* **per-job process isolation** — every spec runs in its own
  ``multiprocessing.Process`` with its own pipe, so one death affects
  exactly one job;
* **resource limits** — a wall-clock deadline per job (the supervisor
  SIGTERM/SIGKILLs over-budget workers and reaps them) and an optional
  address-space cap (``RLIMIT_AS``) applied inside the child, which
  turns a runaway allocation into a clean ``MemoryError`` result;
* **crash/hang detection with a bounded retry budget** — a worker that
  dies without reporting is retried with exponential backoff up to
  ``retries`` times (crashes are nondeterministic from the job's point
  of view); a worker that exceeds its wall budget is killed and
  reported as a structured ``Timeout``;
* **a per-spec circuit breaker** — ``breaker_threshold`` consecutive
  worker deaths for the same spec key open the breaker: further
  attempts short-circuit to a structured ``CircuitOpen``
  :class:`RunResult` error *without spawning a process*, so a poison
  job cannot keep crashing workers.  After ``breaker_cooldown_s`` the
  breaker goes half-open and admits one probe; success closes it;
* **health-gated degradation** — a sliding window of final job
  outcomes; when the worker-death ratio crosses
  ``degrade_crash_ratio`` the pool halves its concurrency (down to 1)
  and reports itself unhealthy, which the serving layer surfaces as
  ``/healthz?ready=1`` → 503.  A clean full window grows the pool back
  one step at a time.

Determinism: supervision decides *whether and when* a job runs, never
how — a job that completes produces the same bit-identical result the
serial path produces.  Chaos profiles from
:mod:`repro.faults.harness` inject seeded worker crashes/hangs for the
recovery tests and the CI harness-chaos smoke.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.driver import RunResult
from repro.faults.harness import HARNESS_PROFILES, HarnessChaos

#: breaker states (also the label values of the serve-layer gauges)
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised pool (never part of cache keys —
    supervision shapes scheduling, not results).  The pool's size is
    not among them: the Runner sizes it from its CPU-capped ``jobs``."""

    #: per-job wall-clock budget in seconds (None = unlimited)
    wall_limit_s: Optional[float] = 300.0
    #: per-job address-space cap in MiB, applied in the child via
    #: ``RLIMIT_AS`` (None = unlimited)
    rss_limit_mb: Optional[int] = None
    #: crash retries per job (hangs and deterministic errors never retry)
    retries: int = 2
    #: first-retry backoff in seconds; doubles per attempt
    retry_backoff_s: float = 0.25
    #: consecutive worker deaths on one spec key that open its breaker
    breaker_threshold: int = 3
    #: seconds an open breaker waits before admitting a half-open probe
    breaker_cooldown_s: float = 30.0
    #: sliding window of final outcomes feeding the health gate
    degrade_window: int = 8
    #: worker-death ratio over a full window that triggers degradation
    degrade_crash_ratio: float = 0.5
    #: harness chaos profile + seed (tests / chaos smokes only)
    chaos_profile: Optional[str] = None
    chaos_seed: int = 1

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.degrade_window < 1:
            raise ValueError("degrade_window must be >= 1")
        if not 0.0 < self.degrade_crash_ratio <= 1.0:
            raise ValueError("degrade_crash_ratio must be in (0, 1]")
        for name in ("retry_backoff_s", "breaker_cooldown_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.wall_limit_s is not None and self.wall_limit_s <= 0:
            raise ValueError("wall_limit_s must be > 0 (or None)")
        if self.rss_limit_mb is not None and self.rss_limit_mb < 1:
            raise ValueError("rss_limit_mb must be >= 1 (or None)")

    def chaos(self) -> Optional[HarnessChaos]:
        if self.chaos_profile is None:
            return None
        return HarnessChaos.from_profile(self.chaos_profile,
                                         seed=self.chaos_seed)


def add_pool_arguments(parser) -> None:
    """The pool flags shared by ``python -m repro.experiments`` and
    ``python -m repro.serve`` (``parser`` may be an argument group)."""
    defaults = SupervisorConfig()
    parser.add_argument("--supervised", action="store_true",
                        help="run through the supervised worker pool even "
                             "at --jobs 1 (--jobs > 1 always uses it): "
                             "per-job process isolation, crash/hang "
                             "detection, retries, circuit breaker")
    parser.add_argument("--wall-limit", type=float,
                        default=defaults.wall_limit_s, metavar="SEC",
                        help="pool: per-job wall-clock kill limit "
                             f"(default {defaults.wall_limit_s:g})")
    parser.add_argument("--rss-limit", type=int,
                        default=defaults.rss_limit_mb, metavar="MB",
                        help="pool: per-job address-space limit "
                             "(default: unlimited)")
    parser.add_argument("--retries", type=int, default=defaults.retries,
                        metavar="N",
                        help="pool: crash retry budget per job "
                             f"(default {defaults.retries})")
    parser.add_argument("--chaos", default=None, metavar="PROFILE",
                        choices=sorted(HARNESS_PROFILES),
                        help="pool: arm a harness chaos profile "
                             f"({', '.join(sorted(HARNESS_PROFILES))})")
    parser.add_argument("--chaos-seed", type=int,
                        default=defaults.chaos_seed, metavar="SEED",
                        help="seed for deterministic chaos draws "
                             f"(default {defaults.chaos_seed})")


def pool_config(args) -> Optional[SupervisorConfig]:
    """The pool the parsed flags describe, or None when the Runner runs
    serially in-process (``--jobs 1`` without ``--supervised``)."""
    if not args.supervised and args.jobs <= 1:
        return None
    return SupervisorConfig(wall_limit_s=args.wall_limit,
                            rss_limit_mb=args.rss_limit,
                            retries=args.retries, chaos_profile=args.chaos,
                            chaos_seed=args.chaos_seed)


class CircuitBreaker:
    """Per-key closed → open → half-open breaker.

    ``allow(key)`` gates execution; ``record_failure``/``record_success``
    drive transitions.  The clock is injectable so tests can step time.
    """

    def __init__(self, threshold: int, cooldown_s: float,
                 clock: Callable[[], float] = time.monotonic):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self._failures: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self.trips = 0

    def state(self, key: str) -> str:
        if key not in self._opened_at:
            return CLOSED
        if self.clock() - self._opened_at[key] >= self.cooldown_s:
            return HALF_OPEN
        return OPEN

    def allow(self, key: str) -> bool:
        """May this key run now?  Closed and half-open admit; open
        blocks.  Side-effect free: callers run at most one attempt per
        key at a time, so a half-open probe needs no reservation."""
        return self.state(key) != OPEN

    def record_failure(self, key: str) -> bool:
        """Count one worker death; returns True when this call trips
        (or, for a failed half-open probe, re-trips) the breaker."""
        if key in self._opened_at:       # failed probe: straight back open
            self._opened_at[key] = self.clock()
            self.trips += 1
            return True
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        if count >= self.threshold:
            self._opened_at[key] = self.clock()
            self.trips += 1
            return True
        return False

    def record_success(self, key: str) -> None:
        self._failures.pop(key, None)
        self._opened_at.pop(key, None)

    def state_counts(self) -> Dict[str, int]:
        counts = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for key in self._opened_at:
            counts[OPEN if self.state(key) == OPEN else HALF_OPEN] += 1
        return counts

    @property
    def open_keys(self) -> List[str]:
        return [key for key in self._opened_at if self.state(key) == OPEN]


# ----------------------------------------------------------------------
# Worker child
# ----------------------------------------------------------------------
def _worker_main(conn, spec, key: str, attempt: int,
                 rss_limit_mb: Optional[int],
                 chaos_args: Optional[Dict[str, object]],
                 span_ctx: Optional[Dict[str, object]] = None) -> None:
    """Child entry: apply limits, maybe inject chaos, run, report.

    ``span_ctx`` (a serialized :class:`~repro.obs.trace.SpanContext`)
    reconstitutes the parent request's trace in this process: the run
    executes under a ``worker.run`` span nested below it, the engine
    driver's phase spans nest below that (via the ambient trace scope),
    and the finished spans ship home *inside* the pipe payload —
    ``("ok", {"result": ..., "spans": [...]})`` instead of the plain
    ``("ok", result)`` shape used when tracing is off, so untraced
    waves stay byte-identical to the pre-tracing protocol.
    """
    tracer = span = None
    if span_ctx is not None:
        from repro.obs.trace import SpanContext, Tracer
        tracer = Tracer(track=f"worker-{os.getpid()}")
        span = tracer.start_span(
            "worker.run", parent=SpanContext.from_dict(span_ctx),
            pid=os.getpid(), attempt=attempt + 1, spec=spec.label())

    def _payload(data: Dict[str, object]) -> Dict[str, object]:
        if tracer is None:
            return data
        span.end()
        return dict(data, spans=tracer.span_dicts())

    try:
        if rss_limit_mb is not None:
            import resource
            limit = rss_limit_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if chaos_args is not None:
            fault = HarnessChaos(**chaos_args).worker_fault(key, attempt)
            if fault == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault == "hang":
                while True:
                    time.sleep(3600)
        from repro.experiments.runner import execute_spec
        if tracer is not None:
            from repro.obs.trace import trace_scope
            with trace_scope(tracer, span):
                result = execute_spec(spec).to_dict()
            span.end()
            conn.send(("ok", {"result": result,
                              "spans": tracer.span_dicts()}))
        else:
            conn.send(("ok", execute_spec(spec).to_dict()))
    except MemoryError:
        try:
            conn.send(("error", _payload(
                {"type": "MemoryError",
                 "message": f"address-space limit of "
                            f"{rss_limit_mb} MiB exceeded"})))
        except Exception:                              # pragma: no cover
            pass
    except BaseException as exc:
        try:
            conn.send(("error", _payload(
                {"type": type(exc).__name__, "message": str(exc)})))
        except Exception:                              # pragma: no cover
            pass
    finally:
        try:
            conn.close()
        except Exception:                              # pragma: no cover
            pass


def _mp_context():
    """Fork where available (cheap: the child inherits the imported
    simulator); the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                                 # pragma: no cover
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class WaveStats:
    """What one :meth:`SupervisedPool.run_wave` call observed."""

    jobs: int = 0
    completed: int = 0        #: jobs that produced a real result
    failed: int = 0           #: jobs resolved to a structured error
    crashes: int = 0          #: worker deaths observed
    hangs: int = 0            #: workers killed at the wall-clock limit
    retried: int = 0          #: re-spawns after a crash
    breaker_short_circuits: int = 0


class _JobState:
    __slots__ = ("spec", "key", "attempt", "ready_at", "process", "conn",
                 "deadline", "span")

    def __init__(self, spec, key: str, span=None):
        self.spec = spec
        self.key = key
        self.attempt = 0
        self.ready_at = 0.0
        self.process = None
        self.conn = None
        self.deadline: Optional[float] = None
        #: supervisor.job span (None when tracing is off); spawn/crash/
        #: hang/retry/breaker transitions are recorded on it as events
        self.span = span


class SupervisedPool:
    """Long-lived supervisor executing waves of unique specs.

    Breaker and health state persist across waves (that is the point:
    a poison spec stays quarantined for the pool's lifetime, and health
    reflects recent history, not one batch).  Not thread-safe; callers
    serialize waves exactly as they serialize ``Runner.run_batch``.
    """

    def __init__(self, config: SupervisorConfig, workers: int,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        #: max concurrent workers (the Runner's CPU-capped ``jobs``)
        self.configured_workers = workers
        self.workers = workers            #: current (possibly degraded) size
        self.clock = clock
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown_s, clock)
        self.chaos = self.config.chaos()
        self.counts: Counter = Counter()
        self._recent: deque = deque(maxlen=self.config.degrade_window)
        self.degraded = False
        self._ctx = _mp_context()
        #: wave-scoped tracer (set by run_wave when tracing is on)
        self._tracer = None

    # ------------------------------------------------------------------
    # Health gate
    # ------------------------------------------------------------------
    def _note_outcome(self, worker_died: bool) -> None:
        self._recent.append(1 if worker_died else 0)
        if len(self._recent) < self._recent.maxlen:
            return
        ratio = sum(self._recent) / len(self._recent)
        if ratio >= self.config.degrade_crash_ratio and self.workers > 1:
            self.workers = max(1, self.workers // 2)
            self.degraded = True
            self.counts["degradations"] += 1
            self._recent.clear()
        elif ratio == 0.0 and self.workers < self.configured_workers:
            self.workers += 1
            if self.workers >= self.configured_workers:
                self.degraded = False
            self._recent.clear()

    def healthy(self) -> bool:
        """False while degraded or while any breaker is open — the
        serving layer turns this into readiness."""
        return not self.degraded and not self.breaker.open_keys

    # ------------------------------------------------------------------
    # Wave execution
    # ------------------------------------------------------------------
    def run_wave(self, specs, parents=None,
                 tracer=None) -> Tuple[Dict[object, RunResult], WaveStats]:
        """Execute unique ``specs``; returns ``(results_by_spec, stats)``.

        Every spec gets a result: real, or a structured error
        (``WorkerCrash`` / ``Timeout`` / ``CircuitOpen`` / the child's
        own exception type).

        ``parents`` (spec -> :class:`~repro.obs.trace.SpanContext`) and
        ``tracer`` arm tracing: each spec gets a ``supervisor.job`` span
        nested under its request, the span's context is serialized into
        the worker process, and spans finished worker-side are adopted
        back onto ``tracer`` when the result arrives.
        """
        stats = WaveStats(jobs=len(specs))
        results: Dict[object, RunResult] = {}
        pending: List[_JobState] = []
        self._tracer = tracer
        parents = parents or {}
        for spec in specs:
            span = None
            if tracer is not None:
                span = tracer.start_span("supervisor.job",
                                         parent=parents.get(spec),
                                         spec=spec.label())
            job = _JobState(spec, spec.key(), span=span)
            if not self.breaker.allow(job.key):
                stats.breaker_short_circuits += 1
                self.counts["breaker_short_circuits"] += 1
                if job.span is not None:
                    job.span.event("breaker_short_circuit", key=job.key)
                    job.span.set(outcome="CircuitOpen").end()
                results[spec] = self._error_result(
                    spec, "CircuitOpen",
                    f"circuit breaker open for {spec.label()} after "
                    f"{self.config.breaker_threshold} consecutive worker "
                    f"deaths; job quarantined", job.attempt + 1)
                stats.failed += 1
                continue
            pending.append(job)

        running: List[_JobState] = []
        try:
            while pending or running:
                self._spawn_ready(pending, running, self.clock())
                if not self._poll_running(running, pending, results, stats):
                    self._wait(running, pending)
        finally:
            for job in running:           # only on an unexpected raise
                self._kill(job)
        stats.completed = sum(1 for r in results.values() if r.error is None)
        self.counts["completed"] += stats.completed
        self.counts["failed"] += stats.failed
        return results, stats

    # ------------------------------------------------------------------
    def _wait(self, running: List[_JobState],
              pending: List[_JobState]) -> None:
        """Block until a running job reports or exits, or until the
        nearest wall-clock deadline (or, with a worker slot free, retry
        backoff) expires."""
        wake = [job.deadline for job in running if job.deadline is not None]
        if len(running) < self.workers:
            wake += [job.ready_at for job in pending]
        timeout = max(0.0, min(wake) - self.clock()) if wake else None
        multiprocessing.connection.wait(
            [job.conn for job in running]
            + [job.process.sentinel for job in running], timeout)

    def _spawn_ready(self, pending: List[_JobState],
                     running: List[_JobState], now: float) -> None:
        for job in list(pending):
            if len(running) >= self.workers:
                return
            if job.ready_at > now:
                continue
            pending.remove(job)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            chaos_args = self.chaos.to_args() if self.chaos else None
            span_ctx = (job.span.context.to_dict()
                        if job.span is not None else None)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, job.spec, job.key, job.attempt,
                      self.config.rss_limit_mb, chaos_args, span_ctx),
                daemon=True)
            process.start()
            child_conn.close()
            if job.span is not None:
                job.span.event("spawn", pid=process.pid,
                               attempt=job.attempt + 1)
            job.process, job.conn = process, parent_conn
            if self.config.wall_limit_s is not None:
                job.deadline = self.clock() + self.config.wall_limit_s
            running.append(job)

    def _poll_running(self, running: List[_JobState],
                      pending: List[_JobState],
                      results: Dict[object, RunResult],
                      stats: WaveStats) -> bool:
        progressed = False
        for job in list(running):
            outcome = self._check_job(job)
            if outcome is None:
                continue
            progressed = True
            running.remove(job)
            kind, payload = outcome
            if kind == "ok":
                self.breaker.record_success(job.key)
                self._note_outcome(False)
                payload = self._unwrap_traced(job, payload)
                results[job.spec] = RunResult.from_dict(payload)
                if job.span is not None:
                    job.span.set(outcome="ok").end()
            elif kind == "error":
                # Deterministic child exception: no retry, and not a
                # worker death — the worker itself behaved, so the
                # breaker ignores it and the health gate counts it as a
                # clean outcome.
                self._note_outcome(False)
                payload = self._unwrap_traced(job, payload, key="type")
                results[job.spec] = self._error_result(
                    job.spec, payload.get("type", "Error"),
                    payload.get("message", ""), job.attempt + 1)
                stats.failed += 1
                if job.span is not None:
                    job.span.event("worker_error",
                                   type=payload.get("type", "Error"))
                    job.span.set(outcome="error").end()
            else:                         # "crash" | "hang"
                died_hanging = kind == "hang"
                if died_hanging:
                    stats.hangs += 1
                    self.counts["worker_hangs"] += 1
                else:
                    stats.crashes += 1
                    self.counts["worker_crashes"] += 1
                tripped = self.breaker.record_failure(job.key)
                if tripped:
                    self.counts["breaker_trips"] += 1
                if job.span is not None:
                    job.span.event("hang" if died_hanging else "crash",
                                   attempt=job.attempt + 1)
                    if tripped:
                        job.span.event("breaker_open", key=job.key)
                self._note_outcome(True)
                if died_hanging:
                    # A hang consumed its full wall budget; retrying
                    # risks consuming another — report and move on.
                    results[job.spec] = self._error_result(
                        job.spec, "Timeout",
                        f"worker exceeded the {self.config.wall_limit_s}s "
                        f"wall-clock limit and was killed",
                        job.attempt + 1)
                    stats.failed += 1
                    if job.span is not None:
                        job.span.set(outcome="Timeout").end()
                else:
                    allowed = self.breaker.allow(job.key)
                    if job.attempt < self.config.retries and allowed:
                        job.attempt += 1
                        stats.retried += 1
                        self.counts["retries"] += 1
                        job.ready_at = self.clock() + (
                            self.config.retry_backoff_s
                            * 2 ** (job.attempt - 1))
                        job.process = job.conn = job.deadline = None
                        if job.span is not None:
                            job.span.event(
                                "retry", attempt=job.attempt + 1,
                                backoff_s=self.config.retry_backoff_s
                                * 2 ** (job.attempt - 1))
                        pending.append(job)
                    else:
                        reason = ("circuit breaker opened" if not allowed
                                  else "retry budget exhausted")
                        results[job.spec] = self._error_result(
                            job.spec, "WorkerCrash",
                            f"worker died {job.attempt + 1} time(s) running "
                            f"{job.spec.label()} ({reason})",
                            job.attempt + 1)
                        stats.failed += 1
                        if job.span is not None:
                            job.span.set(outcome="WorkerCrash",
                                         reason=reason).end()
        return progressed

    def _unwrap_traced(self, job: _JobState, payload, key: str = "result"):
        """Undo the traced pipe-payload wrapping: adopt the worker's
        shipped spans onto the wave tracer and return the inner payload.
        Untraced jobs pass through untouched (old wire shape)."""
        if job.span is None or not isinstance(payload, dict):
            return payload
        spans = payload.pop("spans", None)
        if spans and self._tracer is not None:
            self._tracer.adopt(spans)
        if key == "result" and "result" in payload:
            return payload["result"]
        return payload

    def _check_job(self, job: _JobState):
        """``None`` while still running, else ``(kind, payload)``."""
        if job.conn.poll():
            try:
                message = job.conn.recv()
            except (EOFError, OSError):
                message = None
            self._reap(job)
            if isinstance(message, tuple) and len(message) == 2:
                return message
            return ("crash", None)
        if not job.process.is_alive():
            # Exited without (or racing) a message: one last poll.
            if job.conn.poll():
                return self._check_job(job)
            self._reap(job)
            return ("crash", None)
        if job.deadline is not None and self.clock() >= job.deadline:
            self._kill(job)
            return ("hang", None)
        return None

    def _reap(self, job: _JobState) -> None:
        try:
            job.process.join(timeout=5)
        except Exception:                              # pragma: no cover
            pass
        try:
            job.conn.close()
        except Exception:                              # pragma: no cover
            pass

    def _kill(self, job: _JobState) -> None:
        process = job.process
        if process is None:
            return
        try:
            process.terminate()
            process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        except Exception:                              # pragma: no cover
            pass
        try:
            job.conn.close()
        except Exception:                              # pragma: no cover
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def _error_result(spec, kind: str, message: str,
                      attempts: int) -> RunResult:
        """Structured failure in the Runner's error shape (never
        cached/memoized upstream)."""
        return RunResult(
            workload=spec.workload, mode=spec.mode, n_cmps=spec.n_cmps,
            exec_cycles=0, policy=spec.policy,
            error={"type": kind, "message": message, "attempts": attempts,
                   "spec": spec.label()})

    def stats(self) -> Dict[str, object]:
        """Counters + breaker/health state for ``/metrics`` re-export."""
        data: Dict[str, object] = dict(self.counts)
        data.update(workers=self.workers,
                    configured_workers=self.configured_workers,
                    degraded=int(self.degraded),
                    breaker=self.breaker.state_counts())
        return data

    def __repr__(self) -> str:
        return (f"<SupervisedPool workers={self.workers}/"
                f"{self.configured_workers} degraded={self.degraded} "
                f"counts={dict(self.counts)}>")
