"""Per-node A/R pair state: tokens, sessions, input forwarding, recovery.

One :class:`SlipstreamPair` exists per CMP node in slipstream mode.  It
owns the token-bucket semaphore between the two streams, the session
counters used for same-session decisions (exclusive-prefetch conversion,
transparent-load policy) and deviation detection, the input-forwarding
channel, and the recovery machinery that reforks a deviated A-stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.config import MachineConfig
from repro.slipstream.arsync import ARSyncPolicy
from repro.sim import Engine, Process, SimEvent, SimSemaphore, Timeout


class SlipstreamPair:
    """Shared state between an R-stream and its companion A-stream."""

    def __init__(self, engine: Engine, config: MachineConfig, task_id: int,
                 policy: ARSyncPolicy, tl_enabled: bool = False,
                 si_enabled: bool = False,
                 spawn_astream: Optional[Callable[..., object]] = None):
        self.engine = engine
        self.config = config
        self.task_id = task_id
        self.policy = policy
        #: Section 4.1: the A-stream issues transparent loads
        self.tl_enabled = tl_enabled
        #: Section 4.2: self-invalidation hints + sync-point drain
        self.si_enabled = si_enabled
        #: callback ``spawn_astream(pair, tape_start)`` that creates and
        #: starts a new A-stream executor; wired by the mode runner after
        #: pair construction
        self.spawn_astream = spawn_astream
        #: the A-stream's compiled OpTape (set by the mode runner): the
        #: initial A-stream and every refork replay it
        self.tape = None
        self.tokens = SimSemaphore(engine, policy.initial_tokens)
        # session bookkeeping
        self.r_session = 0       # sessions completed by the R-stream
        self.a_session = 0       # sessions the A-stream has *entered past*
        self.a_reached = 0       # sync points the A-stream has reached
        # input forwarding (R -> A)
        self._input_events: Dict[int, SimEvent] = {}
        self.r_input_seq = 0
        # recovery
        self.abort_requested = False
        self.shutdown = False    # set by the run supervisor at end of run
        self.recoveries = 0
        self.a_executor = None   # current AStreamExecutor (set by runner)
        #: every A-stream executor ever spawned for this pair (reforks
        #: included), so end-of-run statistics cover pre-recovery work
        self.a_executor_history = []
        #: input-forwarding sequence a freshly spawned A-stream starts at
        self.a_input_seq_base = 0
        self._recovering = False
        #: observability spine, when the engine has one installed; the
        #: slipstream layer publishes recovery/adaptation events and the
        #: A-R session-lead counter track through it
        obs = engine.obs
        self.obs = obs
        self._p_lead = None if obs is None else obs.probe("ar.lead")
        #: optional AdaptiveController (wired by the mode runner)
        self.adaptive = None
        #: optional PatternLog + PatternPrefetcher (forwarding extension)
        self.pattern_log = None
        self.prefetcher = None
        #: tokens owed back to the bucket (an adaptive tighten that could
        #: not retire a token immediately absorbs the next insertion)
        self.token_debt = 0
        #: invariant-checker suite, when the engine has one installed
        self.checker = engine.checker
        if self.checker is not None:
            self.checker.register_pair(self)
        #: fault injector, when the engine has one installed
        self.faults = engine.faults
        #: graceful degradation: True while the pair runs demoted to
        #: conventional (A-processor idle) execution
        self.degraded = False
        #: optional DegradationController (wired by the mode runner)
        self.degradation = None
        # statistics
        self.tokens_inserted = 0
        self.a_token_waits = 0
        self.tokens_lost = 0

    # ------------------------------------------------------------------
    # Session query (the checker's transparent-load predicate)
    # ------------------------------------------------------------------
    @property
    def a_sessions_ahead(self) -> int:
        return self.a_session - self.r_session

    # ------------------------------------------------------------------
    # Token protocol (Figure 3)
    # ------------------------------------------------------------------
    def insert_token(self) -> None:
        if self.degraded:
            return  # no A-stream to feed while demoted
        if self.token_debt > 0:
            self.token_debt -= 1
            return
        if self.faults is not None and self.faults.token_loss(self.task_id):
            # Lost in flight: never released and never booked as inserted,
            # so the checker's conservation ledger stays exact.  The
            # A-stream simply waits for the next session's token (or, if
            # none comes, lags into deviation and gets reforked).
            self.tokens_lost += 1
            return
        self.tokens_inserted += 1
        self.tokens.release()
        if self.checker is not None:
            self.checker.on_token_insert(self)

    def on_r_sync_enter(self) -> None:
        """R-stream is entering a barrier/event-wait routine."""
        if self.policy.inserts_on_entry:
            self.insert_token()

    def on_r_sync_exit(self) -> None:
        """R-stream finished the barrier/event-wait routine."""
        self.r_session += 1
        self._emit_lead()
        if not self.policy.inserts_on_entry:
            self.insert_token()
        if self.adaptive is not None:
            self.adaptive.on_session_end()
        if self.degradation is not None:
            self.degradation.on_session_end()
        if self.prefetcher is not None:
            self.prefetcher.on_r_session_enter(self.r_session)

    def a_consume_token(self) -> Generator:
        """A-stream reached a sync point: consume a token (may block).

        Generator; the caller charges the elapsed time to the A-R sync
        category.
        """
        self.a_reached += 1
        if not self.tokens.try_acquire():
            self.a_token_waits += 1
            yield self.tokens.acquire()
        self.a_session += 1
        self._emit_lead()
        if self.checker is not None:
            self.checker.on_token_consume(self)

    def _emit_lead(self) -> None:
        """Publish the A-stream's session lead as a Perfetto counter track."""
        p = self._p_lead
        if p is not None and p.live:
            p(f"pair{self.task_id}",
              _counter={"lead": self.a_session - self.r_session,
                        "r_session": self.r_session,
                        "a_session": self.a_session})

    # ------------------------------------------------------------------
    # Input forwarding (Section 3.2, global operations)
    # ------------------------------------------------------------------
    def input_event(self, seq: int) -> SimEvent:
        event = self._input_events.get(seq)
        if event is None:
            event = SimEvent(self.engine)
            self._input_events[seq] = event
        return event

    def r_complete_input(self) -> None:
        """R-stream performed Input #seq; release the A-stream's wait."""
        event = self.input_event(self.r_input_seq)
        self.r_input_seq += 1
        if not event.triggered:
            event.trigger()

    # ------------------------------------------------------------------
    # Deviation detection and recovery (Section 3.2)
    # ------------------------------------------------------------------
    def deviated(self) -> bool:
        """Software deviation check, evaluated when the R-stream reaches
        the end of a session: the A-stream is deviated if it lags by at
        least ``deviation_lag_sessions`` sessions (see MachineConfig for
        why the default grace is one session, not the paper's zero)."""
        if self.degraded:
            return False  # no A-stream to deviate while demoted
        lag = self.r_session - self.a_reached
        return lag >= self.config.deviation_lag_sessions

    def request_recovery(self) -> None:
        """Kill the A-stream (cooperatively) and refork it at the
        R-stream's current position.  Runs asynchronously; the R-stream
        does not block."""
        if self._recovering or self.degraded or self.spawn_astream is None:
            return
        self._recovering = True
        self.recoveries += 1
        self.abort_requested = True
        if self.obs is not None:
            self.obs.publish("recovery", f"pair{self.task_id}",
                             f"r_session={self.r_session} "
                             f"a_reached={self.a_reached}",
                             r_session=self.r_session,
                             a_reached=self.a_reached)
        old = self.a_executor

        def supervise() -> Generator:
            if old is not None and old.process is not None \
                    and not old.process.done:
                yield old.process  # join: the A-stream exits at an op boundary
            # Task re-creation cost.
            yield Timeout(self.config.recovery_fork_cycles)
            self._recovering = False
            if self.shutdown:
                return
            if self.degradation is not None \
                    and self.degradation.on_recovery(self.r_session):
                return  # demoted instead of reforked
            self.respawn_astream()

        Process(self.engine, supervise(), name=f"recover[{self.task_id}]")

    def respawn_astream(self) -> None:
        """(Re)create the A-stream at the R-stream's current session.

        Shared by deviation recovery and by re-promotion after graceful
        degradation: seeks the A-stream's tape to the R-stream's session
        (a precomputed O(1) lookup), realigns the input-forwarding
        sequence, resets the token bucket to the policy's initial depth,
        and spawns the executor.
        """
        target = self.r_session
        tape_start, self.a_input_seq_base = self.tape.seek_session(target)
        self.tokens.drain()
        self.tokens.release(self.policy.initial_tokens)
        self.a_session = target
        self.a_reached = target
        self.abort_requested = False
        self.a_executor = self.spawn_astream(self, tape_start)
        if self.checker is not None:
            self.checker.on_refork(self)
