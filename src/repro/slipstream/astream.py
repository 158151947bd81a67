"""A-stream executor: the reduced task (Sections 3.1 and 4.1).

Reduction rules applied to the op stream:

* **Synchronization is skipped.**  Barriers and event-waits become A-R
  token consumptions (the A-stream never enters the global routine); lock
  acquire/release only track critical-section depth; event set/clear are
  dropped.
* **Shared-memory stores are not committed.**  The store still occupies
  its pipeline slot (1 busy cycle).  If the A-stream is in the same session
  as its R-stream and outside critical sections, the store is converted to
  a non-binding exclusive prefetch (Section 3.3); otherwise it is skipped
  outright.
* **Loads execute** (the A-stream needs the values to make forward
  progress).  With self-invalidation support enabled, a load issued one or
  more sessions ahead of the R-stream, or inside a critical section, is a
  *transparent load* (Section 4.1); otherwise it is a normal load.
* **Global operations**: ``Input`` waits until the R-stream has
  performed the same Input; ``Output`` is skipped.

Loads and stores are applied inline by the tape replay loop
(:meth:`AStreamExecutor._replay`); the synchronization and I/O ops go
through the ``_on_*`` overrides below.  The executor aborts
cooperatively (at op boundaries) when the pair requests recovery, so it
never dies holding protocol resources.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.machine.processor import Processor
from repro.runtime.executor import TaskExecutor
from repro.runtime.ops import OP_COMPUTE, OP_LOAD, OP_STORE
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import TaskContext
from repro.slipstream.pair import SlipstreamPair
from repro.sim import Timeout


class AStreamExecutor(TaskExecutor):
    """Reduced-task executor."""

    def __init__(self, processor: Processor, ctx: TaskContext, tape,
                 registry: SyncRegistry, pair: SlipstreamPair,
                 name: Optional[str] = None, tape_start: int = 0):
        super().__init__(processor, ctx, tape, registry,
                         name=name or f"task{ctx.task_id}(A)",
                         tape_start=tape_start)
        self.pair = pair
        self._input_seq = pair.a_input_seq_base
        #: fault injector (None in fault-free builds; see repro.faults)
        self._faults = processor.engine.faults
        # statistics
        self.stores_skipped = 0
        self.stores_converted = 0
        self.transparent_loads = 0
        self.corruptions = 0

    # ------------------------------------------------------------------
    # Main loop: like TaskExecutor's, plus cooperative abort.
    # ------------------------------------------------------------------
    def _replay(self) -> Generator:
        """Tape replay with the A-stream's reduction rules inlined.

        Hook order: a transparent load is counted (and shown to the
        checker) before the L1 probe, and the pattern log records the
        line whether the probe hits or not.  The abort check runs at
        every step; that is sufficient for cooperative recovery because
        ``abort_requested`` can only flip while this generator is
        suspended at a yield.  A converted store is a fire-and-forget
        exclusive prefetch: one busy cycle, a flush, and the request.
        """
        tape = self.tape
        steps = tape.steps
        if self.tape_start:
            steps = steps[self.tape_start:]
        objs = tape.objs
        pair = self.pair
        processor = self.processor
        engine = processor.engine
        ctrl = processor.ctrl
        proc_idx = processor.proc_idx
        breakdown = processor.breakdown
        l1_lookup = processor._l1.lookup
        # For role 'A', on_l1_hit only feeds the fetch classifier; with no
        # classifier installed it is a no-op — skip the call entirely.
        on_l1_hit = ctrl.on_l1_hit if ctrl.classifier is not None else None
        charge = processor._charge
        dispatch = self.dispatch
        checker = engine.checker
        # Loop invariants (all fixed for the run's duration: tl_enabled is
        # set at pair construction, the pattern log is installed by the
        # driver before executors start, the fault injector before machine
        # assembly).
        faults = processor._faults
        tl_enabled = pair.tl_enabled
        pattern_log = pair.pattern_log
        # Batched counters, exactly as in TaskExecutor._replay: committed
        # before every yield or generic-op dispatch.  When the abort flag
        # fires the locals are always zero (the flag can only flip while
        # this generator is suspended, and every yield is preceded by a
        # commit), but the return path commits anyway for safety.
        pend = 0
        n_ops = n_loads = 0
        for code, arg in steps:
            if pair.abort_requested:
                processor.ops += n_ops
                processor.loads += n_loads
                breakdown.busy += pend
                processor._acc += pend
                return
            if code == OP_COMPUTE:
                pend += arg
            elif code == OP_LOAD:
                transparent = tl_enabled and (
                    pair.a_session > pair.r_session or self.cs_depth > 0)
                if transparent:
                    self.transparent_loads += 1
                    if checker is not None:
                        checker.on_transparent_issue(pair, self.cs_depth)
                if pattern_log is not None:
                    pattern_log.record(pair.a_session, arg)
                n_ops += 1
                n_loads += 1
                pend += 1
                if faults is not None:
                    processor._maybe_stall()
                if l1_lookup(arg) is not None:
                    if on_l1_hit is not None:
                        on_l1_hit(arg, "A")
                else:
                    processor.ops += n_ops
                    processor.loads += n_loads
                    breakdown.busy += pend
                    delay = processor._acc + pend
                    n_ops = n_loads = 0
                    pend = 0
                    if delay:
                        processor._acc = 0
                        yield delay
                    begin = engine.now
                    yield from ctrl.load(proc_idx, "A", arg,
                                         transparent=transparent)
                    charge("stall", engine.now - begin)
            elif code == OP_STORE:
                if pair.a_session == pair.r_session and self.cs_depth == 0:
                    # Converted to a non-binding exclusive prefetch.
                    self.stores_converted += 1
                    processor.ops += n_ops + 1
                    processor.loads += n_loads
                    breakdown.busy += pend + 1
                    delay = processor._acc + pend + 1
                    n_ops = n_loads = 0
                    pend = 0
                    processor._acc = 0
                    yield delay
                    ctrl.exclusive_prefetch(arg)
                else:
                    self.stores_skipped += 1
                    pend += 1   # executed but not committed
            else:
                processor.ops += n_ops
                processor.loads += n_loads
                breakdown.busy += pend
                processor._acc += pend
                n_ops = n_loads = 0
                pend = 0
                yield from dispatch(objs[arg])
        processor.ops += n_ops
        processor.loads += n_loads
        breakdown.busy += pend
        processor._acc += pend
        yield from self._finish()

    # ------------------------------------------------------------------
    # Synchronization: token consumption instead of the real routine
    # ------------------------------------------------------------------
    def _consume_token(self) -> Generator:
        if self._faults is not None and self._faults.astream_corrupt(
                self.pair.task_id, self.pair.a_session):
            yield from self._wander()
            return
        yield from self.processor.timed_wait(
            self.pair.a_consume_token(), "arsync")
        self.session = self.pair.a_session

    def _wander(self) -> Generator:
        """Injected control deviation: the A-stream leaves the task's path.

        A corrupted A-stream executes junk instead of reaching its sync
        point, so it never consumes another token and its session count
        freezes.  The R-stream's deviation check then sees the growing lag
        and drives the real recovery path (kill at an op boundary, refork
        at the R-stream's session).  The loop stays cooperative so the
        kill can land, and also exits on end-of-run shutdown.
        """
        self.corruptions += 1
        pair = self.pair
        if pair.obs is not None:
            pair.obs.publish("corrupt", f"pair{pair.task_id}",
                             f"a_session={pair.a_session}",
                             a_session=pair.a_session)
        while not pair.abort_requested and not pair.shutdown:
            self.processor.do_compute(64)
            yield from self.processor.flush()

    def _on_barrier(self, operation) -> Generator:
        yield from self._consume_token()

    def _on_event_wait(self, operation) -> Generator:
        yield from self._consume_token()

    def _on_lock_acquire(self, operation) -> Generator:
        self.cs_depth += 1
        self.processor.do_compute(1)
        return
        yield  # pragma: no cover

    def _on_lock_release(self, operation) -> Generator:
        if self.cs_depth > 0:
            self.cs_depth -= 1
        self.processor.do_compute(1)
        return
        yield  # pragma: no cover

    def _on_event_set(self, operation) -> Generator:
        self.processor.do_compute(1)
        return
        yield  # pragma: no cover

    def _on_event_clear(self, operation) -> Generator:
        self.processor.do_compute(1)
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Global operations
    # ------------------------------------------------------------------
    def _on_input(self, operation) -> Generator:
        """Wait (under A-R sync accounting) for the R-stream's Input."""
        seq = self._next_input_seq()
        event = self.pair.input_event(seq)
        yield from self.processor.timed_wait(self._poll_input(event),
                                             "arsync")
        if event.triggered:
            self.processor.do_compute(1)

    def _poll_input(self, event) -> Generator:
        # Poll rather than block: a deviated A-stream must stay killable
        # even while waiting for a forwarded input.
        while not event.triggered and not self.pair.abort_requested:
            yield Timeout(self.pair.config.input_forward_cycles)

    def _next_input_seq(self) -> int:
        seq = self._input_seq
        self._input_seq = seq + 1
        return seq

    def _on_output(self, operation) -> Generator:
        self.processor.do_compute(1)
        return
        yield  # pragma: no cover
