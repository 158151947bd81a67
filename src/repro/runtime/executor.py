"""Drives a task's compiled op-tape on a processor (single/double mode).

:class:`TaskExecutor` is the conventional executor: every op is performed.
The slipstream R-stream executor subclasses it to add token insertion,
deviation checking, input forwarding, and self-invalidation kicks; the
A-stream executor (different op semantics entirely) lives in
:mod:`repro.slipstream.astream`.

An executor replays an :class:`~repro.workloads.tape.OpTape` of
``(opcode, int)`` steps in a tight loop: compute bursts, L1-hit loads and
owned-line fast stores are batched into local counters, the processor's
L1 probe and the controller's fast store are called directly, and only
misses and the generic (synchronization and I/O) ops reach a generator
— the controller's miss path or :meth:`TaskExecutor.dispatch`.  The
batched ops never yield to the engine, so no simulation state can change
between them, and their counters are committed before anything
externally visible happens.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.machine.processor import Processor
from repro.runtime import ops as op
from repro.runtime.ops import OP_COMPUTE, OP_LOAD, OP_STORE
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import TaskContext
from repro.sim import Process


class TaskExecutor:
    """Executes a task's ops one-for-one (conventional task)."""

    def __init__(self, processor: Processor, ctx: TaskContext, tape,
                 registry: SyncRegistry, name: Optional[str] = None,
                 tape_start: int = 0):
        self.processor = processor
        self.ctx = ctx
        #: the compiled OpTape this executor replays
        self.tape = tape
        self.registry = registry
        #: replay start step (used by recovery reforks; see seek_session)
        self.tape_start = tape_start
        self.name = name or f"task{ctx.task_id}({ctx.role})"
        self.session = 0          # completed sessions (barrier/event-waits)
        self.cs_depth = 0         # critical-section nesting
        self.process: Optional[Process] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Process:
        # The replay loop IS the process body, so every engine resume
        # reaches the waiting frame without trampolining through a wrapper.
        self.process = Process(self.processor.engine, self._replay(),
                               name=self.name)
        return self.process

    def _replay(self) -> Generator:
        """Consume compute + L1-hit + fast-store runs in a tight loop;
        only misses and generic ops reach the generators.

        Each load or store books one busy cycle and one op, takes the
        per-op fault-stall opportunity, then probes the L1 (loads) or
        tries the controller's fast store (stores).  A miss commits the
        batched counters, flushes the accumulated local time once, and
        runs the controller's miss path, charging its wait as stall.
        """
        tape = self.tape
        steps = tape.steps
        if self.tape_start:
            steps = steps[self.tape_start:]
        objs = tape.objs
        processor = self.processor
        engine = processor.engine
        ctrl = processor.ctrl
        proc_idx = processor.proc_idx
        breakdown = processor.breakdown
        l1_lookup = processor._l1.lookup
        try_fast_store = ctrl.try_fast_store
        charge = processor._charge
        dispatch = self.dispatch
        role = self.ctx.role
        # L1-hit bookkeeping is a no-op for every role this loop runs with
        # except 'R' (the A-stream has its own replay loop): skip the call
        # entirely for 'N' tasks.
        on_l1_hit = ctrl.on_l1_hit if role == "R" else None
        faults = processor._faults   # fixed for the run's duration
        # Batched counters: each hit-run op bumps cheap locals; they are
        # committed to the processor before anything externally visible (a
        # yield to the engine, or dispatch of a generic op).  `pend` is
        # both the pending busy cycles and the pending local-time cycles —
        # every batched op contributes equally to breakdown.busy and
        # processor._acc, so one local covers both.  A fault-injected
        # stall goes straight to processor._acc (see _maybe_stall) and is
        # summed with `pend` at the flush.
        pend = 0
        n_ops = n_loads = n_stores = 0
        for code, arg in steps:
            if code == OP_COMPUTE:
                pend += arg
            elif code == OP_LOAD:
                n_ops += 1
                n_loads += 1
                pend += 1
                if faults is not None:
                    processor._maybe_stall()
                if l1_lookup(arg) is not None:
                    if on_l1_hit is not None:
                        on_l1_hit(arg, role)
                else:
                    processor.ops += n_ops
                    processor.loads += n_loads
                    processor.stores += n_stores
                    breakdown.busy += pend
                    delay = processor._acc + pend
                    n_ops = n_loads = n_stores = 0
                    pend = 0
                    if delay:
                        processor._acc = 0
                        yield delay
                    begin = engine.now
                    yield from ctrl.load(proc_idx, role, arg)
                    charge("stall", engine.now - begin)
            elif code == OP_STORE:
                n_ops += 1
                n_stores += 1
                pend += 1
                if faults is not None:
                    processor._maybe_stall()
                in_cs = self.cs_depth > 0
                if not try_fast_store(proc_idx, role, arg, in_cs):
                    processor.ops += n_ops
                    processor.loads += n_loads
                    processor.stores += n_stores
                    breakdown.busy += pend
                    delay = processor._acc + pend
                    n_ops = n_loads = n_stores = 0
                    pend = 0
                    if delay:
                        processor._acc = 0
                        yield delay
                    begin = engine.now
                    yield from ctrl.store(proc_idx, role, arg,
                                          in_critical_section=in_cs)
                    charge("stall", engine.now - begin)
            else:
                processor.ops += n_ops
                processor.loads += n_loads
                processor.stores += n_stores
                breakdown.busy += pend
                processor._acc += pend
                n_ops = n_loads = n_stores = 0
                pend = 0
                yield from dispatch(objs[arg])
        processor.ops += n_ops
        processor.loads += n_loads
        processor.stores += n_stores
        breakdown.busy += pend
        processor._acc += pend
        yield from self._finish()

    def _finish(self) -> Generator:
        yield from self.processor.flush()
        self.processor.mark_finished()

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def dispatch(self, operation) -> Generator:
        """Perform one generic (synchronization or I/O) op."""
        kind = type(operation)
        if kind is op.Barrier:
            yield from self._on_barrier(operation)
        elif kind is op.LockAcquire:
            yield from self._on_lock_acquire(operation)
        elif kind is op.LockRelease:
            yield from self._on_lock_release(operation)
        elif kind is op.EventWait:
            yield from self._on_event_wait(operation)
        elif kind is op.EventSet:
            yield from self._on_event_set(operation)
        elif kind is op.EventClear:
            yield from self._on_event_clear(operation)
        elif kind is op.Input:
            yield from self._on_input(operation)
        elif kind is op.Output:
            yield from self._on_output(operation)
        else:
            raise TypeError(f"unknown operation {operation!r}")

    # ------------------------------------------------------------------
    # Default (conventional) semantics; slipstream executors override.
    # ------------------------------------------------------------------
    def _on_barrier(self, operation) -> Generator:
        barrier = self.registry.barrier(operation.bid)
        yield from self.processor.timed_wait(barrier.arrive(), "barrier")
        self.session += 1
        self._sync_point()

    def _on_lock_acquire(self, operation) -> Generator:
        lock = self.registry.lock(operation.lid)
        yield from self.processor.timed_wait(lock.acquire(self), "lock")
        self.cs_depth += 1
        self._sync_point()

    def _on_lock_release(self, operation) -> Generator:
        if self.cs_depth <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.cs_depth -= 1
        # Releases are globally visible: flush accumulated local time so
        # the hand-off happens at the right simulated instant.
        yield from self.processor.flush()
        self.registry.lock(operation.lid).release(self)
        self.processor.do_compute(1)

    def _on_event_wait(self, operation) -> Generator:
        event = self.registry.event(operation.eid)
        yield from self.processor.timed_wait(event.wait(), "barrier")
        self.session += 1
        self._sync_point()

    def _sync_point(self) -> None:
        """Acquire-side synchronization reached.  Protocols without
        sharer tracking (caps.sync_self_invalidate) drop this node's
        stale clean copies here; a no-op attribute test otherwise."""
        ctrl = self.processor.ctrl
        if ctrl.sync_si:
            ctrl.sync_self_invalidate()

    def _on_event_set(self, operation) -> Generator:
        yield from self.processor.flush()
        self.registry.event(operation.eid).set()
        self.processor.do_compute(1)

    def _on_event_clear(self, operation) -> Generator:
        yield from self.processor.flush()
        self.registry.event(operation.eid).clear()
        self.processor.do_compute(1)

    def _on_input(self, operation) -> Generator:
        self.processor.do_compute(operation.cycles)
        # Flush so a forwarded result (slipstream) is timestamped after
        # the operation's cost.
        yield from self.processor.flush()

    def _on_output(self, operation) -> Generator:
        self.processor.do_compute(operation.cycles)
        return
        yield  # pragma: no cover
