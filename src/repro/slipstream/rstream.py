"""R-stream executor.

The R-stream executes the full task, exactly like a conventional task, plus
the slipstream duties from Sections 3.2 and 4.3:

* insert A-R tokens when entering (local policies) or exiting (global
  policies) each barrier/event-wait,
* check for a deviated A-stream at session ends and trigger recovery,
* complete ``Input`` operations and signal each one to the A-stream,
* kick the self-invalidation drain when reaching a synchronization point
  (barrier entry and lock release), when SI is enabled.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.machine.processor import Processor
from repro.runtime.executor import TaskExecutor
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import TaskContext
from repro.slipstream.pair import SlipstreamPair


class RStreamExecutor(TaskExecutor):
    """Full-task executor with slipstream pair management."""

    def __init__(self, processor: Processor, ctx: TaskContext, tape,
                 registry: SyncRegistry, pair: SlipstreamPair,
                 name: Optional[str] = None):
        super().__init__(processor, ctx, tape, registry,
                         name=name or f"task{ctx.task_id}(R)")
        self.pair = pair

    # ------------------------------------------------------------------
    # Session-boundary synchronization
    # ------------------------------------------------------------------
    def _session_sync(self, wait_gen: Generator, category: str) -> Generator:
        pair = self.pair
        # Flush accumulated local time first: token insertion and the SI
        # drain are globally visible and must happen when the R-stream
        # *reaches* the synchronization point, not earlier.
        yield from self.processor.flush()
        pair.on_r_sync_enter()
        if pair.prefetcher is not None:
            pair.prefetcher.on_r_barrier_enter()
        if pair.si_enabled:
            self.processor.ctrl.start_si_drain()
        yield from self.processor.timed_wait(wait_gen, category)
        self._sync_point()
        if pair.deviated():
            pair.request_recovery()
        pair.on_r_sync_exit()
        self.session += 1

    def _on_barrier(self, operation) -> Generator:
        barrier = self.registry.barrier(operation.bid)
        yield from self._session_sync(barrier.arrive(), "barrier")

    def _on_event_wait(self, operation) -> Generator:
        event = self.registry.event(operation.eid)
        yield from self._session_sync(event.wait(), "barrier")

    # ------------------------------------------------------------------
    # Critical sections: unlock is a self-invalidation point
    # ------------------------------------------------------------------
    def _on_lock_release(self, operation) -> Generator:
        yield from super()._on_lock_release(operation)
        if self.pair.si_enabled:
            self.processor.ctrl.start_si_drain()

    # ------------------------------------------------------------------
    # Global operations
    # ------------------------------------------------------------------
    def _on_input(self, operation) -> Generator:
        yield from super()._on_input(operation)
        self.pair.r_complete_input()
