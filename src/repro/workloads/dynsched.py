"""DynSched: synthetic dynamically-scheduled workload.

Not one of the paper's nine benchmarks — this kernel exists to exercise the
slipstream machinery the scientific kernels never trigger (Section 3.1's
"dynamic scheduling" discussion and Section 3.2's deviation recovery):

* **divergent mode** (default): tasks grab chunks from a shared counter.
  An A-stream would read a different counter value than its R-stream, so
  with ``divergent=True`` the program emits a deliberately different (and
  longer) chunk sequence for the A-stream in selected rounds.  The R-stream
  then reaches the session end first, the deviation check fires, and the
  A-stream is killed and reforked — the recovery path.

* **input-forwarding mode** (``forward_decisions=True``): the paper's
  recommended treatment — the A-stream skips the scheduling decision and
  waits for the R-stream's choice, here via the ``Input`` forwarding
  channel.  No divergence, no recovery.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.memory.address import SharedAllocator
from repro.runtime import ops as op
from repro.runtime.task import TaskContext
from repro.workloads.base import ELEMS_PER_LINE, Workload, block_range


class DynSched(Workload):
    """Synthetic dynamic-scheduling kernel (recovery exerciser)."""

    name = "dynsched"
    paper_size = "(synthetic; not in the paper)"

    def __init__(self, chunks: int = 32, chunk_lines: int = 16,
                 rounds: int = 4, work_per_line: int = 40,
                 divergent: bool = True, forward_decisions: bool = False,
                 diverge_rounds=(1, 2)):
        self.chunks = chunks
        self.chunk_lines = chunk_lines
        self.rounds = rounds
        self.work_per_line = work_per_line
        self.divergent = divergent
        self.forward_decisions = forward_decisions
        self.diverge_rounds = frozenset(diverge_rounds)
        # Divergent mode emits role-dependent op streams (the A-stream
        # wanders onto extra chunks), so each role gets its own tape: a
        # shared one would erase the very deviation this kernel exists to
        # provoke.
        self.role_independent = self.forward_decisions or not self.divergent
        self.data = None
        self.counter = None

    def allocate(self, allocator: SharedAllocator, n_tasks: int,
                 task_home: Callable[[int], int]) -> None:
        self.data = allocator.alloc(
            "dyn.data", (self.chunks, self.chunk_lines * ELEMS_PER_LINE))
        self.counter = allocator.alloc("dyn.counter", (ELEMS_PER_LINE,))

    # ------------------------------------------------------------------
    def _process_chunk(self, chunk: int) -> Iterator:
        for line in range(self.chunk_lines):
            yield op.Load(self.data.addr(chunk, line * ELEMS_PER_LINE))
            yield op.Compute(self.work_per_line)
            yield op.Store(self.data.addr(chunk, line * ELEMS_PER_LINE))

    def program(self, ctx: TaskContext) -> Iterator:
        my_chunks = block_range(self.chunks, ctx.n_tasks, ctx.task_id)
        for round_idx in range(self.rounds):
            if self.forward_decisions:
                # Paper's treatment: the scheduling decision is made once
                # (by the R-stream) and forwarded; both streams then
                # process the same chunks.
                yield op.Input(("dyn.sched", ctx.task_id, round_idx),
                               cycles=60)
                for chunk in range(*my_chunks):
                    yield from self._process_chunk(chunk)
            else:
                # Grab chunks via the shared counter under a lock.
                for chunk in range(*my_chunks):
                    yield op.LockAcquire("dyn.sched")
                    yield op.Load(self.counter.addr(0))
                    yield op.Compute(4)
                    yield op.Store(self.counter.addr(0))
                    yield op.LockRelease("dyn.sched")
                    if (self.divergent and ctx.is_astream
                            and round_idx in self.diverge_rounds):
                        # The A-stream read a different (stale) counter
                        # value: it wanders off onto someone else's chunks
                        # and does extra work — a control-flow deviation.
                        wrong = (chunk + self.chunks // 2) % self.chunks
                        yield from self._process_chunk(wrong)
                        yield from self._process_chunk(
                            (wrong + 1) % self.chunks)
                    yield from self._process_chunk(chunk)
            yield op.Barrier("dyn.round")
