"""Op-tape compilation: trace a program once, replay it cheaply.

A workload ``program(ctx)`` is a Python generator that allocates one
``Op`` object per operation and recomputes every shared-array byte
address.  Every run traces each task's program once, before the engine
starts, into a flat, immutable tape of primitive ints, which the
executors replay (it is their only execution path):

* ``(OP_COMPUTE, cycles)`` — adjacent ``Compute`` bursts are coalesced at
  compile time (zero-cycle bursts vanish).  Legal because a compute burst
  only bumps two counters and never yields to the engine, so no
  simulation state can change between adjacent bursts.
* ``(OP_LOAD, line)`` / ``(OP_STORE, line)`` — the byte address is
  pre-translated to its cache-line number via ``space.line_of``, which is
  what every consumer (L1 probe, L2 controller, pattern log) actually
  wants.
* ``(OP_GENERIC, index)`` — synchronization and I/O ops keep their
  original ``Op`` object (in :attr:`OpTape.objs`) and replay through the
  executor's ``dispatch``, so barrier/lock/event/Input/Output semantics —
  and every checker/fault/obs hook they trigger — run there.

:meth:`OpTape.seek_session` positions a deviation-recovery refork at the
R-stream's session in O(1).

For SPMD kernels the stream is a pure function of ``(task_id,
n_tasks)`` — the very property the paper's A-stream accuracy argument
rests on — so one tape serves the R-stream, the A-stream and every
refork.  A workload whose stream depends on the role
(``Workload.role_independent = False``: ``DynSched`` in divergent mode
deliberately emits different ops for the A-stream) is traced once per
role instead; :class:`TapeCache` makes that choice.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

from repro.runtime import ops as op
from repro.runtime.ops import OP_COMPUTE, OP_GENERIC, OP_LOAD, OP_STORE
from repro.runtime.task import ROLE_NORMAL, TaskContext


class OpTape:
    """One task's compiled operation stream (immutable after compile)."""

    __slots__ = ("steps", "objs", "_boundaries", "_total_inputs")

    def __init__(self, steps: List[Tuple[int, int]], objs: Tuple,
                 boundaries: List[Tuple[int, int]], total_inputs: int):
        self.steps = steps
        self.objs = objs
        # Session boundaries, collected by compile_program: entry k holds
        # (step index just past the k-th Barrier/EventWait, Input ops
        # consumed up to that point).
        self._boundaries = boundaries
        self._total_inputs = total_inputs

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def n_sessions(self) -> int:
        """Session boundaries (Barrier/EventWait ops) on the tape."""
        return len(self._boundaries)

    def seek_session(self, sessions: int) -> Tuple[int, int]:
        """Position for a replay starting after ``sessions`` boundaries.

        Returns ``(step_index, inputs_skipped)``: the step just past the
        ``sessions``-th Barrier/EventWait, and the number of ``Input`` ops
        before it (so the reforked A-stream's input-forwarding sequence
        stays aligned).  Seeking past the last boundary lands at the end
        of the tape.
        """
        if sessions <= 0:
            return 0, 0
        if sessions <= len(self._boundaries):
            return self._boundaries[sessions - 1]
        return len(self.steps), self._total_inputs


def compile_program(program: Iterator,
                    line_of: Callable[[int], int]) -> OpTape:
    """Trace ``program`` to exhaustion into an :class:`OpTape`.

    ``line_of`` is the run's address-to-line translation
    (``AddressSpace.line_of``); it is applied once per Load/Store here so
    the replay loop never touches byte addresses.
    """
    steps: List[Tuple[int, int]] = []
    append = steps.append
    objs: List = []
    boundaries: List[Tuple[int, int]] = []
    inputs = 0
    pending = 0          # coalesced compute cycles not yet emitted
    for operation in program:
        kind = type(operation)
        if kind is op.Compute:
            pending += operation.cycles
            continue
        if pending:
            append((OP_COMPUTE, pending))
            pending = 0
        if kind is op.Load:
            append((OP_LOAD, line_of(operation.addr)))
        elif kind is op.Store:
            append((OP_STORE, line_of(operation.addr)))
        else:
            append((OP_GENERIC, len(objs)))
            objs.append(operation)
            if kind is op.Barrier or kind is op.EventWait:
                boundaries.append((len(steps), inputs))
            elif kind is op.Input:
                inputs += 1
    if pending:
        append((OP_COMPUTE, pending))
    return OpTape(steps, tuple(objs), boundaries, inputs)


class TapeCache:
    """Per-run tape store: each program is traced exactly once.

    A role-independent workload (``Workload.role_independent``) gets one
    tape per task, traced with a role-neutral context and shared by
    every role: the conventional task, or the R-stream, the A-stream and
    every recovery refork.  Any other workload gets one tape per (task,
    role), traced with that role's context, so the A-stream replays the
    path its own role takes.
    """

    def __init__(self, workload, n_tasks: int,
                 line_of: Callable[[int], int]):
        self.workload = workload
        self.n_tasks = n_tasks
        self.line_of = line_of
        self._role_independent = workload.role_independent
        self._tapes: Dict[Tuple[int, str], OpTape] = {}

    def tape_for(self, task_id: int, role: str) -> OpTape:
        if self._role_independent:
            role = ROLE_NORMAL
        key = (task_id, role)
        tape = self._tapes.get(key)
        if tape is None:
            ctx = TaskContext(task_id, self.n_tasks, role=role)
            tape = compile_program(self.workload.program(ctx), self.line_of)
            self._tapes[key] = tape
        return tape
