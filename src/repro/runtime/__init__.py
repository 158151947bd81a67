"""Parallel-program runtime: operations, synchronization, tasks, executors.

Workloads are *operation-stream programs*: Python generators that yield the
ops in :mod:`repro.runtime.ops` (compute bursts, shared loads/stores,
barriers, locks, events...).  Each program is traced into an op-tape
(:mod:`repro.workloads.tape`) that the executors
(:mod:`repro.runtime.executor`) replay on a
:class:`~repro.machine.processor.Processor`.
The slipstream-aware A-stream executor lives in :mod:`repro.slipstream`.

Synchronization objects (:mod:`repro.runtime.sync`) play the role of the
paper's slipstream-aware parallel library (modified ANL macros): R-streams
execute them normally, A-streams skip them under A-R token control.
"""

from repro.runtime.ops import (Barrier, Compute, EventClear, EventSet,
                               EventWait, Input, Load, LockAcquire,
                               LockRelease, Output, Store)
from repro.runtime.sync import SyncBarrier, SyncEvent, SyncLock, SyncRegistry
from repro.runtime.task import TaskContext

__all__ = [
    "Barrier", "Compute", "EventClear", "EventSet", "EventWait", "Input",
    "Load", "LockAcquire", "LockRelease", "Output", "Store",
    "SyncBarrier", "SyncEvent", "SyncLock", "SyncRegistry", "TaskContext",
]
