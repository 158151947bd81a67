"""Operation vocabulary for task programs.

A task program is a generator yielding these operations.  Shared-memory
behaviour is explicit (``Load``/``Store`` carry byte addresses into the
shared segment); everything private — register arithmetic, stack traffic,
loop control — is folded into ``Compute`` bursts, matching the paper's
observation that SPMD kernels compute addresses and control flow from
private data.

The slipstream A-stream executor reinterprets several of these ops (skips
synchronization, drops or converts stores, waits for the R-stream's
``Input``), so the *same program* serves as R-stream and A-stream, exactly
as in the paper.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Compiled-tape opcodes (see repro.workloads.tape).  The three hot ops
# that never suspend on their fast path get dense small codes; everything
# else (synchronization, I/O) is replayed through the original Op object.
# Defined here — not in the tape module — so the executor's replay loop
# can import them without touching the workloads package.
# ----------------------------------------------------------------------
OP_COMPUTE, OP_LOAD, OP_STORE, OP_GENERIC = 0, 1, 2, 3


class Op:
    """Base class (for isinstance checks in tests)."""

    __slots__ = ()


class Compute(Op):
    """Execute ``cycles`` of private computation."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError("compute burst cannot be negative")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class Load(Op):
    """Read shared memory at byte address ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"Load({self.addr:#x})"


class Store(Op):
    """Write shared memory at byte address ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:
        return f"Store({self.addr:#x})"


class Barrier(Op):
    """Global barrier.  Ends a *session* (A-R synchronization point)."""

    __slots__ = ("bid",)

    def __init__(self, bid="main"):
        self.bid = bid

    def __repr__(self) -> str:
        return f"Barrier({self.bid!r})"


class LockAcquire(Op):
    """Acquire a global lock (enter a critical section)."""

    __slots__ = ("lid",)

    def __init__(self, lid):
        self.lid = lid

    def __repr__(self) -> str:
        return f"LockAcquire({self.lid!r})"


class LockRelease(Op):
    """Release a global lock (leave a critical section)."""

    __slots__ = ("lid",)

    def __init__(self, lid):
        self.lid = lid

    def __repr__(self) -> str:
        return f"LockRelease({self.lid!r})"


class EventWait(Op):
    """Wait for a flag event.  Ends a session, like a barrier."""

    __slots__ = ("eid",)

    def __init__(self, eid):
        self.eid = eid

    def __repr__(self) -> str:
        return f"EventWait({self.eid!r})"


class EventSet(Op):
    """Set a flag event (wakes all waiters).  Skipped by A-streams."""

    __slots__ = ("eid",)

    def __init__(self, eid):
        self.eid = eid

    def __repr__(self) -> str:
        return f"EventSet({self.eid!r})"


class EventClear(Op):
    """Clear a flag event.  Skipped by A-streams."""

    __slots__ = ("eid",)

    def __init__(self, eid):
        self.eid = eid

    def __repr__(self) -> str:
        return f"EventClear({self.eid!r})"


class Input(Op):
    """A once-only global operation whose result the program consumes
    (system call, I/O read, shared allocation).

    The R-stream performs it (``cycles`` of cost); the A-stream waits for
    the R-stream's result, forwarded through a shared location (Section
    3.2: "After the operation is completed by the R-stream, its return
    value is passed to the A-stream").
    """

    __slots__ = ("key", "cycles")

    def __init__(self, key, cycles: int = 100):
        self.key = key
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Input({self.key!r})"


class Output(Op):
    """A once-only global side effect (I/O write).  R-streams pay
    ``cycles``; A-streams skip it entirely."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int = 100):
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Output({self.cycles})"
