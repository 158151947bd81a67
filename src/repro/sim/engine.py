"""Event queue and simulation clock.

The engine owns the simulated clock and a binary heap of pending callbacks.
Everything that happens in a simulation — a processor finishing a compute
burst, a directory controller freeing up, a network message arriving — is a
callback scheduled on this heap.  Higher-level abstractions (processes,
resources) are built on top of :meth:`Engine.schedule`.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

# Bound once at module level: schedule/run are the simulator's hottest
# paths, and a local/global name beats an attribute lookup per event.
_heappush = heapq.heappush
_heappop = heapq.heappop


class DeadlockError(RuntimeError):
    """Raised when the event heap drains while processes are still blocked.

    In a correctly-constructed simulation the heap only empties once every
    process has finished.  An empty heap with live processes means some
    process is waiting on an event nobody will ever trigger (e.g. a barrier
    missing a participant), which is always a modeling bug — surfacing it
    loudly makes tests much easier to debug.
    """

    def __init__(self, blocked: List[str]):
        self.blocked = list(blocked)
        detail = ", ".join(blocked) if blocked else "<unknown>"
        super().__init__(f"simulation deadlocked; blocked processes: {detail}")


class Engine:
    """Deterministic discrete-event scheduler.

    Time is an integer cycle count.  Callbacks scheduled for the same cycle
    run in the order they were scheduled (FIFO tie-break via a monotonically
    increasing sequence number), which keeps simulations reproducible.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq: int = 0
        #: Live processes, for deadlock diagnostics. Maintained by Process.
        self._live_processes: dict = {}
        self._running = False
        #: optional invariant-checker suite (see repro.check); None keeps
        #: every hook site in the simulator a single `is None` test
        self.checker = None
        #: optional fault injector (see repro.faults); same None contract
        self.faults = None
        #: optional observability spine (see repro.obs); same None contract
        #: — components capture probes from it at construction time
        self.obs = None

    def install_obs(self, obs):
        """Attach an observability spine (``repro.obs.Observability``).

        Like the checker and fault hooks, this must happen before the
        machine components are constructed — they capture ``engine.obs``
        (and their probes) at construction time.  Returns ``obs``.
        """
        self.obs = obs
        return obs

    def install_checker(self, checker) -> None:
        """Attach an invariant-checker suite (``repro.check.CheckerSuite``).

        Must be called before the machine components are constructed —
        the fabric, L2 controllers, and slipstream pairs capture the
        checker reference at construction time.
        """
        self.checker = checker

    def install_faults(self, injector) -> None:
        """Attach a fault injector (``repro.faults.FaultInjector``).

        Like :meth:`install_checker`, this must happen before the machine
        components are constructed — the network, fabric, processors, and
        slipstream pairs capture the injector reference at construction.
        """
        self.faults = injector

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (0 = later this cycle).

        ``delay`` must be a true ``int``: the clock is an integer cycle
        count, and silently truncating a float here would hide a modeling
        bug (a fractional latency) as a timing skew.  Rejecting at this
        edge keeps the hot path a bare add + heap push.
        """
        if type(delay) is not int:
            raise TypeError(f"delay must be an int cycle count, "
                            f"got {type(delay).__name__}: {delay!r}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        _heappush(self._heap, (self.now + delay, self._seq, callback))

    def schedule_at(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute cycle ``when`` (>= now)."""
        if type(when) is not int:
            raise TypeError(f"when must be an int cycle, "
                            f"got {type(when).__name__}: {when!r}")
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        _heappush(self._heap, (when, self._seq, callback))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Pop and run the next callback.  Returns False if the heap is empty."""
        if not self._heap:
            return False
        when, _seq, callback = _heappop(self._heap)
        self.now = when
        callback()
        return True

    def run(self, until: Optional[int] = None, check_deadlock: bool = True) -> int:
        """Run until the heap drains (or until cycle ``until``).

        Returns the final simulation time.  If the heap drains while
        processes are still alive and ``check_deadlock`` is set, raises
        :class:`DeadlockError`.
        """
        # The event loop is the single hottest loop in the repository, so
        # step() is inlined here with heap/heappop bound to locals.
        heap = self._heap
        heappop = _heappop
        self._running = True
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = max(self.now, until)
                    return self.now
                when, _seq, callback = heappop(heap)
                self.now = when
                callback()
        finally:
            self._running = False
        if self.checker is not None:
            # Natural drain (not an `until` stop): audit the quiescent
            # machine.  Off the hot path by construction.
            self.checker.on_drain(self.now)
        if check_deadlock and self._live_processes:
            blocked = [str(p) for p in self._live_processes.values()]
            raise DeadlockError(blocked)
        return self.now

    def pending_events(self) -> int:
        """Number of callbacks currently on the heap (for tests/diagnostics)."""
        return len(self._heap)
