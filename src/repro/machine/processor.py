"""In-order processor timing model.

MIPSY-like: one instruction slot per cycle, blocking memory operations.
The processor holds the timing state and primitives executors drive
programs with:

* :meth:`do_compute` — private computation (accumulated, no event cost),
* :meth:`flush` — turn accumulated local time into simulated time,
* :meth:`timed_wait` — run a synchronization generator and charge the
  elapsed cycles to a breakdown category (barrier/lock/arsync).

Loads and stores have no method here: the executors' tape replay loops
(repro.runtime.executor, repro.slipstream.astream) probe the L1 through
``_l1``, book the op's busy cycle, take the ``_maybe_stall`` fault
opportunity and run the L2 controller's miss path inline, charging the
wait through :meth:`_charge`.

Cycle accounting follows Figure 6 of the paper: every op costs one *busy*
cycle; cycles a memory op spends waiting beyond that are *stall*; waits in
sync routines go to their own categories.

Implementation note — delay accumulation: consecutive compute cycles and
L1-hit ops are accumulated and flushed as a single engine timeout right
before the next globally-visible action (an L2/coherence miss or a sync
operation), which keeps the event count per simulated op near the minimum.
Two deliberate approximations follow from it: L1 probes and fast-path
stores to already-owned L2 lines observe node state up to ``acc`` cycles
early (bounded by the compute burst since the last flush), and the
sibling-L1 invalidation of a fast store lands equally early.  Both stay
within the node; cross-node interactions always happen at flushed time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import MachineConfig
from repro.memory.l2ctrl import L2Controller
from repro.sim import Engine, Timeout
from repro.stats.timebreakdown import TimeBreakdown


class Processor:
    """One processor of a CMP node."""

    def __init__(self, engine: Engine, config: MachineConfig,
                 ctrl: L2Controller, proc_idx: int,
                 name: Optional[str] = None):
        self.engine = engine
        self.config = config
        self.ctrl = ctrl
        self.proc_idx = proc_idx
        self.name = name or f"cpu[{ctrl.node_id}.{proc_idx}]"
        self.breakdown = TimeBreakdown()
        self._acc = 0  # accumulated local delay not yet turned into sim time
        self.finish_time: Optional[int] = None
        #: fault injector (None in fault-free builds; see repro.faults)
        self._faults = engine.faults
        #: this processor's private L1 (nodes build the controller before
        #: their processors); the replay loops probe it directly
        self._l1 = ctrl.l1s[proc_idx]
        #: observability probe mirroring non-zero breakdown charges as
        #: ``cpu.wait`` events (None without a spine; see repro.obs)
        obs = engine.obs
        self._p_wait = None if obs is None else obs.probe("cpu.wait")
        # statistics
        self.ops = 0
        self.loads = 0
        self.stores = 0
        self.fault_stalls = 0

    # ------------------------------------------------------------------
    # Local time accumulation
    # ------------------------------------------------------------------
    def flush(self) -> Generator:
        """Turn accumulated local delay into simulated time."""
        if self._acc:
            delay, self._acc = self._acc, 0
            yield Timeout(delay)

    def do_compute(self, cycles: int) -> None:
        self.breakdown.busy += cycles   # hot path: direct attribute bump
        self._acc += cycles

    def _maybe_stall(self) -> None:
        """Transient fault-injected CPU stall (one opportunity per mem op).

        The stall joins the accumulated local delay, so it is flushed
        before the op's globally-visible action, and is charged to the
        stall category rather than busy time.
        """
        stall = self._faults.cpu_stall(self.ctrl.node_id, self.proc_idx)
        if stall:
            self.fault_stalls += 1
            self._charge("stall", stall)
            self._acc += stall

    def _charge(self, category: str, cycles: int) -> None:
        """Book ``cycles`` against a wait category and mirror non-zero
        charges onto the spine as ``cpu.wait`` events."""
        self.breakdown.add(category, cycles)
        p = self._p_wait
        if p is not None and cycles and p.live:
            p(self.name, bucket=category, cycles=cycles)

    # ------------------------------------------------------------------
    # Synchronization waits
    # ------------------------------------------------------------------
    def timed_wait(self, wait_gen: Generator, category: str) -> Generator:
        """Run ``wait_gen`` and charge the elapsed cycles to ``category``."""
        yield from self.flush()
        start = self.engine.now
        result = yield from wait_gen
        self._charge(category, self.engine.now - start)
        return result

    def timed_waitable(self, waitable, category: str) -> Generator:
        """Wait on a bare waitable, charged to ``category``."""
        yield from self.flush()
        start = self.engine.now
        value = yield waitable
        self._charge(category, self.engine.now - start)
        return value

    def mark_finished(self) -> None:
        self.finish_time = self.engine.now
