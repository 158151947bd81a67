"""Node-side shared-L2 controller.

One :class:`L2Controller` per CMP node.  It owns the node's unified L2 and
the two processors' L1 tag arrays, and implements:

* the load/store request paths (L1 hit, L2 hit, or a coherence fetch through
  :class:`~repro.memory.protocol.CoherenceFabric`),
* **MSHR merging**: the shared L2 merges the two on-chip processors'
  requests for the same line ("The shared L2 cache ... merges their requests
  when appropriate"), which is also where the paper's *A-Late* category
  comes from,
* transparent-line visibility (a transparent copy is a miss for the
  R-stream),
* A-stream **exclusive prefetch** (skipped stores converted to non-binding
  ownership requests),
* eviction/writeback and replacement-hint generation,
* the **self-invalidation drain** that processes hinted lines at one line
  per ``si_drain_interval`` cycles when the R-stream reaches a
  synchronization point.

All request-classification bookkeeping (Figure 7 of the paper) is driven
from here, via an injected :class:`~repro.stats.classify.RequestClassifier`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set

from repro.config import MachineConfig
from repro.memory.cache import Cache, CacheLine, MODIFIED, SHARED
from repro.memory.protocol import (CoherenceFabric, EXCL, READ, TRANSPARENT,
                                   UPGRADE, FetchResult)
from repro.sim import Engine, Process, Resource, SimEvent, Timeout


class _Pending:
    """One outstanding miss (MSHR entry) for a line."""

    __slots__ = ("event", "kind", "role", "late_classified")

    def __init__(self, event: SimEvent, kind: str, role: str):
        self.event = event
        self.kind = kind          # read / excl / upgrade / transparent
        self.role = role          # 'A' or 'R'
        self.late_classified = False

    @property
    def grants_ownership(self) -> bool:
        return self.kind in (EXCL, UPGRADE)

    @property
    def stat_kind(self) -> str:
        """Classifier bucket ('read'/'excl') for this request kind."""
        return "excl" if self.kind in (EXCL, UPGRADE) else "read"


class L2Controller:
    """Shared-L2 controller for one CMP node."""

    def __init__(self, engine: Engine, config: MachineConfig, node_id: int,
                 fabric: CoherenceFabric, classifier=None):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.fabric = fabric
        #: capabilities of the protocol the fabric runs: gate upgrade
        #: generation, replacement hints, and sync-point self-invalidation
        self.caps = fabric.caps
        self.sync_si = self.caps.sync_self_invalidate
        self.classifier = classifier
        self.l2 = Cache(config.l2_size, config.l2_assoc, config.line_size,
                        name=f"l2[{node_id}]", on_evict=self._on_l2_evict,
                        policy=config.replacement_policy,
                        seed=config.seed + node_id)
        self.l1s: List[Cache] = [
            Cache(config.l1_size, config.l1_assoc, config.line_size,
                  name=f"l1[{node_id}.{p}]",
                  policy=config.replacement_policy,
                  seed=config.seed + 101 * node_id + p)
            for p in range(config.procs_per_cmp)]
        #: the shared L2 is a single-ported array: concurrent accesses from
        #: the two on-chip processors (and fills) queue here — the node-level
        #: contention that penalizes double mode ("A single task means no
        #: contention for L2 cache and network resources on the CMP node")
        self.l2_port = Resource(engine, f"l2port[{node_id}]")
        self._pending: Dict[int, _Pending] = {}
        self._si_pending: Set[int] = set()
        self._si_drainer: Optional[Process] = None
        #: observability spine probes + push-metric handles (all None when
        #: the machine was built without a spine / with metrics off)
        obs = engine.obs
        self.obs = obs
        self._p_si_inval = None if obs is None else obs.probe("si-inval")
        self._p_si_downgrade = (None if obs is None
                                else obs.probe("si-downgrade"))
        self._p_fill = None if obs is None else obs.probe("l2.fill")
        self._p_drain = None if obs is None else obs.probe("si.drain")
        if obs is not None and obs.metrics_on:
            self._metrics = obs.registry
            self._fetch_hist = obs.registry.histogram(
                "l2.fetch_cycles", node=node_id)
        else:
            self._metrics = None
            self._fetch_hist = None
        #: invariant-checker suite (None unless the machine was built with
        #: checking enabled; see repro.check)
        self.checker = fabric.checker
        if self.checker is not None:
            self.checker.register_controller(node_id, self)
        fabric.register_node(node_id, self)
        #: per-node A-fetch outcome counters (fed to the adaptive A-R
        #: controller; maintained regardless of the global classifier)
        self.a_outcomes = {"timely": 0, "late": 0, "only": 0}
        # statistics
        self.si_invalidated = 0
        self.si_downgraded = 0
        self.si_stale_hints = 0
        self.prefetches_issued = 0
        self.prefetches_dropped = 0
        #: fault-injection resilience counters: coherence-request NACK
        #: retries handled by this node, and watchdog escalations to
        #: guaranteed delivery (see CoherenceFabric._request_hop)
        self.net_retries = 0
        self.watchdog_trips = 0
        #: lines flash-invalidated at synchronization points (protocols
        #: with caps.sync_self_invalidate, e.g. "dls")
        self.sync_invalidations = 0

    # ------------------------------------------------------------------
    # Classification helpers (exactly-once per fill, via line flags)
    # ------------------------------------------------------------------
    def _note_stream_touch(self, line_addr: int, role: str) -> None:
        if self.classifier is not None and role == "A":
            self.classifier.on_a_touch(self.node_id, line_addr)

    def _note_r_use(self, line: CacheLine) -> None:
        """R-stream referenced a resident line; resolves an A fetch as Timely."""
        if line.fetcher_role == "A" and not line.used_by_r:
            line.used_by_r = True
            if not line.transparent:
                self.a_outcomes["timely"] += 1
                if self.classifier is not None:
                    self.classifier.on_a_fetch_timely(line.fetch_kind)

    def _note_line_lost(self, line: CacheLine) -> None:
        """Line leaves the cache (eviction or invalidation): an A fetch the
        R-stream never referenced becomes A-Only."""
        if line.fetcher_role == "A" and not line.used_by_r:
            self.a_outcomes["only"] += 1
            if self.classifier is not None:
                self.classifier.on_a_fetch_only(line.fetch_kind)
            line.used_by_r = True  # guard against double counting

    # ------------------------------------------------------------------
    # Fast paths used by the processor model (no simulated latency beyond
    # the 1-cycle op slot)
    # ------------------------------------------------------------------
    def on_l1_hit(self, line_addr: int, role: str) -> None:
        """Bookkeeping for a load satisfied by the processor's own L1."""
        self._note_stream_touch(line_addr, role)
        if role == "R":
            l2_line = self.l2.probe(line_addr)
            if l2_line is not None:
                self._note_r_use(l2_line)

    def try_fast_store(self, proc_idx: int, role: str, line_addr: int,
                       in_critical_section: bool) -> bool:
        """Store hit on an owned (M) line: completes without stalling."""
        if self.checker is not None:
            self.checker.on_store(self.node_id, role)
        line = self.l2.probe(line_addr)
        if line is None or line.state != MODIFIED:
            return False
        self._note_stream_touch(line_addr, role)
        self.l2.hits += 1
        self.l2._stamp += 1
        line.lru_stamp = self.l2._stamp
        if role == "R":
            self._note_r_use(line)
        self._complete_store(proc_idx, line, in_critical_section)
        return True

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load(self, proc_idx: int, role: str, line_addr: int,
             transparent: bool = False) -> Generator:
        """Blocking load of one line by processor ``proc_idx``.

        ``role`` is the requesting stream ('A' or 'R'); ``transparent`` asks
        for a transparent load (A-stream only; see Section 4.1).  Generator:
        ``yield from`` it inside a processor process.
        """
        self._note_stream_touch(line_addr, role)
        l1 = self.l1s[proc_idx]
        while True:
            # L1 hit: free beyond the processor's 1-cycle op slot.
            l1_line = l1.lookup(line_addr)
            if l1_line is not None:
                l2_line = self.l2.probe(line_addr)
                if l2_line is not None and role == "R":
                    self._note_r_use(l2_line)
                return
            # L2 lookup.
            l2_line = self.l2.lookup(line_addr)
            if l2_line is not None and self._visible(l2_line, role):
                yield self.l2_port.serve(self.config.l2_hit_cycles)
                if role == "R":
                    self._note_r_use(l2_line)
                l1.insert(line_addr, SHARED)
                return
            # Miss: merge with an outstanding request when possible.
            pending = self._pending.get(line_addr)
            if pending is not None:
                # An R request cannot merge with a pending TRANSPARENT
                # fetch (the fill will be A-visible only); it still waits
                # for the MSHR entry to clear and then retries — one
                # outstanding request per line, like a real MSHR.
                if role == "A" or pending.kind != TRANSPARENT:
                    self._classify_merge(pending, role)
                yield pending.event
                # Whether merged or not, re-run the lookup: the fill may
                # have landed (hit) or already been displaced (retry).
                continue
            # Issue our own fetch (the miss tag check occupies the L2).
            yield self.l2_port.serve(self.config.l2_hit_cycles)
            if line_addr in self._pending:
                # Another request for the line slipped in while we were
                # queued at the L2 port; go around and merge with it.
                continue
            kind = TRANSPARENT if transparent else READ
            entry = self._fetch_begin(line_addr, kind, role)
            completed = False
            start = self.engine.now
            try:
                result = yield from self.fabric.fetch(
                    self.node_id, line_addr, kind, role)
                completed = True
                if self._fetch_hist is not None:
                    self._fetch_hist.observe(self.engine.now - start)
            finally:
                self._fetch_finish(line_addr, entry, completed)
            # fetch_kind is pinned to the request (a migratory grant may
            # answer a read with M; it is still a read for Figure 7).
            self._fill(line_addr, result, role, fetch_kind="read",
                       already_late=entry.late_classified)
            l1.insert(line_addr, SHARED)
            return

    def _classify_merge(self, pending: "_Pending", role: str) -> None:
        """An R request merging with an in-flight A fetch is the paper's
        A-Late outcome (recorded once per fill)."""
        if role == "R" and pending.role == "A" \
                and not pending.late_classified:
            pending.late_classified = True
            self.a_outcomes["late"] += 1
            if self.classifier is not None:
                self.classifier.on_a_fetch_late(pending.stat_kind)

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def store(self, proc_idx: int, role: str, line_addr: int,
              in_critical_section: bool = False) -> Generator:
        """Blocking store of one line (requires L2 ownership).

        A-streams never call this — their stores are skipped or converted to
        :meth:`exclusive_prefetch` by the slipstream executor.
        """
        if self.checker is not None:
            self.checker.on_store(self.node_id, role)
        self._note_stream_touch(line_addr, role)
        while True:
            if self.try_fast_store(proc_idx, role, line_addr,
                                   in_critical_section):
                return
            # A store to a resident shared copy still *reads* that copy
            # (read-modify-write): resolve an A-stream fill as Timely
            # before the upgrade replaces the line's flags.
            l2_line = self.l2.probe(line_addr)
            if (role == "R" and l2_line is not None
                    and not l2_line.transparent):
                self._note_r_use(l2_line)
            # Miss (not present, only a transparent copy, or shared and in
            # need of an upgrade): merge with an in-flight ownership
            # request or issue our own.
            pending = self._pending.get(line_addr)
            if pending is not None:
                if pending.grants_ownership:
                    self._classify_merge(pending, role)
                yield pending.event
                continue
            # The miss tag check occupies the single-ported L2.
            yield self.l2_port.serve(self.config.l2_hit_cycles)
            if line_addr in self._pending:
                continue  # another request slipped in at the port
            self.l2.misses += 1
            has_shared_copy = (l2_line is not None
                               and l2_line.state == SHARED
                               and not l2_line.transparent
                               and self.l2.probe(line_addr) is l2_line)
            # Protocols without a sharer vector cannot ack an upgrade
            # (the home can't tell a sharer from a stranger): full GETX.
            kind = (UPGRADE if has_shared_copy and self.caps.upgrades
                    else EXCL)
            entry = self._fetch_begin(line_addr, kind, role)
            completed = False
            start = self.engine.now
            try:
                result = yield from self.fabric.fetch(
                    self.node_id, line_addr, kind, role)
                completed = True
                if self._fetch_hist is not None:
                    self._fetch_hist.observe(self.engine.now - start)
            finally:
                self._fetch_finish(line_addr, entry, completed)
            line = self._fill(line_addr, result, role, fetch_kind="excl",
                              already_late=entry.late_classified)
            self._complete_store(proc_idx, line, in_critical_section)
            return

    def _complete_store(self, proc_idx: int, line: CacheLine,
                        in_critical_section: bool) -> None:
        if in_critical_section:
            line.written_in_cs = True
        # Write-invalidate within the node: drop the sibling L1's copy and
        # keep (or install) our own.
        sibling = 1 - proc_idx
        self.l1s[sibling].invalidate(line.line_addr)
        self.l1s[proc_idx].insert(line.line_addr, SHARED)

    # ------------------------------------------------------------------
    # A-stream exclusive prefetch (skipped store -> ownership hint)
    # ------------------------------------------------------------------
    def exclusive_prefetch(self, line_addr: int) -> None:
        """Non-binding, non-blocking GETX issued on behalf of the A-stream.

        Fire-and-forget: the A-stream does not wait for it.  Dropped if the
        node already owns the line or a covering request is outstanding.
        """
        self._note_stream_touch(line_addr, "A")
        l2_line = self.l2.probe(line_addr)
        if l2_line is not None and l2_line.state == MODIFIED:
            self.prefetches_dropped += 1
            return
        pending = self._pending.get(line_addr)
        if pending is not None:
            self.prefetches_dropped += 1
            return
        def run() -> Generator:
            # Re-check at process start: a demand request may have
            # registered in the MSHR (or ownership arrived) since the
            # prefetch was spawned.  Counting happens here, after the
            # re-check, so dropped prefetches never appear as issued.
            line = self.l2.probe(line_addr)
            if line_addr in self._pending or (
                    line is not None and line.state == MODIFIED):
                self.prefetches_dropped += 1
                return
            self.prefetches_issued += 1
            if self.classifier is not None:
                self.classifier.on_a_fetch_issued("excl")
            kind = UPGRADE if (line is not None
                               and line.state == SHARED
                               and not line.transparent
                               and self.caps.upgrades) else EXCL
            result, late = yield from self._fetch(line_addr, kind, "A",
                                                  classify=False)
            self._fill(line_addr, result, "A", fetch_kind="excl",
                       already_late=late)

        Process(self.engine, run(), name=f"xpf-{self.node_id}-{line_addr:#x}")

    def read_prefetch(self, line_addr: int) -> None:
        """Non-binding, non-blocking GETS on behalf of the R-stream
        (pattern-forwarding replay; see repro.slipstream.forwarding).

        Dropped if a usable copy is resident or a request is outstanding.
        Uncounted in the Figure 7 classification (it is machinery under an
        extension flag, not an A- or demand-R request).
        """
        line = self.l2.probe(line_addr)
        if line is not None and not line.transparent:
            self.prefetches_dropped += 1
            return
        if line_addr in self._pending:
            self.prefetches_dropped += 1
            return

        def run() -> Generator:
            line = self.l2.probe(line_addr)
            if line_addr in self._pending or (
                    line is not None and not line.transparent):
                self.prefetches_dropped += 1
                return
            self.prefetches_issued += 1
            result, _late = yield from self._fetch(line_addr, READ, "R",
                                                   classify=False)
            self._fill(line_addr, result, "R")

        Process(self.engine, run(),
                name=f"rpf-{self.node_id}-{line_addr:#x}")

    # ------------------------------------------------------------------
    # Fetch/fill internals
    # ------------------------------------------------------------------
    def _fetch_begin(self, line_addr: int, kind: str, role: str,
                     classify: bool = True) -> _Pending:
        """Publish an MSHR entry for an outgoing coherence fetch.

        Callers run ``fabric.fetch`` themselves (so this helper's frame is
        not on the generator delegation chain — every engine event pays one
        ``send`` walk per level) and must pair this with
        :meth:`_fetch_finish` in a ``finally`` block.
        """
        event = SimEvent(self.engine)
        entry = _Pending(event, kind, role)
        self._pending[line_addr] = entry
        if classify and self.classifier is not None:
            if role == "A":
                self.classifier.on_a_fetch_issued(entry.stat_kind)
            else:
                self.classifier.on_r_miss(self.node_id, line_addr,
                                          entry.stat_kind)
        return entry

    def _fetch_finish(self, line_addr: int, entry: _Pending,
                      completed: bool) -> None:
        """Retire an MSHR entry and wake merged waiters.

        ``entry.late_classified`` afterwards reports whether an R-stream
        request merged with this (A-stream) miss while it was in flight —
        that fill must not later be classified A-Only.
        """
        if not completed and self.checker is not None:
            # Killed between grant and fill (end-of-run A-stream
            # retirement): the directory may register a copy that
            # never lands.
            self.checker.on_fetch_aborted(self.node_id, line_addr)
        if self._pending.get(line_addr) is entry:
            del self._pending[line_addr]
        entry.event.trigger()

    def _fetch(self, line_addr: int, kind: str, role: str,
               classify: bool = True) -> Generator:
        """Issue a coherence fetch and publish it as the line's MSHR entry.

        Returns ``(result, late)``.  Retained as the convenience wrapper
        for the non-hot paths (prefetches, tests); the demand load/store
        paths inline the begin/finish pair instead.
        """
        entry = self._fetch_begin(line_addr, kind, role, classify=classify)
        completed = False
        start = self.engine.now
        try:
            result = yield from self.fabric.fetch(
                self.node_id, line_addr, kind, role)
            completed = True
            if self._fetch_hist is not None:
                self._fetch_hist.observe(self.engine.now - start)
        finally:
            self._fetch_finish(line_addr, entry, completed)
        return result, entry.late_classified

    def _fill(self, line_addr: int, result: FetchResult, role: str,
              fetch_kind: Optional[str] = None,
              already_late: bool = False) -> CacheLine:
        # An in-place refill (e.g. the R-stream replacing a transparent
        # copy) displaces a previous fill without an eviction callback:
        # resolve that fill's classification before the flags are reset.
        displaced = self.l2.probe(line_addr)
        if displaced is not None:
            self._note_line_lost(displaced)
        line = self.l2.insert(line_addr, result.state)
        line.transparent = result.transparent
        if result.si_hint:
            self.apply_si_hint(line_addr, line=line)
        line.fetcher_role = role
        line.fetch_kind = fetch_kind or (
            "excl" if result.state == MODIFIED else "read")
        # An R fill needs no A-Timely/Only resolution; an A fill that an
        # R request already merged with was classified A-Late at merge time.
        line.used_by_r = role == "R" or already_late
        if self.checker is not None:
            self.checker.on_fill(self.node_id, line_addr, line)
        p = self._p_fill
        if p is not None and p.live:
            p(f"node{self.node_id}", f"line={line_addr:#x}",
              role=role, state=result.state,
              transparent=result.transparent)
        m = self._metrics
        if m is not None:
            m.counter("l2.fill", node=self.node_id, role=role,
                      state=result.state).inc()
        return line

    def _visible(self, line: CacheLine, role: str) -> bool:
        """Transparent copies are visible only to the A-stream."""
        return role == "A" or not line.transparent

    # ------------------------------------------------------------------
    # Remote-initiated operations (called by the fabric)
    # ------------------------------------------------------------------
    def apply_invalidate(self, line_addr: int) -> bool:
        """External invalidation.  Returns True if we held the line in M."""
        line = self.l2.invalidate(line_addr)
        for l1 in self.l1s:
            l1.invalidate(line_addr)
        self._si_pending.discard(line_addr)
        if line is None:
            return False
        self._note_line_lost(line)
        if self.checker is not None:
            self.checker.on_line_dropped(self.node_id, line_addr)
        return line.state == MODIFIED

    def apply_downgrade(self, line_addr: int) -> bool:
        """External downgrade (read intervention).  True if we held M."""
        line = self.l2.probe(line_addr)
        if line is None:
            return False
        had_m = line.state == MODIFIED
        self.l2.downgrade(line_addr)
        if self.checker is not None:
            self.checker.on_line_dropped(self.node_id, line_addr)
        return had_m

    def apply_si_hint(self, line_addr: int,
                      line: Optional[CacheLine] = None) -> None:
        """Record a self-invalidation hint from the directory."""
        if line is None:
            line = self.l2.probe(line_addr)
        if line is None or line.state != MODIFIED:
            self.si_stale_hints += 1
            if self.checker is not None:
                self.checker.on_si_apply(self.node_id, line_addr, False)
            return
        line.si_hint = True
        self._si_pending.add(line_addr)
        if self.checker is not None:
            self.checker.on_si_apply(self.node_id, line_addr, True)

    # ------------------------------------------------------------------
    # Sync-point self-invalidation (directoryless protocols)
    # ------------------------------------------------------------------
    def sync_self_invalidate(self) -> None:
        """Bulk-invalidate every clean line at a synchronization point.

        Protocols with ``caps.sync_self_invalidate`` (no sharer tracking
        at the home) recover coherence for shared data here: when a task
        on this node reaches a barrier / lock acquire / event wait, all
        potentially-stale clean copies are dropped, so post-sync reads
        re-fetch current data.  Safe for the data-race-free programs the
        workloads model.  Dirty (M) lines stay — the home tracks their
        owner and interventions keep them coherent.  Flash invalidation:
        tag-array work charged at zero simulated cycles, matching the
        one-cycle gang-clear valid-bit arrays such schemes assume.
        """
        stale = [line.line_addr for line in self.l2.resident_lines()
                 if line.state != MODIFIED
                 and line.line_addr not in self._pending]
        for line_addr in stale:
            self.apply_invalidate(line_addr)
        self.sync_invalidations += len(stale)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _on_l2_evict(self, victim: CacheLine) -> None:
        line_addr = victim.line_addr
        for l1 in self.l1s:  # inclusion
            l1.invalidate(line_addr)
        self._si_pending.discard(line_addr)
        self._note_line_lost(victim)
        if victim.state == MODIFIED:
            self.fabric.writeback(self.node_id, line_addr)
        elif self.caps.replacement_hints:
            self.fabric.replacement_hint(self.node_id, line_addr,
                                         victim.transparent)
        # else: silent clean eviction — the home never tracked the copy

    # ------------------------------------------------------------------
    # Self-invalidation drain (Section 4.2/4.3)
    # ------------------------------------------------------------------
    def start_si_drain(self) -> None:
        """Kick the asynchronous SI drain (R-stream reached a sync point).

        Hinted lines are processed at one per ``si_drain_interval`` cycles,
        overlapped with the barrier/unlock wait.  Lines written inside a
        critical section are invalidated (migratory); others are written
        back and downgraded to shared (producer-consumer).
        """
        if not self._si_pending:
            return
        if self._si_drainer is not None and not self._si_drainer.done:
            return  # drain already in progress; it will see the new lines
        self._si_drainer = Process(self.engine, self._drain_all(),
                                   name=f"si-drain[{self.node_id}]")

    def _drain_all(self) -> Generator:
        start = self.engine.now
        drained = 0
        while self._si_pending:
            # Drain in sorted batches (hints arriving mid-drain join the
            # next batch) instead of re-scanning the set per line.
            batch = sorted(self._si_pending)
            self._si_pending.difference_update(batch)
            drained += len(batch)
            yield from self._drain_lines(batch)
        p = self._p_drain
        if p is not None and p.live:
            dur = self.engine.now - start
            p(f"node{self.node_id}", f"lines={drained}",
              lines=drained, _dur=dur)

    def _drain_lines(self, batch) -> Generator:
        for line_addr in batch:
            yield Timeout(self.config.si_drain_interval)
            line = self.l2.probe(line_addr)
            if line is None or line.state != MODIFIED or not line.si_hint:
                self.si_stale_hints += 1
                continue
            line.si_hint = False
            if line.written_in_cs:
                self.si_invalidated += 1
                p = self._p_si_inval
                if p is not None and p.live:
                    p(f"node{self.node_id}", f"line={line_addr:#x}")
                removed = self.l2.invalidate(line_addr)
                for l1 in self.l1s:
                    l1.invalidate(line_addr)
                if removed is not None:
                    self._note_line_lost(removed)
                self.fabric.writeback(self.node_id, line_addr)
            else:
                self.si_downgraded += 1
                p = self._p_si_downgrade
                if p is not None and p.live:
                    p(f"node{self.node_id}", f"line={line_addr:#x}")
                self.l2.downgrade(line_addr)
                self.fabric.writeback_downgrade(self.node_id, line_addr)

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finalize_classification(self) -> None:
        """Resolve still-resident A-fetched-but-unused lines as A-Only."""
        if self.classifier is None:
            return
        for line in self.l2.resident_lines():
            if line.fetcher_role == "A" and not line.used_by_r:
                self.a_outcomes["only"] += 1
                self.classifier.on_a_fetch_only(line.fetch_kind)
                line.used_by_r = True
