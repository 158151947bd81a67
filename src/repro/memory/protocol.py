"""Coherence fabric: directory transactions with Table 1 timing.

This module implements the invalidate-based fully-mapped directory protocol
the paper simulates, as *transaction generators* that the node-side L2
controller runs inline in the requesting processor's process.  A transaction
walks the message path of the real protocol, charging:

* ``bus_time`` for each L2 <-> DC hop,
* DC occupancy (a FIFO :class:`~repro.sim.Resource` per node) with the
  Table 1 service times (``pi_local_dc``/``pi_remote_dc``/``ni_local_dc``/
  ``ni_remote_dc``),
* network port occupancy + ``net_time`` transit for each network hop,
* ``mem_time`` for each DRAM access at the home.

With no contention this yields exactly the paper's 170-cycle local and
290-cycle remote clean-miss latencies (asserted in the test suite).

Directory entries are guarded per line, so transactions on the same line
serialize, as with a real directory's busy bit.  Cache evictions update the
directory metadata synchronously (the timing of the writeback is charged
asynchronously); interventions that race with an eviction fall back to a
memory fetch, which is how real protocols resolve the same race.

Section 4 support: transparent loads (:meth:`CoherenceFabric.fetch` with
``kind='transparent'``), the future-sharer list, and self-invalidation
hints delivered either directly to an exclusive owner or piggybacked on a
read-exclusive reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.config import MachineConfig
from repro.memory import cache as cachemod
from repro.memory.address import AddressSpace
from repro.memory.directory import (EXCLUSIVE, SHARED, UNCACHED,
                                    DirectoryEntry, DirectoryState)
from repro.memory.network import Network
from repro.memory.proto import table_by_name
from repro.memory.proto.engine import ProtocolEngine
from repro.memory.proto.table import Capabilities, Event
from repro.sim import Engine, Process, Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.l2ctrl import L2Controller

#: request kinds accepted by :meth:`CoherenceFabric.fetch`
READ = "read"          # GETS
EXCL = "excl"          # GETX (read-exclusive)
UPGRADE = "upgrade"    # ownership upgrade, requester already shares
TRANSPARENT = "transparent"  # A-stream transparent load

#: request kind -> protocol-table event
_KIND_EVENT = {READ: Event.GETS, EXCL: Event.GETX,
               UPGRADE: Event.UPG, TRANSPARENT: Event.GETT}


class FetchResult:
    """Outcome of a coherence transaction, as seen by the requesting L2.

    A plain slotted class (not a dataclass): one is allocated per miss, so
    construction cost is on the hot path.
    """

    __slots__ = ("state", "transparent", "si_hint", "upgraded", "local")

    def __init__(self, state: str, transparent: bool = False,
                 si_hint: bool = False, upgraded: bool = False,
                 local: bool = False):
        #: state to install the line in ('S' or 'M')
        self.state = state
        #: fill is a transparent (A-visible-only) copy
        self.transparent = transparent
        #: directory piggybacked a self-invalidation hint on the reply
        self.si_hint = si_hint
        #: the transparent request was upgraded to a normal load
        self.upgraded = upgraded
        #: the home node was the requester itself (local miss)
        self.local = local

    def __repr__(self) -> str:
        return (f"FetchResult(state={self.state!r}, "
                f"transparent={self.transparent}, si_hint={self.si_hint}, "
                f"upgraded={self.upgraded}, local={self.local})")


class CoherenceFabric:
    """Distributed directory + interconnect for one simulated machine."""

    def __init__(self, engine: Engine, config: MachineConfig,
                 space: AddressSpace):
        self.engine = engine
        self.config = config
        self.space = space
        #: fault injector, if one was installed before machine assembly
        self.faults = engine.faults
        #: observability spine (repro.obs), if one was installed before
        #: machine assembly; probes are captured here so the emit sites
        #: stay a `is None` test plus a `live` check
        obs = engine.obs
        self.obs = obs
        self._p_txn = None if obs is None else obs.probe("txn")
        self._p_migratory = None if obs is None else obs.probe("migratory")
        self._p_intervention = (None if obs is None
                                else obs.probe("intervention"))
        self._p_si_hint = None if obs is None else obs.probe("si-hint")
        #: name of the protocol this fabric runs (MachineConfig.protocol)
        self.protocol_name = config.protocol
        #: table interpreter (repro.memory.proto); None keeps the
        #: hand-written dir-inv generators as a differential oracle
        #: (config validation pins proto_engine=False to dir-inv)
        if config.proto_engine:
            self._proto: Optional[ProtocolEngine] = ProtocolEngine(
                table_by_name(config.protocol), self)
            self.caps = self._proto.caps
        else:
            self._proto = None
            self.caps = Capabilities()
        #: invariant-checker suite, if one was installed on the engine
        #: before the machine was assembled (see repro.check); attached
        #: after `caps` so the checker can gate its predicates on them
        self.checker = engine.checker
        if self.checker is not None:
            self.checker.attach_fabric(self)
        self.directory = DirectoryState(engine)
        self.network = Network(
            engine, config.n_cmps, config.net_time,
            config.port_data_occupancy, config.port_ctrl_occupancy)
        self.dcs: List[Resource] = [
            Resource(engine, f"dc[{i}]") for i in range(config.n_cmps)]
        self._nodes: Dict[int, "L2Controller"] = {}
        #: when False, the directory never generates self-invalidation
        #: hints (transparent loads still work; Figure 10's middle bar)
        self.si_enabled = True
        #: migratory-sharing optimization (an extension in the spirit of
        #: the paper's Section 5 pointers): a read of a line with a
        #: migratory ownership history is granted *exclusive*, saving the
        #: reader's follow-up upgrade
        self.migratory_enabled = False
        #: ownership transfers a line needs before it is deemed migratory
        self.migratory_threshold = 2
        # statistics
        self.transactions = 0
        self.interventions = 0
        self.intervention_races = 0
        self.invalidations_sent = 0
        self.si_hints_sent = 0
        self.transparent_replies = 0
        self.upgraded_transparent = 0
        self.migratory_grants = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_node(self, node_id: int, controller: "L2Controller") -> None:
        self._nodes[node_id] = controller

    def node(self, node_id: int) -> "L2Controller":
        return self._nodes[node_id]

    # ------------------------------------------------------------------
    # Main request path
    # ------------------------------------------------------------------
    def fetch(self, node: int, line: int, kind: str,
              role: str = "R") -> Generator:
        """Full coherence transaction for a miss at ``node``.

        Generator (``yield from`` it); returns a :class:`FetchResult`.
        ``kind`` is one of ``read``/``excl``/``upgrade``/``transparent``;
        ``role`` is ``'R'`` or ``'A'`` (the requesting stream).
        """
        if kind not in (READ, EXCL, UPGRADE, TRANSPARENT):
            raise ValueError(f"unknown request kind {kind!r}")
        self.transactions += 1
        p = self._p_txn
        if p is not None and p.live:  # skip f-string building on the hot path
            p(f"node{node}", f"{kind} line={line:#x} role={role}",
              kind=kind, role=role)
        config = self.config
        home = self.space.home_of_line(line)
        local = home == node

        # L2 -> DC hop at the requester.  (Bare int yields schedule the
        # resume directly, skipping a Timeout allocation per hop.)
        yield config.bus_time
        if local:
            yield self.dcs[node].serve(config.pi_local_dc_time)
        else:
            yield self.dcs[node].serve(config.pi_remote_dc_time)
            if self.faults is not None and config.fault_net_drop_rate > 0.0:
                yield from self._request_hop(node, home)
            else:
                # Fault-free fast path: skip the _request_hop frame (every
                # event inside the transfer pays one `send` walk per
                # delegation level).
                yield from self.network.transfer(node, home, data=False)
            yield self.dcs[home].serve(config.ni_local_dc_time)

        # Serialize on the line's directory entry.
        guard = self.directory.guard(line)
        yield guard.acquire()
        checker = self.checker
        if checker is not None:
            checker.on_txn_begin(node, line, kind, role)
        completed = False
        try:
            # Directory-side dispatch, inlined from the former _at_home
            # wrapper so its frame is off the delegation chain.  Any
            # R-stream request reaching the directory consumes that node's
            # future-sharer bit (Section 4.2).
            if role == "R":
                self.directory.reset_future_sharer(line, node)
            entry = self.directory.entry(line)
            proto = self._proto
            if proto is not None:
                result = yield from proto.dispatch(
                    node, home, line, entry, _KIND_EVENT[kind], role)
            elif kind == READ:
                result = yield from self._read_at_home(node, home, line,
                                                       entry)
            elif kind == TRANSPARENT:
                result = yield from self._transparent_at_home(node, home,
                                                              line, entry)
            else:  # EXCL and UPGRADE share the ownership path.
                result = yield from self._excl_at_home(node, home, line,
                                                       entry, kind)
            if checker is not None:
                checker.on_txn_end(node, line, kind, role, result)
            completed = True
        finally:
            if not completed and checker is not None:
                checker.on_txn_aborted(node, line)
            guard.release()

        # Reply back to the requester.  Every reply is charged as a data
        # message — a deliberate simplification (upgrade acks are smaller
        # in reality, but rare enough not to earn a message class here).
        if not local:
            yield from self.network.transfer(home, node, data=True)
            yield self.dcs[node].serve(config.ni_remote_dc_time)
        yield config.bus_time
        result.local = local
        return result

    def _request_hop(self, node: int, home: int) -> Generator:
        """Deliver a coherence *request* message ``node -> home``.

        This is the only hop the fault layer may drop: the request has not
        yet reached the directory, so losing it corrupts no protocol state
        — it is exactly a late first attempt.  A drop surfaces at the
        requester as a NACK after a round-trip detection delay; the
        requester retries with bounded exponential backoff.  A watchdog
        (``fault_net_max_retries`` attempts or ``fault_net_watchdog``
        cycles, whichever first) escalates to guaranteed delivery, so
        forward progress holds even at drop rate 1.0.
        """
        faults = self.faults
        if faults is not None and self.config.fault_net_drop_rate > 0.0:
            config = self.config
            deadline = self.engine.now + config.fault_net_watchdog
            attempt = 0
            while (attempt < config.fault_net_max_retries
                   and self.engine.now < deadline
                   and faults.net_drop(node, home, attempt)):
                # NACK: round-trip detection + exponential backoff.  The
                # controller at `node` handles the NACK (retry bookkeeping
                # is charged to that node's L2 controller).
                ctrl = self._nodes.get(node)
                if ctrl is not None:
                    ctrl.net_retries += 1
                backoff = min(config.fault_net_backoff_base << min(attempt, 16),
                              config.fault_net_backoff_cap)
                attempt += 1
                yield 2 * config.net_time + backoff
            if attempt and (attempt >= config.fault_net_max_retries
                            or self.engine.now >= deadline):
                ctrl = self._nodes.get(node)
                if ctrl is not None:
                    ctrl.watchdog_trips += 1
        yield from self.network.transfer(node, home, data=False)

    # ------------------------------------------------------------------
    # Directory-side actions (run while holding the line guard; dispatch
    # is inlined in fetch())
    # ------------------------------------------------------------------
    def _read_at_home(self, node: int, home: int, line: int,
                      entry: DirectoryEntry) -> Generator:
        config = self.config
        if entry.state == EXCLUSIVE and entry.owner != node:
            if (self.migratory_enabled
                    and entry.migrations >= self.migratory_threshold):
                # Migratory grant: hand the reader exclusive ownership in
                # one transaction (it is about to write anyway).
                self.migratory_grants += 1
                p = self._p_migratory
                if p is not None and p.live:
                    p(f"node{node}", f"line={line:#x}")
                yield from self._intervene(home, line, entry,
                                           invalidate=True)
                entry.set_exclusive(node)
                return FetchResult(state=cachemod.MODIFIED)
            # Intervention: pull the dirty copy out of the owner's cache.
            yield from self._intervene(home, line, entry, invalidate=False)
            entry.add_sharer(node)
            return FetchResult(state=cachemod.SHARED)
        if entry.state == EXCLUSIVE and entry.owner == node:
            # Raced with our own writeback; serve from memory.
            entry.clear()
        yield config.mem_time
        entry.add_sharer(node)
        return FetchResult(state=cachemod.SHARED)

    def _excl_at_home(self, node: int, home: int, line: int,
                      entry: DirectoryEntry, kind: str) -> Generator:
        config = self.config
        if entry.state == EXCLUSIVE:
            if entry.owner == node:
                # Already owner (raced upgrade); just confirm.
                return FetchResult(state=cachemod.MODIFIED)
            yield from self._intervene(home, line, entry, invalidate=True)
        elif entry.state == SHARED:
            others = sorted(entry.sharers - {node})
            if others:
                yield from self._invalidate_sharers(home, line, others)
            needs_data = kind == EXCL or node not in entry.sharers
            if needs_data:
                yield config.mem_time
        else:  # UNCACHED
            yield config.mem_time
        entry.set_exclusive(node)
        si_hint = (self.si_enabled and
                   bool(self.directory.future_sharers_other_than(line, node)))
        if si_hint and self.checker is not None:
            self.checker.on_si_hint(line, node)
        return FetchResult(state=cachemod.MODIFIED, si_hint=si_hint)

    def _transparent_at_home(self, node: int, home: int, line: int,
                             entry: DirectoryEntry) -> Generator:
        """Section 4.1: transparent load.

        Exclusive line: reply with the (possibly stale) memory copy, do not
        disturb the owner, record the requester as a future sharer, and send
        the owner a self-invalidation hint.  Non-exclusive: upgrade to a
        normal load; the requester becomes both sharer and future sharer.
        """
        config = self.config
        self.directory.add_future_sharer(line, node)
        if entry.state == EXCLUSIVE and entry.owner != node:
            owner = entry.owner
            self.transparent_replies += 1
            yield config.mem_time
            # The owner may have written the line back while memory was
            # being read; only hint a still-standing exclusive owner.
            if (self.si_enabled and entry.state == EXCLUSIVE
                    and entry.owner == owner):
                self._send_si_hint(home, owner, line)
            return FetchResult(state=cachemod.SHARED, transparent=True)
        # shared / uncached / (degenerate: we are the owner) -> normal load
        self.upgraded_transparent += 1
        if entry.state == EXCLUSIVE and entry.owner == node:
            entry.clear()
        yield config.mem_time
        entry.add_sharer(node)
        return FetchResult(state=cachemod.SHARED, upgraded=True)

    # ------------------------------------------------------------------
    # Remote-cache operations
    # ------------------------------------------------------------------
    def _intervene(self, home: int, line: int, entry: DirectoryEntry,
                   invalidate: bool) -> Generator:
        """Pull a dirty line from its exclusive owner back to the home.

        ``invalidate`` distinguishes a read-exclusive intervention (owner's
        copy is invalidated) from a read intervention (owner is downgraded
        to sharer).  If the owner has concurrently written the line back
        (eviction race), fall back to plain memory access.
        """
        config = self.config
        owner = entry.owner
        self.interventions += 1
        p = self._p_intervention
        if p is not None and p.live:
            p(f"node{owner}", f"line={line:#x} invalidate={invalidate}",
              invalidate=invalidate)
        yield from self.network.transfer(home, owner, data=False)
        yield self.dcs[owner].serve(config.ni_remote_dc_time)
        yield config.bus_time  # DC -> L2 at the owner
        controller = self._nodes[owner]
        had_line = (controller.apply_invalidate(line) if invalidate
                    else controller.apply_downgrade(line))
        yield config.l2_hit_cycles  # owner L2 array access
        yield config.bus_time  # L2 -> DC at the owner
        yield self.dcs[owner].serve(config.pi_remote_dc_time)
        yield from self.network.transfer(owner, home, data=True)
        yield config.mem_time  # sharing/ownership writeback at home
        if not had_line:
            self.intervention_races += 1
        # The owner may have concurrently written the line back (eviction
        # or self-invalidation race): the writeback already updated the
        # entry, so only transition if we are still the exclusive owner's
        # intervention.
        if entry.state == EXCLUSIVE and entry.owner == owner:
            if invalidate:
                entry.clear()
            else:
                entry.downgrade_owner_to_sharer()

    def _invalidate_sharers(self, home: int, line: int,
                            sharers: List[int]) -> Generator:
        """Fan out invalidations to all sharers in parallel; wait for acks."""
        config = self.config
        self.invalidations_sent += len(sharers)

        def one(sharer: int) -> Generator:
            # A home-node sharer skips the network but still pays two DC
            # occupancies (deliver + ack): the controller really does
            # handle both ends of a local invalidation.
            if sharer != home:
                yield from self.network.transfer(home, sharer, data=False)
            yield self.dcs[sharer].serve(config.ni_remote_dc_time)
            self._nodes[sharer].apply_invalidate(line)
            if sharer != home:
                yield from self.network.transfer(sharer, home, data=False)
            yield self.dcs[home].serve(config.ni_remote_dc_time)

        children = [Process(self.engine, one(s), name=f"inv-{line:#x}-{s}")
                    for s in sharers]
        for child in children:
            yield child  # join

    # ------------------------------------------------------------------
    # Self-invalidation hints (asynchronous control messages)
    # ------------------------------------------------------------------
    def _send_si_hint(self, home: int, owner: int, line: int) -> None:
        if self.checker is not None:
            self.checker.on_si_hint(line, owner)
        self.si_hints_sent += 1
        p = self._p_si_hint
        if p is not None and p.live:
            p(f"node{owner}", f"line={line:#x}")
        controller = self._nodes[owner]
        if owner == home:
            self.engine.schedule(self.config.bus_time,
                                 lambda: controller.apply_si_hint(line))
            return
        self.network.post_transfer(home, owner, data=False)
        arrival = self.config.port_ctrl_occupancy + self.config.net_time
        self.engine.schedule(arrival, lambda: controller.apply_si_hint(line))

    # ------------------------------------------------------------------
    # Eviction / writeback paths (metadata now, timing asynchronous)
    # ------------------------------------------------------------------
    def writeback(self, node: int, line: int) -> None:
        """Dirty eviction (or SI invalidation of a dirty line): the home's
        entry is cleared and the writeback's occupancy is charged without
        blocking the evicting node."""
        entry = self.directory.entry(line)
        if self._proto is not None:
            self._proto.apply(node, line, entry, Event.WB)
        elif entry.state == EXCLUSIVE and entry.owner == node:
            entry.clear()
        self.writebacks += 1
        self._post_writeback_traffic(node, line)
        if self.checker is not None:
            self.checker.on_writeback(node, line)

    def writeback_downgrade(self, node: int, line: int) -> None:
        """Self-invalidation of a producer-consumer line: data goes back to
        memory and the owner keeps a shared copy."""
        entry = self.directory.entry(line)
        if self._proto is not None:
            self._proto.apply(node, line, entry, Event.WB_DG)
        elif entry.state == EXCLUSIVE and entry.owner == node:
            entry.downgrade_owner_to_sharer()
        self.writebacks += 1
        self._post_writeback_traffic(node, line)
        if self.checker is not None:
            self.checker.on_writeback(node, line)

    def replacement_hint(self, node: int, line: int,
                         transparent: bool) -> None:
        """Clean eviction: tell the home so the sharer vector and the
        future-sharer bit stay in sync (cheap control message)."""
        entry = self.directory.peek(line)
        if entry is not None:
            if self._proto is not None:
                self._proto.apply(node, line, entry, Event.REPL,
                                  transparent=transparent)
            elif not transparent:
                entry.remove_sharer(node)
        self.directory.reset_future_sharer(line, node)
        home = self.space.home_of_line(line)
        self.network.post_transfer(node, home, data=False)
        if self.checker is not None:
            self.checker.on_replacement_hint(node, line)

    def _post_writeback_traffic(self, node: int, line: int) -> None:
        home = self.space.home_of_line(line)
        self.directory.reset_future_sharer(line, node)
        if home == node:
            self.dcs[node].post(self.config.pi_local_dc_time)
        else:
            self.dcs[node].post(self.config.pi_remote_dc_time)
            self.network.post_transfer(node, home, data=True)
