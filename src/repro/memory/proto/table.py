"""Declarative coherence-protocol tables.

A protocol is a :class:`ProtocolTable`: a set of :class:`Row`s mapping
``(stable directory state, Event) -> (guard, actions, commits, reply,
next state)``, over explicit :class:`Msg`/:class:`Event` enums.  The
generic interpreter (:mod:`repro.memory.proto.engine`) walks the rows at
run time, charging the Table-1 timing resources of each action; the
static lint (:mod:`repro.memory.proto.lint`)
walks them offline and proves exhaustiveness, reachability, action
legality, and freedom from stall cycles.

The split within a row mirrors how a real directory controller behaves
while its busy bit is held:

* **guard** — a predicate over the entry and requester that selects the
  row (e.g. ``owner_other``); the last row for a ``(state, event)`` pair
  must be unguarded (the lint enforces it).
* **actions** — the timed part: memory reads, interventions,
  invalidation fan-outs.  These may suspend the transaction (the
  interpreter ``yield from``s them), which is exactly the *transient
  state* window of the protocol; each row names the transients it passes
  through (``via``) so the lint can reason about them even though the
  stable ``entry.state`` field is never overwritten mid-transaction
  (concurrent writebacks race-check against the stable state, as real
  protocols do against a busy bit + saved state).
* **commits** — metadata micro-ops applied atomically after the timed
  actions (``add_sharer``, ``set_exclusive``, ...).  Datagram events
  (writebacks, replacement hints) have *only* commits: they never
  suspend and never reply.
* **reply** — what the requester is told to install, and where the data
  payload comes from (memory, the previous owner, or the requester's own
  copy); the lint rejects data replies without a data source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.memory.directory import EXCLUSIVE, SHARED, UNCACHED


class Event(str, Enum):
    """Coherence events a directory entry can receive."""

    GETS = "GETS"        # read miss (shared copy)
    GETX = "GETX"        # read-exclusive miss (ownership + data)
    UPG = "UPG"          # ownership upgrade (requester already shares)
    GETT = "GETT"        # transparent load (Section 4.1, A-stream only)
    WB = "WB"            # dirty writeback (eviction / SI invalidation)
    WB_DG = "WB_DG"      # writeback + downgrade (SI producer-consumer)
    REPL = "REPL"        # clean-replacement hint


#: events that are request/reply transactions (guard held, timed, reply)
DEMAND_EVENTS = frozenset((Event.GETS, Event.GETX, Event.UPG, Event.GETT))
#: events that are one-way metadata datagrams (no timing, no reply)
DATAGRAM_EVENTS = frozenset((Event.WB, Event.WB_DG, Event.REPL))


class Msg(str, Enum):
    """Message classes a protocol exchanges (documentation + lint)."""

    REQ = "REQ"          # request, requester -> home
    DATA = "DATA"        # data reply
    ACK = "ACK"          # control reply / acknowledgement
    INV = "INV"          # invalidation, home -> sharer
    INT = "INT"          # intervention, home -> owner
    WB_DATA = "WB_DATA"  # writeback data, owner -> home
    HINT = "HINT"        # self-invalidation hint, home -> owner
    CTRL = "CTRL"        # replacement hint / misc control


@dataclass(frozen=True)
class ActionSpec:
    """Static metadata for one timed action (the lint's view of it)."""

    name: str
    #: where this action sources a data payload ('mem', 'owner', or None)
    data_source: Optional[str] = None
    #: may suspend the transaction (charges Table-1 timing)
    timed: bool = False
    #: only legal when the source state has an exclusive owner
    needs_owner: bool = False
    #: only legal when the source state tracks a sharer vector
    needs_sharers: bool = False
    #: resulting stable entry state, when the action itself settles it
    #: (None = leaves the entry state alone; commits decide)
    entry_effect: Optional[str] = None
    #: capability the table must declare for this action to be legal
    requires_cap: Optional[str] = None
    #: message classes the action puts on the wire
    messages: Tuple[Msg, ...] = ()


#: every action the interpreter implements, by name
ACTIONS: Dict[str, ActionSpec] = {spec.name: spec for spec in (
    ActionSpec("mem_read", data_source="mem", timed=True),
    ActionSpec("mem_read_unless_sharer", data_source="mem", timed=True),
    ActionSpec("intervene_inval", data_source="owner", timed=True,
               needs_owner=True, entry_effect=UNCACHED,
               messages=(Msg.INT, Msg.WB_DATA)),
    ActionSpec("intervene_downgrade", data_source="owner", timed=True,
               needs_owner=True, entry_effect=SHARED,
               messages=(Msg.INT, Msg.WB_DATA)),
    ActionSpec("inval_sharers", timed=True, needs_sharers=True,
               requires_cap="sharer_vector", messages=(Msg.INV, Msg.ACK)),
    ActionSpec("clear_entry", entry_effect=UNCACHED),
    ActionSpec("count_migratory", requires_cap="migratory"),
    ActionSpec("add_future_sharer", requires_cap="future_sharers"),
    ActionSpec("stale_reply_hint", data_source="mem", timed=True,
               needs_owner=True, requires_cap="si_hints",
               messages=(Msg.HINT,)),
    ActionSpec("stale_reply", data_source="mem", timed=True),
    ActionSpec("count_upgraded",),
)}


#: commit micro-ops and the stable state each one settles the entry in
#: ("keep" = leaves the state alone; "varies" = data-dependent, so the
#: row must declare every possible next state)
COMMITS: Dict[str, str] = {
    "add_sharer": SHARED,
    "set_exclusive": EXCLUSIVE,
    "clear": UNCACHED,
    "downgrade_owner": SHARED,
    "forget": UNCACHED,
    "remove_sharer_unless_transparent": "varies",
    "noop": "keep",
}

#: guard predicates and the state they are meaningful in (None = any)
GUARDS: Dict[str, Optional[str]] = {
    "owner_self": EXCLUSIVE,
    "owner_other": EXCLUSIVE,
    "migratory_ready": EXCLUSIVE,
}


@dataclass(frozen=True)
class Reply:
    """What the home tells the requester at the end of a demand event."""

    state: str                    # cache-line install state ('S' or 'M')
    msg: Msg = Msg.DATA
    #: data payload source: 'mem', 'owner', or 'requester' (no payload —
    #: the requester's own copy is still valid, e.g. a confirmed upgrade)
    data_from: str = "mem"
    transparent: bool = False
    upgraded: bool = False
    #: compute a piggybacked self-invalidation hint (Section 4.2)
    si: bool = False


@dataclass(frozen=True)
class Row:
    """One transition: ``(state, event) [guard] -> actions; commits``."""

    state: str
    event: Event
    actions: Tuple[str, ...] = ()
    commits: Tuple[str, ...] = ()
    guard: Optional[str] = None
    reply: Optional[Reply] = None
    #: transient states the transaction passes through while suspended
    via: Tuple[str, ...] = ()
    #: stable state(s) the entry can settle in (checked against the
    #: actions/commits by the lint; multiple when data-dependent)
    next_state: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Capabilities:
    """What a protocol tracks/supports — gates checker predicates, the
    L2 controller's request generation, and the lint's legality rules."""

    #: home tracks a full sharer bit-vector (enables invalidation fan-out
    #: and the sharer-registration agreement checks)
    sharer_vector: bool = True
    #: home keeps Section-4.2 future-sharer lists
    future_sharers: bool = True
    #: home generates self-invalidation hints
    si_hints: bool = True
    #: stores to resident shared copies issue UPG instead of GETX
    upgrades: bool = True
    #: clean evictions send replacement hints to the home
    replacement_hints: bool = True
    #: directory may grant exclusive on a read of migratory data
    migratory: bool = True
    #: nodes bulk self-invalidate shared copies at synchronization points
    #: (directoryless protocols: no home to invalidate through)
    sync_self_invalidate: bool = False
    #: stable directory-entry states this protocol uses
    entry_states: Tuple[str, ...] = (UNCACHED, SHARED, EXCLUSIVE)


@dataclass(frozen=True)
class ProtocolTable:
    """A complete protocol: states, events, transients, and rows."""

    name: str
    description: str
    states: Tuple[str, ...]
    events: Tuple[Event, ...]
    transients: Tuple[str, ...]
    initial: str
    rows: Tuple[Row, ...]
    caps: Capabilities = field(default_factory=Capabilities)

    def rows_for(self, state: str, event: Event) -> Tuple[Row, ...]:
        return tuple(row for row in self.rows
                     if row.state == state and row.event == event)
