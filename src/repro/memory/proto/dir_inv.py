"""``dir-inv``: the paper's invalidate-based fully-mapped directory
protocol, plus the Section-4 slipstream extensions, as a table.

This is a row-for-row re-expression of the hand-written directory
generators :mod:`repro.memory.protocol` once held.  Those ran beside
this table as a differential oracle until the golden corpus
(``tests/golden_corpus.json``) was recorded with both agreeing on every
``dir-inv`` case; the corpus now holds the table to that behaviour.

Transients (the windows where a transaction is suspended inside a timed
action) are named explicitly:

* ``BusyInt`` — intervention outstanding at the exclusive owner,
* ``BusyInv`` — invalidation fan-out outstanding at the sharers,
* ``BusyMem`` — home memory access outstanding.
"""

from __future__ import annotations

from repro.memory.cache import MODIFIED, SHARED as L_SHARED
from repro.memory.directory import EXCLUSIVE, SHARED, UNCACHED
from repro.memory.proto.table import (Capabilities, Event, ProtocolTable,
                                      Reply, Row)

_S = Reply(L_SHARED)
_S_OWNER = Reply(L_SHARED, data_from="owner")
_M_SI = Reply(MODIFIED, si=True)
_M_OWNER_SI = Reply(MODIFIED, data_from="owner", si=True)
_M_CONFIRM = Reply(MODIFIED, data_from="requester")
_S_TRANSPARENT = Reply(L_SHARED, transparent=True)
_S_UPGRADED = Reply(L_SHARED, upgraded=True)

TABLE = ProtocolTable(
    name="dir-inv",
    description=("invalidate-based fully-mapped directory with "
                 "slipstream transparent loads, future sharers, and "
                 "self-invalidation hints (the paper's protocol)"),
    states=(UNCACHED, SHARED, EXCLUSIVE),
    events=(Event.GETS, Event.GETX, Event.UPG, Event.GETT,
            Event.WB, Event.WB_DG, Event.REPL),
    transients=("BusyInt", "BusyInv", "BusyMem"),
    initial=UNCACHED,
    caps=Capabilities(),
    rows=(
        # ----------------------------------------------------- GETS ----
        # Migratory grant: hand the reader exclusive ownership in one
        # transaction (it is about to write anyway).
        Row(EXCLUSIVE, Event.GETS, guard="migratory_ready",
            actions=("count_migratory", "intervene_inval"),
            commits=("set_exclusive",), via=("BusyInt",),
            next_state=(EXCLUSIVE,),
            reply=Reply(MODIFIED, data_from="owner")),
        # Read intervention: pull the dirty copy, downgrade the owner.
        Row(EXCLUSIVE, Event.GETS, guard="owner_other",
            actions=("intervene_downgrade",), commits=("add_sharer",),
            via=("BusyInt",), next_state=(SHARED,), reply=_S_OWNER),
        # Raced with our own writeback; serve from memory.
        Row(EXCLUSIVE, Event.GETS,
            actions=("clear_entry", "mem_read"), commits=("add_sharer",),
            via=("BusyMem",), next_state=(SHARED,), reply=_S),
        Row(SHARED, Event.GETS, actions=("mem_read",),
            commits=("add_sharer",), via=("BusyMem",),
            next_state=(SHARED,), reply=_S),
        Row(UNCACHED, Event.GETS, actions=("mem_read",),
            commits=("add_sharer",), via=("BusyMem",),
            next_state=(SHARED,), reply=_S),
        # ----------------------------------------------------- GETX ----
        # Already owner (raced upgrade); just confirm.
        Row(EXCLUSIVE, Event.GETX, guard="owner_self",
            next_state=(EXCLUSIVE,), reply=_M_CONFIRM),
        Row(EXCLUSIVE, Event.GETX, actions=("intervene_inval",),
            commits=("set_exclusive",), via=("BusyInt",),
            next_state=(EXCLUSIVE,), reply=_M_OWNER_SI),
        Row(SHARED, Event.GETX, actions=("inval_sharers", "mem_read"),
            commits=("set_exclusive",), via=("BusyInv", "BusyMem"),
            next_state=(EXCLUSIVE,), reply=_M_SI),
        Row(UNCACHED, Event.GETX, actions=("mem_read",),
            commits=("set_exclusive",), via=("BusyMem",),
            next_state=(EXCLUSIVE,), reply=_M_SI),
        # ------------------------------------------------------ UPG ----
        Row(EXCLUSIVE, Event.UPG, guard="owner_self",
            next_state=(EXCLUSIVE,), reply=_M_CONFIRM),
        Row(EXCLUSIVE, Event.UPG, actions=("intervene_inval",),
            commits=("set_exclusive",), via=("BusyInt",),
            next_state=(EXCLUSIVE,), reply=_M_OWNER_SI),
        # The requester's own copy may have been evicted while the
        # fan-out was outstanding: memory is read only if it is no
        # longer a sharer (checked after the fan-out, at the action's
        # position in the sequence).
        Row(SHARED, Event.UPG,
            actions=("inval_sharers", "mem_read_unless_sharer"),
            commits=("set_exclusive",), via=("BusyInv", "BusyMem"),
            next_state=(EXCLUSIVE,), reply=_M_SI),
        Row(UNCACHED, Event.UPG, actions=("mem_read",),
            commits=("set_exclusive",), via=("BusyMem",),
            next_state=(EXCLUSIVE,), reply=_M_SI),
        # ----------------------------------------------------- GETT ----
        # Section 4.1: reply with the (possibly stale) memory copy, do
        # not disturb the owner, hint the owner to self-invalidate.
        Row(EXCLUSIVE, Event.GETT, guard="owner_other",
            actions=("add_future_sharer", "stale_reply_hint"),
            via=("BusyMem",), next_state=(EXCLUSIVE,),
            reply=_S_TRANSPARENT),
        # Degenerate: we are the owner -> upgrade to a normal load.
        Row(EXCLUSIVE, Event.GETT,
            actions=("add_future_sharer", "count_upgraded",
                     "clear_entry", "mem_read"),
            commits=("add_sharer",), via=("BusyMem",),
            next_state=(SHARED,), reply=_S_UPGRADED),
        Row(SHARED, Event.GETT,
            actions=("add_future_sharer", "count_upgraded", "mem_read"),
            commits=("add_sharer",), via=("BusyMem",),
            next_state=(SHARED,), reply=_S_UPGRADED),
        Row(UNCACHED, Event.GETT,
            actions=("add_future_sharer", "count_upgraded", "mem_read"),
            commits=("add_sharer",), via=("BusyMem",),
            next_state=(SHARED,), reply=_S_UPGRADED),
        # ------------------------------------------------------- WB ----
        Row(EXCLUSIVE, Event.WB, guard="owner_self", commits=("clear",),
            next_state=(UNCACHED,)),
        # Not the owner any more (intervention won the race): no-op.
        Row(EXCLUSIVE, Event.WB, commits=("noop",),
            next_state=(EXCLUSIVE,)),
        Row(SHARED, Event.WB, commits=("noop",), next_state=(SHARED,)),
        Row(UNCACHED, Event.WB, commits=("noop",), next_state=(UNCACHED,)),
        # ---------------------------------------------------- WB_DG ----
        Row(EXCLUSIVE, Event.WB_DG, guard="owner_self",
            commits=("downgrade_owner",), next_state=(SHARED,)),
        Row(EXCLUSIVE, Event.WB_DG, commits=("noop",),
            next_state=(EXCLUSIVE,)),
        Row(SHARED, Event.WB_DG, commits=("noop",), next_state=(SHARED,)),
        Row(UNCACHED, Event.WB_DG, commits=("noop",),
            next_state=(UNCACHED,)),
        # ----------------------------------------------------- REPL ----
        # Clean eviction: deregister the sharer (transparent copies were
        # never registered).  On an EXCLUSIVE entry this is a no-op —
        # the mid-flight downgrade intervention that explains that state
        # will re-register the evictor itself.
        Row(EXCLUSIVE, Event.REPL,
            commits=("remove_sharer_unless_transparent",),
            next_state=(EXCLUSIVE,)),
        Row(SHARED, Event.REPL,
            commits=("remove_sharer_unless_transparent",),
            next_state=(SHARED, UNCACHED)),
        Row(UNCACHED, Event.REPL,
            commits=("remove_sharer_unless_transparent",),
            next_state=(UNCACHED,)),
    ),
)
