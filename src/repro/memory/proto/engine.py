"""Generic table interpreter for coherence protocols.

A :class:`ProtocolEngine` binds one :class:`~repro.memory.proto.table.
ProtocolTable` to one :class:`~repro.memory.protocol.CoherenceFabric`
and dispatches directory-side events through it; it is the fabric's
one dispatch path.  The timed actions reuse the fabric's transaction
machinery (``_intervene``, ``_invalidate_sharers``, ``_send_si_hint``,
the bare-int ``mem_time`` yields), so a table row charges exactly the
Table-1 resources those pieces charge — the dispatch layer adds
bookkeeping, never cycles.

Two entry points:

* :meth:`dispatch` — demand events (GETS/GETX/UPG/GETT), run as a
  generator while the caller holds the line guard; returns the
  :class:`~repro.memory.protocol.FetchResult` described by the selected
  row's reply.
* :meth:`apply` — datagram events (WB/WB_DG/REPL): synchronous metadata
  commits, no timing, no reply.

Transient states are *declared* per row (``via``) for the lint and the
docs; at run time the stable ``entry.state`` is never overwritten while
a transaction is suspended — concurrent writebacks race-check against
the stable state plus the owner pointer, as a real directory's busy
bit + saved state does.

A reachable ``(state, event)`` pair with no row raises
:class:`ProtocolHole` — the runtime backstop behind the static
exhaustiveness lint.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.memory.directory import EXCLUSIVE, SHARED
from repro.memory.proto.table import Event, ProtocolTable, Row


class ProtocolHole(RuntimeError):
    """An event arrived at a (state, event) pair the table does not cover."""


class _Ctx:
    """Per-dispatch scratch handed to guards, actions, and commits."""

    __slots__ = ("node", "home", "line", "entry", "role", "transparent")

    def __init__(self, node, home, line, entry, role):
        self.node = node
        self.home = home
        self.line = line
        self.entry = entry
        self.role = role
        self.transparent = False


class _CompiledRow:
    __slots__ = ("guard", "actions", "commits", "reply")

    def __init__(self, guard, actions, commits, reply):
        self.guard = guard
        self.actions = actions
        self.commits = commits
        self.reply = reply


class ProtocolEngine:
    """Walks a protocol table's rows against live directory entries."""

    def __init__(self, table: ProtocolTable, fabric):
        # Deferred to break the import cycle (protocol.py imports this
        # module at top level); resolved once per engine, not per fetch.
        from repro.memory.protocol import FetchResult
        self._fetch_result = FetchResult
        self.table = table
        self.fabric = fabric
        self.caps = table.caps
        obs = fabric.obs
        #: per-transition metric counters (created lazily so only
        #: exercised transitions appear in the flat export)
        self._registry = (obs.registry
                          if obs is not None and obs.metrics_on else None)
        self._txn_counters: Dict[Tuple[str, Event], object] = {}
        self._rows: Dict[Tuple[str, Event], List[_CompiledRow]] = {}
        for row in table.rows:
            compiled = _CompiledRow(
                guard=(None if row.guard is None
                       else getattr(self, "_guard_" + row.guard)),
                actions=tuple(getattr(self, "_act_" + name)
                              for name in row.actions),
                commits=tuple(getattr(self, "_commit_" + name)
                              for name in row.commits),
                reply=row.reply)
            self._rows.setdefault((row.state, row.event), []).append(compiled)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _select(self, ctx: _Ctx, event: Event) -> _CompiledRow:
        rows = self._rows.get((ctx.entry.state, event))
        if rows is None:
            raise ProtocolHole(
                f"protocol {self.table.name!r} has no row for "
                f"({ctx.entry.state!r}, {event.value}) at line "
                f"{ctx.line:#x}")
        if self._registry is not None:
            self._count(ctx.entry.state, event)
        for row in rows:
            guard = row.guard
            if guard is None or guard(ctx):
                return row
        raise ProtocolHole(
            f"protocol {self.table.name!r}: every guard rejected "
            f"({ctx.entry.state!r}, {event.value}) at line {ctx.line:#x}")

    def dispatch(self, node: int, home: int, line: int, entry,
                 event: Event, role: str) -> Generator:
        """Run one demand transaction; returns a ``FetchResult``.

        The caller (``CoherenceFabric.fetch``) holds the line guard and
        has already charged the request's transport; this covers the
        directory-side actions and metadata, mirroring what the former
        ``*_at_home`` generators did.
        """
        ctx = _Ctx(node, home, line, entry, role)
        row = self._select(ctx, event)
        for act in row.actions:
            suspended = act(ctx)
            if suspended is not None:
                yield from suspended
        for commit in row.commits:
            commit(ctx)
        reply = row.reply
        fabric = self.fabric
        si_hint = False
        if reply.si and fabric.si_enabled:
            si_hint = bool(
                fabric.directory.future_sharers_other_than(line, node))
            if si_hint and fabric.checker is not None:
                fabric.checker.on_si_hint(line, node)
        return self._fetch_result(reply.state, transparent=reply.transparent,
                                  si_hint=si_hint, upgraded=reply.upgraded)

    def apply(self, node: int, line: int, entry, event: Event,
              transparent: bool = False) -> None:
        """Apply one datagram event (WB/WB_DG/REPL): commits only."""
        ctx = _Ctx(node, None, line, entry, "R")
        ctx.transparent = transparent
        row = self._select(ctx, event)
        for commit in row.commits:
            commit(ctx)

    def _count(self, state: str, event: Event) -> None:
        key = (state, event)
        counter = self._txn_counters.get(key)
        if counter is None:
            counter = self._registry.counter(
                "proto.transition", proto=self.table.name, state=state,
                event=event.value)
            self._txn_counters[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _guard_owner_self(self, ctx: _Ctx) -> bool:
        return ctx.entry.owner == ctx.node

    def _guard_owner_other(self, ctx: _Ctx) -> bool:
        return ctx.entry.owner != ctx.node

    def _guard_migratory_ready(self, ctx: _Ctx) -> bool:
        fabric = self.fabric
        return (fabric.migratory_enabled
                and ctx.entry.owner != ctx.node
                and ctx.entry.migrations >= fabric.migratory_threshold)

    # ------------------------------------------------------------------
    # Timed actions (generators yield; plain actions return None)
    # ------------------------------------------------------------------
    def _act_mem_read(self, ctx: _Ctx) -> Generator:
        yield self.fabric.config.mem_time

    def _act_mem_read_unless_sharer(self, ctx: _Ctx) -> Optional[Generator]:
        if ctx.node not in ctx.entry.sharers:
            return self._act_mem_read(ctx)
        return None

    def _act_intervene_inval(self, ctx: _Ctx) -> Generator:
        return self.fabric._intervene(ctx.home, ctx.line, ctx.entry,
                                      invalidate=True)

    def _act_intervene_downgrade(self, ctx: _Ctx) -> Generator:
        return self.fabric._intervene(ctx.home, ctx.line, ctx.entry,
                                      invalidate=False)

    def _act_inval_sharers(self, ctx: _Ctx) -> Optional[Generator]:
        others = sorted(ctx.entry.sharers - {ctx.node})
        if others:
            return self.fabric._invalidate_sharers(ctx.home, ctx.line,
                                                   others)
        return None

    def _act_stale_reply_hint(self, ctx: _Ctx) -> Generator:
        """Section 4.1 transparent service of an exclusive line: stale
        memory reply + a self-invalidation hint to a still-standing
        owner (the owner may have written back while memory was read)."""
        fabric = self.fabric
        entry = ctx.entry
        owner = entry.owner
        fabric.transparent_replies += 1
        yield fabric.config.mem_time
        if (fabric.si_enabled and entry.state == EXCLUSIVE
                and entry.owner == owner):
            fabric._send_si_hint(ctx.home, owner, ctx.line)

    def _act_stale_reply(self, ctx: _Ctx) -> Generator:
        """Transparent service without hint machinery (dls)."""
        self.fabric.transparent_replies += 1
        yield self.fabric.config.mem_time

    def _act_clear_entry(self, ctx: _Ctx) -> None:
        ctx.entry.clear()

    def _act_count_migratory(self, ctx: _Ctx) -> None:
        fabric = self.fabric
        fabric.migratory_grants += 1
        p = fabric._p_migratory
        if p is not None and p.live:
            p(f"node{ctx.node}", f"line={ctx.line:#x}")

    def _act_add_future_sharer(self, ctx: _Ctx) -> None:
        self.fabric.directory.add_future_sharer(ctx.line, ctx.node)

    def _act_count_upgraded(self, ctx: _Ctx) -> None:
        self.fabric.upgraded_transparent += 1

    # ------------------------------------------------------------------
    # Commits (metadata micro-ops; never suspend)
    # ------------------------------------------------------------------
    def _commit_add_sharer(self, ctx: _Ctx) -> None:
        ctx.entry.add_sharer(ctx.node)

    def _commit_set_exclusive(self, ctx: _Ctx) -> None:
        ctx.entry.set_exclusive(ctx.node)

    def _commit_clear(self, ctx: _Ctx) -> None:
        ctx.entry.clear()

    def _commit_downgrade_owner(self, ctx: _Ctx) -> None:
        ctx.entry.downgrade_owner_to_sharer()

    def _commit_forget(self, ctx: _Ctx) -> None:
        # A downgrade intervention left the previous owner as the sole
        # tracked sharer; a directoryless home keeps no sharer state, so
        # forget the (now clean) line entirely.  If a concurrent
        # writeback already cleared the entry there is nothing to drop.
        if ctx.entry.state == SHARED:
            ctx.entry.clear()

    def _commit_remove_sharer_unless_transparent(self, ctx: _Ctx) -> None:
        if not ctx.transparent:
            ctx.entry.remove_sharer(ctx.node)

    def _commit_noop(self, ctx: _Ctx) -> None:
        return None
