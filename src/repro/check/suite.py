"""Runtime invariant sanitizer.

A :class:`CheckerSuite` is installed on the :class:`~repro.sim.Engine`
before the machine is assembled (``Engine.install_checker``); the
coherence fabric, the per-node L2 controllers, and the slipstream pairs
discover it there at construction time and call its ``on_*`` hooks after
every relevant transition.  With no suite installed every hook site is a
single ``is None`` test, so simulations with checking disabled are
bit-identical to a build without the subsystem.

What is validated (see ``docs/architecture.md`` §8 for the full list):

* **directory structure** — EXCLUSIVE entries have exactly one owner and
  no sharers, SHARED entries have sharers and no owner, UNCACHED entries
  are empty (:mod:`repro.check.predicates`), and the per-line guard is
  held across every directory transaction;
* **cache/directory agreement** — a dirty (M) L2 line implies an
  EXCLUSIVE directory entry owned by that node; every valid
  non-transparent L2 line is registered at the home; every registered
  sharer either caches the line or has the fill in flight (MSHR);
* **transparent-load non-disturbance** — a ``kind='transparent'`` fetch
  served from memory never changes the exclusive owner's cached state or
  the directory's owner (tolerating a concurrent writeback by the owner,
  which the per-line mutation epoch makes observable);
* **self-invalidation soundness** — an SI hint is only generated for the
  line's exclusive owner, only while some *other* node is on the
  future-sharer list, and only when SI is enabled;
* **token-bucket bounds** — the A-stream's session lead never exceeds
  the policy's bucket depth, tokens are conserved, and the bucket never
  goes negative (for all four local/global x 0/1 policies);
* **slipstream semantics** — the A-stream never commits a store to
  shared memory, transparent loads are issued only under the Section 4.1
  conditions, and a reforked A-stream resumes exactly at its R-stream's
  session with a freshly-initialized token bucket.

One deliberate relaxation: the simulated protocol lets a reply that is
already in flight race with a later transaction on the same line (the
fabric counts these as ``intervention_races``; with no data array the
stale copy is harmless for timing).  The suite detects such windows via a
per-line transaction counter — a fill whose grant predates another
transaction on the line marks the line *raced*, and raced lines are
exempt from the cache/directory agreement checks (their directory entry
is still checked structurally).  Everything a guard-serialized protocol
actually guarantees stays enforced.

Violations raise :class:`~repro.check.violation.InvariantViolation`
immediately, carrying the cycle, node, line, and the most recent bus
events.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.check import predicates
from repro.check.violation import InvariantViolation
from repro.memory.cache import MODIFIED
from repro.memory.directory import EXCLUSIVE, DirectoryEntry

#: recent bus events attached to a violation
CONTEXT_EVENTS = 8

#: the bus categories a violation's recent events are drawn from: the
#: protocol, slipstream, and fault events (not the per-access spine
#: categories such as ``cpu.wait`` or ``l2.fill``)
CONTEXT_CATEGORIES = (
    "txn", "migratory", "intervention", "si-hint",
    "si-inval", "si-downgrade",
    "recovery", "adapt", "demote", "promote", "corrupt")


class _TxnSnapshot:
    """Directory/owner state captured when a transaction takes the guard."""

    __slots__ = ("kind", "state", "owner", "owner_line_state", "epoch")

    def __init__(self, kind: str, state: str, owner: Optional[int],
                 owner_line_state: Optional[str], epoch: int):
        self.kind = kind
        self.state = state
        self.owner = owner
        self.owner_line_state = owner_line_state
        self.epoch = epoch


class CheckerSuite:
    """All invariant checkers behind one hook object."""

    def __init__(self, engine):
        self.engine = engine
        #: the most recent ``(cycle, category, subject, detail)`` events,
        #: fed by the observability spine when the machine has one
        self.recent: Deque[Tuple[int, str, str, str]] = deque(
            maxlen=CONTEXT_EVENTS)
        if engine.obs is not None:
            engine.obs.subscribe(self._on_event, CONTEXT_CATEGORIES)
        self.fabric = None
        self.caps = None
        self.controllers: Dict[int, object] = {}
        self.n_nodes = 0
        #: per-check fire counts, for "did the checkers actually run" tests
        self.checks: Counter = Counter()
        #: per-line guarded-transaction counter: a fill whose grant predates
        #: the line's current counter raced with a later transaction
        self._line_txn: Dict[int, int] = {}
        #: grant tickets: (node, line) -> the line's txn counter at grant
        self._grants: Dict[Tuple[int, int], int] = {}
        #: lines whose cached copies may legitimately disagree with the
        #: directory (reply-in-flight races, killed fetches)
        self._raced: Set[int] = set()
        #: per-line mutation epoch: bumped on every writeback / eviction /
        #: external invalidation, so a transparent-load window can tell a
        #: legitimate concurrent owner writeback from a protocol bug
        self._line_epoch: Dict[int, int] = {}
        #: open transaction snapshots, keyed by line (the per-line guard
        #: serializes transactions, so one snapshot per line suffices)
        self._txn: Dict[int, _TxnSnapshot] = {}
        #: per-pair token accounting
        self._tokens: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Wiring (called from component constructors)
    # ------------------------------------------------------------------
    def attach_fabric(self, fabric) -> None:
        self.fabric = fabric
        self.n_nodes = fabric.config.n_cmps
        #: protocol capabilities: predicates that reason about state the
        #: protocol does not track (sharer vectors, S entries) are gated
        self.caps = getattr(fabric, "caps", None)

    def register_controller(self, node_id: int, ctrl) -> None:
        self.controllers[node_id] = ctrl

    def register_pair(self, pair) -> None:
        self._tokens[pair.task_id] = {
            "inserted": 0, "consumed": 0,
            "base": pair.policy.initial_tokens}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _on_event(self, time: int, category: str, subject: str,
                  detail: str, args: dict) -> None:
        self.recent.append((time, category, subject, detail))

    def _fail(self, check: str, message: str, node: Optional[int] = None,
              line: Optional[int] = None) -> None:
        raise InvariantViolation(check, message, self.engine.now,
                                 node=node, line=line, events=self.recent)

    def stats(self) -> Dict[str, int]:
        """Fire counts per check (all zero only if nothing was simulated)."""
        return dict(self.checks)

    # ------------------------------------------------------------------
    # Directory + cache agreement
    # ------------------------------------------------------------------
    def _check_entry(self, line: int, entry: DirectoryEntry,
                     node: Optional[int] = None) -> None:
        self.checks["directory"] += 1
        caps = self.caps
        errors = predicates.directory_entry_errors(
            entry, self.n_nodes,
            allowed_states=None if caps is None else caps.entry_states)
        if errors:
            self._fail("directory", "; ".join(errors), node=node, line=line)

    def _cross_check_line(self, line: int, entry: DirectoryEntry) -> None:
        """Directory entry vs the actual contents of every L2."""
        if line in self._raced:
            return
        self.checks["agreement"] += 1
        owners = [node for node, ctrl in self.controllers.items()
                  if (cached := ctrl.l2.probe(line)) is not None
                  and cached.state == MODIFIED]
        if len(owners) > 1:
            self._fail("agreement",
                       f"nodes {owners} all hold the line MODIFIED",
                       line=line)
        if owners:
            if entry.state != EXCLUSIVE or entry.owner != owners[0]:
                self._fail(
                    "agreement",
                    f"node {owners[0]} holds MODIFIED but directory is "
                    f"{entry.state} owner={entry.owner}",
                    node=owners[0], line=line)
        for sharer in entry.sharers:
            ctrl = self.controllers.get(sharer)
            if ctrl is None:
                continue
            cached = ctrl.l2.probe(line)
            if cached is not None and not cached.transparent:
                continue
            if line in ctrl._pending:
                continue
            self._fail("agreement",
                       f"directory lists node {sharer} as sharer but the "
                       "line is not cached there and no fill is in flight",
                       node=sharer, line=line)

    def check_node_line(self, node: int, line: int) -> None:
        """One node's cached copy vs the directory (cache -> directory)."""
        ctrl = self.controllers.get(node)
        if ctrl is None or self.fabric is None or line in self._raced:
            return
        self.checks["agreement"] += 1
        cached = ctrl.l2.probe(line)
        if cached is None:
            return
        entry = self.fabric.directory.peek(line)
        if cached.state == MODIFIED:
            if entry is None or entry.state != EXCLUSIVE \
                    or entry.owner != node:
                self._fail(
                    "agreement",
                    f"L2 holds the line MODIFIED but directory is "
                    f"{entry.state if entry else 'absent'} "
                    f"owner={entry.owner if entry else None}",
                    node=node, line=line)
        elif not cached.transparent:
            # Only meaningful when the home tracks sharers: protocols
            # without a sharer vector (dls) deliberately hold untracked
            # clean copies until the next sync-point self-invalidation.
            if self.caps is not None and not self.caps.sharer_vector:
                return
            if entry is None or not entry.is_cached_by(node):
                self._fail("agreement",
                           "L2 holds a valid non-transparent line the "
                           "home directory does not register",
                           node=node, line=line)

    # ------------------------------------------------------------------
    # Fabric hooks
    # ------------------------------------------------------------------
    def on_txn_begin(self, node: int, line: int, kind: str,
                     role: str) -> None:
        """Transaction took the per-line guard (directory busy bit)."""
        self.checks["guard"] += 1
        self._line_txn[line] = self._line_txn.get(line, 0) + 1
        guard = self.fabric.directory.guard(line)
        if guard.count != 0:
            self._fail("guard",
                       f"{kind} transaction entered the directory without "
                       f"holding the line guard (count={guard.count})",
                       node=node, line=line)
        if kind == "transparent" and role != "A":
            self._fail("slipstream",
                       f"transparent fetch issued by role {role!r} "
                       "(A-stream only)", node=node, line=line)
        entry = self.fabric.directory.entry(line)
        owner_line = None
        if entry.owner is not None:
            owner_ctrl = self.controllers.get(entry.owner)
            if owner_ctrl is not None:
                cached = owner_ctrl.l2.probe(line)
                owner_line = cached.state if cached is not None else None
        self._txn[line] = _TxnSnapshot(kind, entry.state, entry.owner,
                                       owner_line,
                                       self._line_epoch.get(line, 0))

    def on_txn_end(self, node: int, line: int, kind: str, role: str,
                   result) -> None:
        """Directory-side action finished (guard still held)."""
        snapshot = self._txn.pop(line, None)
        entry = self.fabric.directory.entry(line)
        self._check_entry(line, entry, node=node)
        self._cross_check_line(line, entry)
        if snapshot is not None and kind == "transparent" \
                and result is not None and result.transparent:
            self._check_transparent_window(node, line, entry, snapshot)
        # Grant ticket: if another transaction touches the line before the
        # reply fills the requester's L2, the fill is stale (raced).
        self._grants[(node, line)] = self._line_txn.get(line, 0)

    def on_txn_aborted(self, node: int, line: int) -> None:
        """The requesting process was killed mid-transaction (end-of-run
        A-stream retirement): the directory may carry partial effects."""
        self._txn.pop(line, None)
        self._raced.add(line)

    def _check_transparent_window(self, node: int, line: int,
                                  entry: DirectoryEntry,
                                  snapshot: _TxnSnapshot) -> None:
        """Section 4.1: the transparent reply must not have disturbed the
        exclusive owner.  A concurrent writeback/eviction by the owner
        bumps the line's mutation epoch; only an *undisturbed* window is
        required to preserve the owner's state."""
        self.checks["transparent"] += 1
        if self._line_epoch.get(line, 0) != snapshot.epoch:
            return  # owner legitimately wrote the line back meanwhile
        if entry.state != snapshot.state or entry.owner != snapshot.owner:
            self._fail(
                "transparent",
                f"transparent fetch changed the directory from "
                f"{snapshot.state}/owner={snapshot.owner} to "
                f"{entry.state}/owner={entry.owner}",
                node=node, line=line)
        owner_ctrl = self.controllers.get(snapshot.owner)
        if owner_ctrl is not None:
            cached = owner_ctrl.l2.probe(line)
            state = cached.state if cached is not None else None
            # Only the *disturbing* direction is a violation: the owner
            # losing its MODIFIED copy.  Gaining state during the window
            # (None -> M) is the owner's own earlier exclusive grant
            # filling in — the reply was in flight when this transparent
            # transaction took the guard.
            if snapshot.owner_line_state == MODIFIED and state != MODIFIED:
                self._fail(
                    "transparent",
                    f"transparent fetch changed the owner's cached state "
                    f"from {snapshot.owner_line_state} to {state}",
                    node=snapshot.owner, line=line)

    def on_writeback(self, node: int, line: int) -> None:
        """Any writeback-path directory mutation (dirty eviction, SI
        invalidation/downgrade)."""
        self._line_epoch[line] = self._line_epoch.get(line, 0) + 1
        entry = self.fabric.directory.peek(line)
        if entry is not None:
            self._check_entry(line, entry, node=node)

    def on_replacement_hint(self, node: int, line: int) -> None:
        """Clean eviction told the home."""
        self._line_epoch[line] = self._line_epoch.get(line, 0) + 1
        entry = self.fabric.directory.peek(line)
        if entry is not None:
            self._check_entry(line, entry, node=node)
            if entry.state == EXCLUSIVE and entry.owner == node:
                # A *clean* eviction while the directory still records the
                # evictor as exclusive owner means a downgrade intervention
                # is mid-flight (the owner's copy was downgraded M->S early;
                # the entry transitions late).  The intervention will still
                # register the evictor as a sharer afterwards — a stale
                # sharer the simulator tolerates (it only earns a spurious
                # invalidation later), so exempt the line from agreement.
                self._raced.add(line)
            elif node in entry.sharers:
                self._fail("directory",
                           "replacement hint processed but the evicting "
                           "node is still a sharer", node=node, line=line)

    def on_si_hint(self, line: int, target: int) -> None:
        """Directory generated a self-invalidation hint for ``target``."""
        self.checks["si-hint"] += 1
        if not self.fabric.si_enabled:
            self._fail("si-hint", "SI hint generated while SI is disabled",
                       node=target, line=line)
        entry = self.fabric.directory.entry(line)
        if entry.state != EXCLUSIVE or entry.owner != target:
            self._fail("si-hint",
                       f"SI hint sent to node {target} which is not the "
                       f"exclusive owner ({entry.state}/owner={entry.owner})",
                       node=target, line=line)
        others = self.fabric.directory.future_sharers_other_than(line, target)
        if not others:
            self._fail("si-hint",
                       "SI hint generated with no other node on the "
                       "future-sharer list", node=target, line=line)

    def on_fetch_aborted(self, node: int, line: int) -> None:
        """A fetch died between grant and fill (hard kill at end of run):
        the directory registration has no cached copy to match."""
        self._raced.add(line)

    # ------------------------------------------------------------------
    # L2-controller hooks
    # ------------------------------------------------------------------
    def on_fill(self, node: int, line: int, cacheline) -> None:
        self.checks["fill"] += 1
        if cacheline.transparent and cacheline.state == MODIFIED:
            self._fail("fill", "transparent copy installed in MODIFIED "
                       "state", node=node, line=line)
        ticket = self._grants.pop((node, line), None)
        if ticket is not None and ticket != self._line_txn.get(line, 0):
            # Another transaction hit the line while our reply was in
            # flight; the installed copy may be stale (see module docs).
            self._raced.add(line)
            return
        self.check_node_line(node, line)

    def on_line_dropped(self, node: int, line: int) -> None:
        """External invalidation or downgrade applied at ``node``."""
        self._line_epoch[line] = self._line_epoch.get(line, 0) + 1
        self.check_node_line(node, line)

    def on_store(self, node: int, role: str) -> None:
        """A store reached the L2 commit path."""
        self.checks["store"] += 1
        if role == "A":
            self._fail("slipstream",
                       "A-stream store reached the shared-memory commit "
                       "path (A-streams never write shared state)",
                       node=node)

    def on_si_apply(self, node: int, line: int, accepted: bool) -> None:
        """SI hint processed at a node (counted only: this fires mid-fill,
        before the fill's raced-reply detection has run, so an agreement
        check here could flag a legitimately stale piggybacked hint)."""
        self.checks["si-apply"] += 1

    # ------------------------------------------------------------------
    # Slipstream pair hooks
    # ------------------------------------------------------------------
    def on_token_insert(self, pair) -> None:
        self.checks["tokens"] += 1
        book = self._tokens.get(pair.task_id)
        if book is None:
            return
        book["inserted"] += 1
        count = pair.tokens.count
        if count < 0:
            self._fail("tokens", f"token count negative ({count})",
                       node=pair.task_id)
        if pair.adaptive is None:
            # The freshly released token may have been granted straight to
            # a queued waiter (count unchanged), so only the ceiling is
            # checkable here; exact conservation is checked at consume.
            ceiling = book["base"] + book["inserted"] - book["consumed"]
            if count > ceiling:
                self._fail(
                    "tokens",
                    f"token count {count} exceeds conservation ceiling "
                    f"{ceiling}", node=pair.task_id)

    def on_token_consume(self, pair) -> None:
        """A-stream entered a new session (token consumed)."""
        self.checks["tokens"] += 1
        book = self._tokens.get(pair.task_id)
        if book is None:
            return
        book["consumed"] += 1
        if pair.adaptive is not None:
            return  # the adaptive controller resizes the bucket directly
        errors = predicates.token_accounting_errors(
            pair.policy, book["inserted"], book["consumed"],
            pair.tokens.count)
        errors += predicates.token_lead_errors(
            pair.policy, pair.a_session, pair.r_session)
        if errors:
            self._fail("tokens", "; ".join(errors), node=pair.task_id)

    def on_refork(self, pair) -> None:
        """Recovery respawned the A-stream."""
        self.checks["recovery"] += 1
        if pair.a_session != pair.r_session \
                or pair.a_reached != pair.r_session:
            self._fail(
                "recovery",
                f"reforked A-stream at session {pair.a_session} "
                f"(reached {pair.a_reached}) != R-stream session "
                f"{pair.r_session}", node=pair.task_id)
        if pair.tokens.count != pair.policy.initial_tokens:
            self._fail(
                "recovery",
                f"reforked token bucket holds {pair.tokens.count} tokens, "
                f"expected the policy's initial {pair.policy.initial_tokens}",
                node=pair.task_id)
        if pair.abort_requested:
            self._fail("recovery", "abort flag still set after refork",
                       node=pair.task_id)
        self._tokens[pair.task_id] = {
            "inserted": 0, "consumed": 0,
            "base": pair.policy.initial_tokens}

    def on_transparent_issue(self, pair, cs_depth: int) -> None:
        """A-stream decided to issue a transparent load."""
        self.checks["transparent"] += 1
        if not pair.tl_enabled:
            self._fail("transparent",
                       "transparent load issued with transparent-load "
                       "support disabled", node=pair.task_id)
        if pair.a_sessions_ahead < 1 and cs_depth <= 0:
            self._fail(
                "transparent",
                f"transparent load issued in-session outside a critical "
                f"section (ahead={pair.a_sessions_ahead}, "
                f"cs_depth={cs_depth})", node=pair.task_id)

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def on_drain(self, now: int) -> None:
        """Event heap drained: full-machine audit at quiescence."""
        if self.fabric is None:
            return
        self.checks["final-audit"] += 1
        for line, entry in self.fabric.directory._entries.items():
            self._check_entry(line, entry)
            self._cross_check_line(line, entry)
        for node, ctrl in self.controllers.items():
            for cached in ctrl.l2.resident_lines():
                self.check_node_line(node, cached.line_addr)
            for l1 in ctrl.l1s:
                for l1_line in l1.resident_lines():
                    if ctrl.l2.probe(l1_line.line_addr) is None:
                        self._fail(
                            "inclusion",
                            "L1 holds a line its L2 does not (inclusion "
                            "violated)", node=node, line=l1_line.line_addr)
