"""Adaptive A-R synchronization (the paper's future-work extension).

Section 6: "We are also interested in extending the analysis to recommend
an A-R synchronization scheme for a given program, or varying the scheme
dynamically during program execution."  This module implements the dynamic
variant: a per-pair controller that watches how the node's A-stream
fetches resolve (Timely / Late / Only, the Figure 7 taxonomy) and walks a
looseness ladder accordingly:

* many **A-Only** outcomes mean the A-stream runs *too far* ahead — its
  prefetches die before the R-stream arrives — so the controller tightens
  the synchronization (and retires a banked token);
* many **A-Late** outcomes with few A-Only mean the A-stream is *not far
  enough* ahead — the R-stream keeps catching its fetches in flight — so
  the controller loosens (and banks an extra token).

The ladder orders the paper's four policies from loosest to tightest:
``L1 -> G1 -> L0 -> G0`` (one-token local lets the A-stream enter the next
session earliest; zero-token global latest).  Decisions are made every
``interval`` R-stream sessions with a minimum sample count, which provides
the hysteresis that keeps the controller from thrashing.

Known limitation (kept deliberately, and measured by
``tests/test_extensions.py``): a high A-Late rate is an ambiguous signal.  It
can mean the A-stream needs more lead (loosen) — but kernels that favor
tight synchronization (e.g. Ocean under G0) show high A-Late *by
construction*, because same-session merging is exactly how their
prefetching helps.  The controller therefore tracks the best static
policy closely but does not always reach it; closing that gap needs
outcome-based search (a bandit over the ladder) rather than rate
thresholds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.slipstream.arsync import G0, G1, L0, L1, ARSyncPolicy

#: loosest -> tightest
LADDER: Tuple[ARSyncPolicy, ...] = (L1, G1, L0, G0)


@dataclass
class AdaptationEvent:
    """One policy switch, for reporting."""

    session: int
    from_policy: str
    to_policy: str
    only_rate: float
    late_rate: float


class AdaptiveController:
    """Per-pair dynamic A-R policy selection."""

    def __init__(self, pair, ctrl, interval: int = 4,
                 min_samples: int = 16, high_only: float = 0.20,
                 high_late: float = 0.50):
        self.pair = pair
        self.ctrl = ctrl
        self.interval = interval
        self.min_samples = min_samples
        self.high_only = high_only
        self.high_late = high_late
        self._sessions_since_check = 0
        self._snapshot = dict(ctrl.a_outcomes)
        self.history: List[AdaptationEvent] = []

    # ------------------------------------------------------------------
    def on_session_end(self) -> None:
        """Called by the R-stream executor after each session."""
        self._sessions_since_check += 1
        if self._sessions_since_check < self.interval:
            return
        self._sessions_since_check = 0
        current = dict(self.ctrl.a_outcomes)
        delta = {key: current[key] - self._snapshot.get(key, 0)
                 for key in current}
        self._snapshot = current
        total = sum(delta.values())
        if total < self.min_samples:
            return
        only_rate = delta["only"] / total
        late_rate = delta["late"] / total
        if only_rate > self.high_only:
            self._step(+1, only_rate, late_rate)   # tighten
        elif late_rate > self.high_late:
            self._step(-1, only_rate, late_rate)   # loosen

    def _step(self, direction: int, only_rate: float,
              late_rate: float) -> None:
        pair = self.pair
        index = LADDER.index(pair.policy) if pair.policy in LADDER else 0
        new_index = min(max(index + direction, 0), len(LADDER) - 1)
        if new_index == index:
            return
        new_policy = LADDER[new_index]
        self.history.append(AdaptationEvent(
            pair.r_session, pair.policy.name, new_policy.name,
            only_rate, late_rate))
        if pair.obs is not None:
            pair.obs.publish(
                "adapt", f"pair{pair.task_id}",
                f"{pair.policy.name}->{new_policy.name} "
                f"only={only_rate:.2f} late={late_rate:.2f}",
                from_policy=pair.policy.name, to_policy=new_policy.name)
        # Adjust the banked lead to match the token-depth change.  A
        # tighten that cannot retire a token now (the A-stream already
        # spent it) books a debt the next insertion absorbs, so repeated
        # switching never inflates the bucket.
        depth_change = new_policy.initial_tokens - pair.policy.initial_tokens
        if depth_change > 0:
            pair.tokens.release(depth_change)
        elif depth_change < 0:
            for _ in range(-depth_change):
                if not pair.tokens.try_acquire():
                    pair.token_debt += 1
        pair.policy = new_policy

    @property
    def switches(self) -> int:
        return len(self.history)


@dataclass
class DegradationEvent:
    """One demotion or re-promotion, for reporting."""

    session: int
    action: str  # 'demote' | 'promote'
    reforks_in_window: int = 0


class DegradationController:
    """Graceful degradation: slipstream -> conventional execution.

    A pair whose A-stream keeps deviating is paying the refork cost
    (``recovery_fork_cycles``) without delivering prefetch benefit.  This
    controller watches the refork stream and, after ``after`` reforks
    within a window of ``window`` R-stream sessions, *demotes* the pair:
    the deviated A-stream is not reforked and the R-stream continues as a
    conventional task with the second processor idle (task decomposition
    is fixed at fork time, so the node cannot pick up an extra independent
    task mid-run; demoted execution is therefore single-mode-like for the
    pair).  After ``repromote_after`` clean sessions the pair is
    re-promoted — the A-stream is respawned at the R-stream's current
    session through the same machinery recovery uses
    (:meth:`~repro.slipstream.pair.SlipstreamPair.respawn_astream`), so
    the checker's refork invariants apply to promotions too.
    ``repromote_after=0`` makes demotion permanent for the run.
    """

    def __init__(self, pair, after: int, window: int,
                 repromote_after: int = 0):
        self.pair = pair
        self.after = after
        self.window = window
        self.repromote_after = repromote_after
        self._refork_sessions: deque = deque()
        self.demoted_at: Optional[int] = None
        self.demotions = 0
        self.promotions = 0
        self.history: List[DegradationEvent] = []

    # ------------------------------------------------------------------
    def on_recovery(self, session: int) -> bool:
        """A refork is about to happen at R-stream ``session``.

        Returns True when the pair should demote instead of reforking.
        """
        if self.after <= 0:
            return False
        if self.pair.degraded:
            return True
        window = self._refork_sessions
        window.append(session)
        while window and window[0] < session - self.window:
            window.popleft()
        if len(window) >= self.after:
            self._demote(session, len(window))
            return True
        return False

    def on_session_end(self) -> None:
        """Called by the pair after every completed R-stream session."""
        if not self.pair.degraded or self.repromote_after <= 0:
            return
        pair = self.pair
        if pair.shutdown or self.demoted_at is None:
            return
        if pair.r_session - self.demoted_at >= self.repromote_after:
            self._promote(pair.r_session)

    # ------------------------------------------------------------------
    def _demote(self, session: int, reforks: int) -> None:
        pair = self.pair
        pair.degraded = True
        pair.abort_requested = False  # the old A-stream already exited
        pair.tokens.drain()           # nobody left to consume
        self.demotions += 1
        self.demoted_at = session
        self._refork_sessions.clear()
        self.history.append(DegradationEvent(session, "demote", reforks))
        if pair.obs is not None:
            pair.obs.publish("demote", f"pair{pair.task_id}",
                             f"session={session} reforks={reforks}",
                             session=session, reforks=reforks)

    def _promote(self, session: int) -> None:
        pair = self.pair
        if pair.spawn_astream is None:
            return
        pair.degraded = False
        self.promotions += 1
        self.demoted_at = None
        self.history.append(DegradationEvent(session, "promote"))
        if pair.obs is not None:
            pair.obs.publish("promote", f"pair{pair.task_id}",
                             f"session={session}", session=session)
        pair.respawn_astream()
