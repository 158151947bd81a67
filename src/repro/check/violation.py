"""Structured invariant-violation reporting.

An :class:`InvariantViolation` is raised the moment a checker observes a
broken invariant.  It is an exception (not a log line) on purpose: a
protocol bug caught mid-simulation should abort the run with the *exact*
cycle, node, and line it happened at, plus the most recent bus events,
instead of surfacing a thousand events later as a slightly-wrong cycle
count in a figure.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulated machine was broken.

    Attributes
    ----------
    check:
        Name of the checker that fired (e.g. ``"directory"``, ``"tokens"``).
    cycle:
        Simulated cycle at which the violation was observed.
    node:
        CMP node (or slipstream pair id) involved, if any.
    line:
        Cache-line address involved, if any.
    events:
        The most recent ``(cycle, category, subject, detail)`` bus events
        at the time of the violation (empty on a machine without a spine).
    """

    def __init__(self, check: str, message: str, cycle: int,
                 node: Optional[int] = None, line: Optional[int] = None,
                 events: Sequence = ()):
        self.check = check
        self.cycle = cycle
        self.node = node
        self.line = line
        self.events: Tuple = tuple(events)
        where = [f"cycle={cycle}"]
        if node is not None:
            where.append(f"node={node}")
        if line is not None:
            where.append(f"line={line:#x}")
        text = f"[{check}] {message} ({', '.join(where)})"
        if self.events:
            tail = "\n".join(
                f"  [{time:>10}] {category:<12} {subject}"
                f"{' ' + detail if detail else ''}"
                for time, category, subject, detail in self.events)
            text += f"\nrecent events:\n{tail}"
        super().__init__(text)
