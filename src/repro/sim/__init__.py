"""Discrete-event simulation kernel.

This package is the substrate everything else runs on: a deterministic
event-driven engine (:class:`~repro.sim.engine.Engine`), generator-based
processes (:class:`~repro.sim.process.Process`), and the waitable
synchronization primitives used to model hardware occupancy and queueing
(:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.SimSemaphore`,
:class:`~repro.sim.resources.SimEvent`,
:class:`~repro.sim.resources.Signal`).

The kernel is intentionally small: processes are plain Python generators that
``yield`` *waitables*; the engine resumes them when the waitable fires.  Ties
in simulated time are broken FIFO by scheduling order, so runs are exactly
reproducible.
"""

from repro.sim.engine import DeadlockError, Engine
from repro.sim.process import Process, Timeout
from repro.sim.resources import Resource, Signal, SimEvent, SimSemaphore

__all__ = [
    "DeadlockError",
    "Engine",
    "Process",
    "Resource",
    "Signal",
    "SimEvent",
    "SimSemaphore",
    "Timeout",
]
