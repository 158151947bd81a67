"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.config import MachineConfig
from repro.machine.system import System
from repro.sim import Engine, Process


@pytest.fixture
def engine():
    return Engine()


def tiny_config(n_cmps: int = 2, **overrides) -> MachineConfig:
    """A small machine for protocol-level tests: 2 nodes, small caches."""
    params = dict(n_cmps=n_cmps, l1_size=1024, l2_size=8192,
                  l2_assoc=2, l1_assoc=2)
    params.update(overrides)
    return MachineConfig(**params)


@pytest.fixture
def tiny_system():
    return System(tiny_config())


@pytest.fixture
def gate(monkeypatch):
    """Hold every in-process ``execute_spec`` call until the test calls
    ``gate.set()`` — how serving tests keep a job in flight.  Opened at
    teardown too, so no simulation thread is left waiting."""
    from repro.experiments import runner

    opened = threading.Event()
    execute = runner.execute_spec

    def gated(spec):
        opened.wait(timeout=60)
        return execute(spec)

    monkeypatch.setattr(runner, "execute_spec", gated)
    yield opened
    opened.set()


def run_process(engine: Engine, gen, until=None):
    """Spawn a process and run the engine to completion; returns the
    process (check .result / .done)."""
    process = Process(engine, gen, name="test-proc")
    engine.run(until=until)
    return process


def drive(system: System, gen):
    """Run one generator as a process on a system's engine."""
    process = Process(system.engine, gen, name="test-driver")
    system.engine.run()
    return process
