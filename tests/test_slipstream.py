"""Tests for A-stream reduction semantics and R-stream slipstream duties."""

import pytest

from repro.config import scaled_config
from repro.experiments.driver import run_mode
from repro.machine.system import System
from repro.memory.cache import MODIFIED
from repro.runtime import ops as op
from repro.runtime.ops import OP_COMPUTE, OP_GENERIC
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import ROLE_A, ROLE_R, TaskContext
from repro.slipstream.arsync import G0, G1, L0, L1, ARSyncPolicy
from repro.slipstream.astream import AStreamExecutor
from repro.slipstream.pair import SlipstreamPair
from repro.slipstream.rstream import RStreamExecutor
from repro.workloads import compile_program, make
from tests.conftest import tiny_config
from tests.test_protocol import local_line


def build_pair(system, policy=G1, r_ops=(), a_ops=(), tl=False, si=False,
               n_tasks=1):
    registry = SyncRegistry(system.engine, system.config, n_tasks)
    pair = SlipstreamPair(system.engine, system.config, 0, policy,
                          tl_enabled=tl or si, si_enabled=si)
    pair.tape = compile_program(iter(a_ops), system.space.line_of)
    node = system.nodes[0]
    r_exec = RStreamExecutor(node.processor(0),
                             TaskContext(0, n_tasks, role=ROLE_R),
                             compile_program(iter(r_ops),
                                             system.space.line_of),
                             registry, pair)
    a_exec = AStreamExecutor(node.processor(1),
                             TaskContext(0, n_tasks, role=ROLE_A),
                             pair.tape, registry, pair)
    pair.a_executor = a_exec
    return pair, r_exec, a_exec, registry


def addr_of(system, node):
    return local_line(system, node) << system.space.line_shift


# ----------------------------------------------------------------------
# A-stream reduction rules
# ----------------------------------------------------------------------
def test_astream_skips_barriers_via_tokens():
    system = System(tiny_config())
    program = [op.Compute(10), op.Barrier("b"), op.Compute(10),
               op.Barrier("b")]
    pair, r_exec, a_exec, _ = build_pair(system, policy=L1,
                                         r_ops=program, a_ops=list(program))
    r_exec.start()
    a_exec.start()
    system.engine.run()
    # Both completed both sessions; A consumed tokens instead of barriers.
    assert pair.a_session == 2
    assert pair.r_session == 2
    assert a_exec.processor.breakdown.barrier == 0


def test_astream_same_session_store_becomes_exclusive_prefetch():
    system = System(tiny_config())
    addr = addr_of(system, 0)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, r_ops=[op.Compute(100000)],
        a_ops=[op.Store(addr)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.stores_converted == 1
    assert a_exec.stores_skipped == 0
    # ownership arrived without the A-stream blocking
    line = system.nodes[0].ctrl.l2.probe(system.space.line_of(addr))
    assert line.state == MODIFIED


def test_astream_cross_session_store_is_skipped():
    system = System(tiny_config())
    addr = addr_of(system, 0)
    # A crosses one barrier (initial token) before storing; R is far behind.
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, r_ops=[op.Compute(100000)],
        a_ops=[op.Barrier("b"), op.Store(addr)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.stores_skipped == 1
    assert a_exec.stores_converted == 0


def test_astream_store_in_critical_section_is_skipped():
    system = System(tiny_config())
    addr = addr_of(system, 0)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, r_ops=[op.Compute(100000)],
        a_ops=[op.LockAcquire("l"), op.Store(addr), op.LockRelease("l")])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.stores_skipped == 1
    # the lock itself was never really acquired
    assert a_exec.processor.breakdown.lock == 0


def test_astream_transparent_load_when_session_ahead():
    system = System(tiny_config())
    addr = addr_of(system, 1)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, tl=True, r_ops=[op.Compute(100000)],
        a_ops=[op.Barrier("b"), op.Load(addr)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.transparent_loads == 1


def test_astream_normal_load_when_same_session():
    system = System(tiny_config())
    addr = addr_of(system, 1)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, tl=True, r_ops=[op.Compute(100000)],
        a_ops=[op.Load(addr)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.transparent_loads == 0


def test_astream_transparent_load_in_critical_section():
    system = System(tiny_config())
    addr = addr_of(system, 1)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, tl=True, r_ops=[op.Compute(100000)],
        a_ops=[op.LockAcquire("l"), op.Load(addr), op.LockRelease("l")])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.transparent_loads == 1


def test_astream_no_transparent_loads_without_support():
    system = System(tiny_config())
    addr = addr_of(system, 1)
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, tl=False, r_ops=[op.Compute(100000)],
        a_ops=[op.Barrier("b"), op.Load(addr)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.transparent_loads == 0


def test_astream_skips_event_set_and_output():
    system = System(tiny_config())
    pair, r_exec, a_exec, registry = build_pair(
        system, policy=G1, r_ops=[op.Compute(1000)],
        a_ops=[op.EventSet("e"), op.EventClear("e"), op.Output(500)])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert not registry.event("e").flag   # EventSet was skipped
    assert a_exec.processor.breakdown.busy < 100  # Output not paid


def test_astream_input_waits_for_forwarded_value():
    system = System(tiny_config())
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1,
        r_ops=[op.Compute(5000), op.Input("k", cycles=100)],
        a_ops=[op.Input("k")])
    r_exec.start()
    a_exec.start()
    system.engine.run()
    assert a_exec.processor.breakdown.arsync >= 5000
    assert a_exec.processor.breakdown.busy == 1


# ----------------------------------------------------------------------
# R-stream slipstream duties
# ----------------------------------------------------------------------
def test_rstream_inserts_tokens_per_policy():
    for policy, expected_waits in ((L1, 0), (G0, 1)):
        system = System(tiny_config())
        program = [op.Compute(10), op.Barrier("b")]
        pair, r_exec, a_exec, _ = build_pair(
            system, policy=policy, r_ops=program, a_ops=list(program))
        r_exec.start()
        a_exec.start()
        system.engine.run()
        assert pair.tokens_inserted == 1
        assert pair.a_token_waits == expected_waits


def test_rstream_kicks_si_drain_at_barrier():
    system = System(tiny_config())
    addr = addr_of(system, 0)
    line = system.space.line_of(addr)
    program = [op.Store(addr), op.Compute(1000), op.Barrier("b")]
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, si=True, r_ops=program, a_ops=[])
    ctrl = system.nodes[0].ctrl
    r_exec.start()
    a_exec.start()
    # plant an SI hint once the store has completed
    def plant():
        yield 600
        ctrl.apply_si_hint(line)
    from repro.sim import Process
    Process(system.engine, plant())
    system.engine.run()
    assert ctrl.si_downgraded == 1


def test_rstream_kicks_si_drain_at_unlock():
    system = System(tiny_config())
    addr = addr_of(system, 0)
    line = system.space.line_of(addr)
    program = [op.LockAcquire("l"), op.Store(addr), op.Compute(1000),
               op.LockRelease("l"), op.Compute(1000)]
    pair, r_exec, a_exec, _ = build_pair(
        system, policy=G1, si=True, r_ops=program, a_ops=[])
    ctrl = system.nodes[0].ctrl
    r_exec.start()
    a_exec.start()

    def plant():
        yield 400
        ctrl.apply_si_hint(line)
    from repro.sim import Process
    Process(system.engine, plant())
    system.engine.run()
    # written inside a critical section -> migratory -> invalidated
    assert ctrl.si_invalidated == 1


def test_seek_session_skips_sessions():
    def program():
        for i in range(1, 6):
            yield op.Compute(i)
            yield op.Barrier("b")
        yield op.Compute(99)

    tape = compile_program(program(), lambda addr: addr)
    step, inputs = tape.seek_session(3)
    remaining = tape.steps[step:]
    kinds = [tape.objs[arg] for code, arg in remaining if code == OP_GENERIC]
    assert len(kinds) == 2 and all(isinstance(o, op.Barrier) for o in kinds)
    assert remaining[0] == (OP_COMPUTE, 4)
    assert inputs == 0


def test_seek_session_past_end_is_safe():
    def program():
        yield op.Barrier("b")

    tape = compile_program(program(), lambda addr: addr)
    assert tape.seek_session(10) == (len(tape.steps), 0)


# ----------------------------------------------------------------------
# End to end: the paper's fixed choices, varied
# ----------------------------------------------------------------------
def test_slower_si_drain_is_not_faster():
    """Draining SI hints 16x slower than the paper's one line per 4
    cycles must not speed cg@8 up by more than 5%."""
    cycles = {interval: run_mode(make("cg"),
                                 scaled_config(8, si_drain_interval=interval),
                                 "slipstream", policy=G1, si=True).exec_cycles
              for interval in (4, 64)}
    assert cycles[64] >= 0.95 * cycles[4]


def test_tight_sync_converts_no_fewer_stores():
    """Stores convert to exclusive prefetches only while the A-stream is
    in its R-stream's session, where zero-token global sync keeps it more
    often than a four-token local lead does (sor@8)."""
    converted = {
        policy.name: run_mode(make("sor"), scaled_config(8), "slipstream",
                              policy=policy).stores_converted
        for policy in (G0, ARSyncPolicy("L4", "local", 4))}
    assert converted["G0"] >= converted["L4"]
