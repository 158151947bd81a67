"""Tests for the conventional task executor and processor accounting."""

import pytest

from repro.machine.system import System
from repro.runtime import ops as op
from repro.runtime.executor import TaskExecutor
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import ROLE_NORMAL, TaskContext
from repro.workloads import compile_program
from tests.conftest import tiny_config
from tests.test_protocol import local_line


def build(n_tasks=1, **cfg_kw):
    system = System(tiny_config(**cfg_kw))
    registry = SyncRegistry(system.engine, system.config, n_tasks)
    return system, registry


def executor_for(system, registry, program_ops, node=0, proc=0, task_id=0,
                 n_tasks=1):
    ctx = TaskContext(task_id, n_tasks, role=ROLE_NORMAL)
    tape = compile_program(iter(program_ops), system.space.line_of)
    return TaskExecutor(system.processor(node, proc), ctx, tape, registry)


def run_program(system, registry, program_ops, **kwargs):
    executor = executor_for(system, registry, program_ops, **kwargs)
    executor.start()
    system.engine.run()
    return executor


def addr_of(system, node):
    return local_line(system, node) << system.space.line_shift


def test_compute_accumulates_busy_time():
    system, registry = build()
    executor = run_program(system, registry,
                           [op.Compute(100), op.Compute(23)])
    breakdown = executor.processor.breakdown
    assert breakdown.busy == 123
    assert breakdown.stall == 0
    assert executor.processor.finish_time == 123


def test_load_counts_busy_slot_plus_stall():
    system, registry = build()
    addr = addr_of(system, 1)  # remote line
    executor = run_program(system, registry, [op.Load(addr)])
    breakdown = executor.processor.breakdown
    assert breakdown.busy == 1
    assert breakdown.stall >= 290


def test_store_acquires_ownership_then_fast():
    system, registry = build()
    addr = addr_of(system, 0)
    executor = run_program(system, registry,
                           [op.Store(addr), op.Store(addr)])
    breakdown = executor.processor.breakdown
    assert breakdown.busy == 2
    # second store hit the owned line: no additional stall
    assert executor.processor.stores == 2


def test_l1_hit_loads_cost_one_busy_cycle():
    system, registry = build()
    addr = addr_of(system, 0)
    executor = run_program(system, registry,
                           [op.Load(addr)] * 5)
    breakdown = executor.processor.breakdown
    assert breakdown.busy == 5
    # exactly one miss worth of stall
    assert breakdown.stall < 2 * system.config.local_miss_cycles


def test_barrier_time_charged_to_barrier_category():
    system, registry = build(n_tasks=2)
    ex0 = executor_for(system, registry, [op.Barrier("b")], n_tasks=2)
    ex1 = executor_for(system, registry, [op.Compute(5000), op.Barrier("b")],
                       node=1, task_id=1, n_tasks=2)
    ex0.start()
    ex1.start()
    system.engine.run()
    assert ex0.processor.breakdown.barrier >= 5000
    assert ex0.session == 1
    assert ex1.session == 1


def test_lock_nesting_tracked():
    system, registry = build()
    program = [op.LockAcquire("l"), op.LockAcquire("l2"),
               op.LockRelease("l2"), op.LockRelease("l")]
    executor = run_program(system, registry, program)
    assert executor.cs_depth == 0
    assert executor.processor.breakdown.lock > 0


def test_store_inside_critical_section_marks_line():
    system, registry = build()
    addr = addr_of(system, 0)
    program = [op.LockAcquire("l"), op.Store(addr), op.LockRelease("l")]
    run_program(system, registry, program)
    line = system.nodes[0].ctrl.l2.probe(system.space.line_of(addr))
    assert line.written_in_cs


def test_release_without_acquire_raises():
    system, registry = build()
    with pytest.raises(RuntimeError):
        run_program(system, registry, [op.LockRelease("l")])


def test_event_set_then_wait():
    system, registry = build(n_tasks=2)
    ex0 = executor_for(system, registry, [op.Compute(1000), op.EventSet("e")],
                       n_tasks=2)
    ex1 = executor_for(system, registry, [op.EventWait("e")],
                       node=1, task_id=1, n_tasks=2)
    ex0.start()
    ex1.start()
    system.engine.run()
    assert ex1.processor.breakdown.barrier >= 1000
    assert ex1.session == 1


def test_event_clear_dispatch():
    system, registry = build()
    executor = run_program(system, registry,
                           [op.EventSet("e"), op.EventClear("e")])
    assert not registry.event("e").flag


def test_input_costs_its_cycles():
    system, registry = build()
    executor = run_program(system, registry, [op.Input("key", cycles=50)])
    assert executor.processor.breakdown.busy == 50
    assert executor.processor.finish_time == 50


def test_output_costs_busy_cycles():
    system, registry = build()
    executor = run_program(system, registry, [op.Output(cycles=75)])
    assert executor.processor.breakdown.busy >= 75


def test_unknown_op_rejected():
    system, registry = build()

    class Bogus:
        pass

    with pytest.raises(TypeError):
        run_program(system, registry, [Bogus()])


def test_finish_marks_processor():
    system, registry = build()
    executor = run_program(system, registry, [op.Compute(10)])
    assert executor.processor.finish_time == system.engine.now


def test_breakdown_total_matches_finish_time():
    system, registry = build()
    addr = addr_of(system, 1)
    program = [op.Compute(100), op.Load(addr), op.Store(addr),
               op.Compute(50)]
    executor = run_program(system, registry, program)
    breakdown = executor.processor.breakdown
    assert breakdown.total == executor.processor.finish_time
