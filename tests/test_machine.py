"""Tests for the machine assembly: processors, nodes, system."""

import pytest

from repro.machine.node import CmpNode
from repro.machine.system import System
from repro.runtime import ops as op
from repro.runtime.executor import TaskExecutor
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import ROLE_A, TaskContext
from repro.sim import Process, Timeout
from repro.slipstream.arsync import G1
from repro.slipstream.astream import AStreamExecutor
from repro.slipstream.pair import SlipstreamPair
from repro.workloads import compile_program
from tests.conftest import tiny_config
from tests.test_protocol import local_line


def test_system_builds_requested_topology():
    system = System(tiny_config(n_cmps=4))
    assert len(system.nodes) == 4
    assert len(system.fabric.dcs) == 4
    for node_id, node in enumerate(system.nodes):
        assert node.node_id == node_id
        assert len(node.processors) == 2
        assert system.fabric.node(node_id) is node.ctrl


def test_processor_accessor():
    system = System(tiny_config())
    assert system.processor(1, 1) is system.nodes[1].processors[1]
    assert system.processor(0, 0).name == "cpu[0.0]"


def test_node_caches_have_configured_geometry():
    config = tiny_config(l1_size=2048, l1_assoc=2, l2_size=16384, l2_assoc=4)
    system = System(config)
    node = system.nodes[0]
    assert node.l2.size == 16384
    assert node.l2.assoc == 4
    for l1 in node.ctrl.l1s:
        assert l1.size == 2048
        assert l1.assoc == 2


def test_classifier_shared_across_nodes():
    system = System(tiny_config())
    classifiers = {node.ctrl.classifier for node in system.nodes}
    assert classifiers == {system.classifier}


def test_classification_can_be_disabled():
    system = System(tiny_config(), classify_requests=False)
    assert system.classifier is None
    assert system.nodes[0].ctrl.classifier is None
    system.finalize()  # no-op, no crash


def test_system_run_and_finalize():
    system = System(tiny_config())
    ctrl = system.nodes[0].ctrl
    line = local_line(system, 0)

    def work():
        yield from ctrl.load(1, "A", line)

    Process(system.engine, work())
    final = system.run()
    assert final > 0
    system.finalize()
    # resident unused A line became A-Only; classifier finalized
    assert system.classifier.counts["a_only"]["read"] == 1


# ----------------------------------------------------------------------
# Processor primitives (direct)
# ----------------------------------------------------------------------
def test_processor_flush_converts_accumulated_delay():
    system = System(tiny_config())
    processor = system.processor(0, 0)
    processor.do_compute(500)

    def run():
        yield from processor.flush()

    Process(system.engine, run())
    system.engine.run()
    assert system.engine.now == 500
    assert processor.breakdown.busy == 500


def test_processor_flush_empty_is_noop():
    system = System(tiny_config())
    processor = system.processor(0, 0)

    def run():
        yield from processor.flush()
        yield Timeout(1)

    Process(system.engine, run())
    system.engine.run()
    assert system.engine.now == 1


def test_timed_wait_charges_named_category():
    system = System(tiny_config())
    processor = system.processor(0, 0)

    def waiting():
        yield Timeout(123)

    def run():
        yield from processor.timed_wait(waiting(), "lock")

    Process(system.engine, run())
    system.engine.run()
    assert processor.breakdown.lock == 123


def test_timed_waitable_charges_category():
    system = System(tiny_config())
    processor = system.processor(0, 0)
    from repro.sim import SimEvent
    event = SimEvent(system.engine)

    def run():
        yield from processor.timed_waitable(event, "arsync")

    Process(system.engine, run())
    system.engine.schedule(77, event.trigger)
    system.engine.run()
    assert processor.breakdown.arsync == 77


def test_exclusive_prefetch_costs_one_busy_cycle():
    """An A-stream store in its R-stream's session is converted to an
    exclusive prefetch: one busy cycle, never a stall."""
    system = System(tiny_config())
    addr = local_line(system, 0) << system.space.line_shift
    pair = SlipstreamPair(system.engine, system.config, 0, G1)
    pair.tape = compile_program(iter([op.Store(addr)]), system.space.line_of)
    a_exec = AStreamExecutor(system.processor(0, 1),
                             TaskContext(0, 1, role=ROLE_A), pair.tape,
                             SyncRegistry(system.engine, system.config, 1),
                             pair)
    a_exec.start()
    system.engine.run()
    processor = a_exec.processor
    assert a_exec.stores_converted == 1
    assert processor.breakdown.busy == 1
    assert processor.breakdown.stall == 0  # never blocked


def test_op_counters():
    system = System(tiny_config())
    addr = local_line(system, 0) << system.space.line_shift
    tape = compile_program(iter([op.Load(addr), op.Store(addr)]),
                           system.space.line_of)
    executor = TaskExecutor(system.processor(0, 0), TaskContext(0, 1), tape,
                            SyncRegistry(system.engine, system.config, 1))
    executor.start()
    system.engine.run()
    processor = executor.processor
    assert processor.loads == 1
    assert processor.stores == 1
    assert processor.ops == 2
