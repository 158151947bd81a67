"""Tests for A-stream deviation detection and recovery."""

import pytest

from repro.config import MachineConfig
from repro.experiments.driver import run_mode
from repro.workloads.dynsched import DynSched


def cfg(n=2, **kw):
    params = dict(n_cmps=n, l1_size=2048, l2_size=16384)
    params.update(kw)
    return MachineConfig(**params)


def test_divergent_workload_triggers_recovery():
    result = run_mode(DynSched(divergent=True), cfg(), "slipstream")
    assert result.recoveries >= 1
    assert result.exec_cycles > 0


def test_non_divergent_workload_never_recovers():
    result = run_mode(DynSched(divergent=False), cfg(), "slipstream")
    assert result.recoveries == 0


def test_input_forwarding_avoids_divergence():
    """The paper's treatment of dynamic scheduling: the A-stream waits for
    the R-stream's decision instead of guessing."""
    result = run_mode(DynSched(forward_decisions=True), cfg(), "slipstream")
    assert result.recoveries == 0


def test_recovery_cost_is_charged():
    """A run with recoveries must not be faster than the same run with
    divergence disabled (the wrong-path work and refork cost are real)."""
    divergent = run_mode(DynSched(divergent=True), cfg(), "slipstream")
    clean = run_mode(DynSched(divergent=False), cfg(), "slipstream")
    assert divergent.exec_cycles > clean.exec_cycles


def test_recovered_run_completes_all_r_streams():
    result = run_mode(DynSched(divergent=True, rounds=6), cfg(),
                      "slipstream")
    # the run terminated (all R-streams finished), despite recoveries
    assert result.exec_cycles > 0
    assert len(result.task_breakdowns) == 2


def test_benign_benchmarks_do_not_recover():
    """The paper: 'the benchmarks used do not require recovery'."""
    from repro.workloads import make
    for name in ("sor", "cg"):
        result = run_mode(make(name), cfg(n=4, l1_size=4096,
                                          l2_size=64 * 1024), "slipstream")
        assert result.recoveries == 0, name


def test_deviation_check_disabled_by_large_lag():
    config = cfg(deviation_lag_sessions=10 ** 6)
    result = run_mode(DynSched(divergent=True), config, "slipstream")
    assert result.recoveries == 0


def test_recovery_resyncs_input_forwarding():
    """A reforked A-stream must continue the Input sequence where the
    session seek left it, not restart at zero."""
    from repro.runtime import ops as op
    from repro.workloads import compile_program

    def program():
        yield op.Input("a")
        yield op.Barrier("b")
        yield op.Input("b")
        yield op.Barrier("b")
        yield op.Input("c")

    tape = compile_program(program(), lambda addr: addr)
    step, inputs = tape.seek_session(2)
    assert inputs == 2
    code, arg = tape.steps[step]
    assert isinstance(tape.objs[arg], op.Input)


def test_recovery_preserves_prerecovery_statistics():
    """Counters from a killed A-stream still appear in the run result."""
    result = run_mode(DynSched(divergent=True), cfg(), "slipstream")
    assert result.recoveries >= 1
    # the pre-recovery executor did work; totals must be nonzero
    assert result.stores_skipped + result.stores_converted > 0
