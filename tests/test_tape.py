"""Differential tests: the op-tape replay path vs the generator oracle.

The tape path (``MachineConfig.compile_tape=True``, the default) must be
*bit-identical* to the generator path — same cycle counts, same time
breakdowns, same cache and fabric statistics, same checker/fault hook
behavior — across workloads, execution modes, token policies, and
recovery reforks.  The generator path is retained exactly so these tests
have an oracle.

Also covers the tape compiler itself (compute coalescing, address
pre-translation, session boundaries vs :func:`fast_forward`) and the
``traceable`` gate for role-divergent workloads.
"""

import pytest

from repro.config import scaled_config
from repro.experiments.driver import run_mode
from repro.memory.address import AddressSpace, SharedAllocator
from repro.runtime import ops as op
from repro.runtime.ops import OP_COMPUTE, OP_GENERIC, OP_LOAD, OP_STORE
from repro.runtime.task import TaskContext
from repro.slipstream.arsync import POLICIES
from repro.slipstream.pair import fast_forward
from repro.workloads import CG, DynSched, Fuzz, SOR, compile_program, make


def sor(iterations=2):
    return SOR(rows=24, cols=16, iterations=iterations)


def cfg(compile_tape, n=2, **kw):
    return scaled_config(n, compile_tape=compile_tape, **kw)


def allocated(workload, n_tasks=2):
    """Give ``workload`` its shared arrays, as run_mode would."""
    space = AddressSpace(n_tasks, line_size=64)
    workload.allocate(SharedAllocator(space), n_tasks,
                      lambda t: t % n_tasks)
    return workload, space


#: every deterministic (non-wall-clock) field of RunResult the two paths
#: must agree on
IDENTICAL_FIELDS = (
    "exec_cycles", "cache_totals", "fabric_stats", "task_breakdowns",
    "astream_breakdowns", "request_classes", "read_breakdown",
    "excl_breakdown", "a_read_requests", "transparent_replies",
    "upgraded_transparent", "si_invalidated", "si_downgraded",
    "recoveries", "stores_converted", "stores_skipped",
    "transparent_loads_issued", "tokens_lost", "astream_corruptions",
    "check_stats", "fault_stats",
)


def assert_identical(tape_result, oracle_result):
    for name in IDENTICAL_FIELDS:
        assert getattr(tape_result, name) == getattr(oracle_result, name), (
            f"tape replay diverged from the generator oracle on {name}: "
            f"{getattr(tape_result, name)!r} != "
            f"{getattr(oracle_result, name)!r}")


def differential(workload_factory, mode, n=2, **run_kwargs):
    on = run_mode(workload_factory(), cfg(True, n), mode, **run_kwargs)
    off = run_mode(workload_factory(), cfg(False, n), mode, **run_kwargs)
    assert_identical(on, off)
    return on


# ----------------------------------------------------------------------
# Tape compiler unit tests
# ----------------------------------------------------------------------
def test_compile_coalesces_adjacent_compute_bursts():
    def program():
        yield op.Compute(3)
        yield op.Compute(4)
        yield op.Load(128)
        yield op.Compute(0)     # zero-cycle bursts vanish entirely
        yield op.Compute(0)
        yield op.Store(256)
        yield op.Compute(5)

    space = AddressSpace(2, line_size=64)
    tape = compile_program(program(), space.line_of)
    assert tape.n_raw == 7
    assert tape.steps == [(OP_COMPUTE, 7), (OP_LOAD, 2), (OP_STORE, 4),
                          (OP_COMPUTE, 5)]


def test_compile_pretranslates_addresses_and_keeps_generic_ops():
    def program():
        yield op.Load(0x40)
        yield op.Barrier("main")
        yield op.Store(0x81)

    space = AddressSpace(2, line_size=64)
    tape = compile_program(program(), space.line_of)
    assert tape.steps == [(OP_LOAD, 1), (OP_GENERIC, 0), (OP_STORE, 2)]
    assert isinstance(tape.objs[0], op.Barrier)


def test_seek_session_matches_fast_forward():
    """Tape session boundaries must agree with the generator-path
    fast-forward on both the resume position and the skipped Inputs."""
    workload, space = allocated(Fuzz(seed=11, sessions=4,
                                     ops_per_session=40))
    tape = compile_program(workload.program(TaskContext(0, 2)),
                           space.line_of)
    for sessions in range(tape.n_sessions + 2):
        counters = {}
        remaining = list(fast_forward(workload.program(TaskContext(0, 2)),
                                      sessions, counters))
        step, inputs = tape.seek_session(sessions)
        # The tape coalesces Computes, so compare the non-compute stream.
        tape_rest = sum(1 for code, _ in tape.steps[step:]
                        if code != OP_COMPUTE)
        oracle_rest = sum(1 for o in remaining
                          if not isinstance(o, op.Compute))
        assert tape_rest == oracle_rest
        assert inputs == counters.get("inputs", 0)


def test_fingerprint_is_stable_and_content_sensitive():
    def tape_for(seed):
        workload, space = allocated(Fuzz(seed=seed, sessions=2))
        return compile_program(workload.program(TaskContext(0, 2)),
                               space.line_of)

    assert tape_for(5).fingerprint() == tape_for(5).fingerprint()
    assert tape_for(5).fingerprint() != tape_for(6).fingerprint()


# ----------------------------------------------------------------------
# Differential: workloads x modes
# ----------------------------------------------------------------------
#: the last input is the standing micro: ocean on 4 CMPs, slipstream, G1
@pytest.mark.parametrize("mode,workload,n", [
    ("single", sor, 2), ("double", sor, 2), ("slipstream", sor, 2),
    ("slipstream", lambda: make("ocean"), 4)],
    ids=["single", "double", "slipstream", "micro-ocean@4"])
def test_tape_matches_oracle_across_modes(mode, workload, n):
    differential(workload, mode, n)


def test_tape_matches_oracle_small_cg():
    differential(lambda: CG(n=128, iterations=2), "slipstream")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fft", "lu", "mg", "ocean", "sp",
                                  "water-ns", "water-sp"])
@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_tape_matches_oracle_full_sweep(name, mode):
    differential(lambda: make(name), mode)


# ----------------------------------------------------------------------
# Differential: token policies, extensions, observers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_tape_matches_oracle_across_token_policies(policy):
    differential(sor, "slipstream", policy=policy)


def test_tape_matches_oracle_with_transparent_and_si():
    result = differential(sor, "slipstream", si=True)
    assert result.transparent_loads_issued > 0


def test_tape_matches_oracle_under_checkers_and_metrics():
    """--check and --metrics runs work on the tape path, with identical
    checker fire counts and identical metric values to the oracle."""
    on = run_mode(sor(), cfg(True), "slipstream", check=True, metrics=True)
    off = run_mode(sor(), cfg(False), "slipstream", check=True, metrics=True)
    assert_identical(on, off)
    assert on.check_stats is not None
    assert on.metrics == off.metrics


# ----------------------------------------------------------------------
# Differential: property-based (hypothesis, fixed seeds)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@given(seed=st.sampled_from([1, 7, 42, 2003, 31415]),
       mode=st.sampled_from(["single", "double", "slipstream"]))
@settings(max_examples=8, deadline=None)
def test_tape_matches_oracle_on_fuzz_workloads(seed, mode):
    """Seeded fuzz programs (loads/stores/locks/inputs in random
    proportions) replay identically on both paths in every mode."""
    differential(lambda: Fuzz(seed=seed, sessions=3, ops_per_session=32),
                 mode)


# ----------------------------------------------------------------------
# Differential: recovery reforks under injected faults
# ----------------------------------------------------------------------
def test_tape_refork_matches_oracle_under_astream_corruption():
    """A/R tape sharing must not change refork behavior: a corrupted
    A-stream is killed and reforked from the shared tape at the
    R-stream's session, exactly as the generator path re-walks the
    program through fast_forward."""
    kwargs = dict(faults=True, fault_seed=1, check=True,
                  fault_astream_corrupt_rate=0.3)
    on = run_mode(sor(iterations=3), cfg(True, **kwargs), "slipstream")
    off = run_mode(sor(iterations=3), cfg(False, **kwargs), "slipstream")
    assert_identical(on, off)
    assert on.recoveries >= 1
    assert on.astream_corruptions >= 1


def test_tape_matches_oracle_under_chaos_faults():
    kwargs = dict(faults=True, fault_seed=3, check=True,
                  fault_net_jitter_rate=0.2, fault_net_jitter_max=40,
                  fault_token_loss_rate=0.1,
                  fault_astream_corrupt_rate=0.05,
                  fault_cpu_stall_rate=0.005, fault_cpu_stall_cycles=200)
    on = run_mode(sor(), cfg(True, **kwargs), "slipstream")
    off = run_mode(sor(), cfg(False, **kwargs), "slipstream")
    assert_identical(on, off)


# ----------------------------------------------------------------------
# The traceable gate
# ----------------------------------------------------------------------
def test_divergent_dynsched_keeps_the_generator_path():
    """DynSched in divergent mode emits different ops for the A-stream,
    so it must not be traced; compile_tape=True silently falls back to
    the generator path and the run completes normally."""
    workload = DynSched(chunks=8, chunk_lines=4)
    assert workload.traceable is False
    result = run_mode(workload, cfg(True), "slipstream")
    assert result.exec_cycles > 0


def test_forwarding_dynsched_is_traceable_and_identical():
    make_workload = lambda: DynSched(chunks=8, chunk_lines=4,
                                     forward_decisions=True)
    assert make_workload().traceable is True
    differential(make_workload, "slipstream")
