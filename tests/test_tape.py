"""The op-tape: compiler, session seeks, per-role tapes, frozen evidence.

Every run replays compiled tapes.  The generator path these tests once
compared against live is gone; its evidence is the golden corpus
(tests/test_golden.py), recorded while both paths existed and agreed.
The differential tests below keep their inputs as corpus entries and
check them against it, together with their own asserts.

Also covers the tape compiler itself (compute coalescing, address
pre-translation, session boundaries against a reference
:func:`fast_forward`) and the per-role tapes of role-dependent workloads.
"""

from typing import Iterator, Optional

import pytest

from repro.memory.address import AddressSpace, SharedAllocator
from repro.runtime import ops as op
from repro.runtime.ops import OP_COMPUTE, OP_GENERIC, OP_LOAD, OP_STORE
from repro.runtime.task import TaskContext
from repro.slipstream.arsync import POLICIES
from repro.workloads import DynSched, Fuzz, TapeCache, compile_program
from tests.test_golden import check


def allocated(workload, n_tasks=2):
    """Give ``workload`` its shared arrays, as run_mode would."""
    space = AddressSpace(n_tasks, line_size=64)
    workload.allocate(SharedAllocator(space), n_tasks,
                      lambda t: t % n_tasks)
    return workload, space


def fast_forward(program: Iterator, sessions: int,
                 counters: Optional[dict] = None) -> Iterator:
    """Reference for :meth:`OpTape.seek_session`: consume ops until
    ``sessions`` session boundaries have passed and return the program
    positioned just after; ``counters["inputs"]`` receives the number of
    skipped ``Input`` ops."""
    skipped = 0
    inputs = 0
    while skipped < sessions:
        try:
            operation = next(program)
        except StopIteration:
            break
        if isinstance(operation, (op.Barrier, op.EventWait)):
            skipped += 1
        elif isinstance(operation, op.Input):
            inputs += 1
    if counters is not None:
        counters["inputs"] = inputs
    return program


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
    """Tape session boundaries must agree with a fast-forward over the
    program on both the resume position and the skipped Inputs."""
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


# ----------------------------------------------------------------------
# Frozen differential: workloads x modes
# ----------------------------------------------------------------------
#: the last input is the standing micro: ocean on 4 CMPs, slipstream, G1
@pytest.mark.parametrize("case_id", [
    "sor/single/dir-inv/plain", "sor/double/dir-inv/plain",
    "sor/slip-G1/dir-inv/plain", "ocean-default@4/slip-G1/dir-inv/plain"],
    ids=["single", "double", "slipstream", "micro-ocean@4"])
def test_tape_matches_oracle_across_modes(case_id):
    check(case_id)


def test_tape_matches_oracle_small_cg():
    check("cg-nnz8/slip-G1/dir-inv/plain")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fft", "lu", "mg", "ocean", "sp",
                                  "water-ns", "water-sp"])
@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_tape_matches_oracle_full_sweep(name, mode):
    check(f"{name}-default/{mode}/dir-inv/plain")


# ----------------------------------------------------------------------
# Frozen differential: token policies, extensions, observers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_tape_matches_oracle_across_token_policies(policy):
    check(f"sor/slip-{policy.name}/dir-inv/plain")


def test_tape_matches_oracle_with_transparent_and_si():
    result = check("sor/slip-si/dir-inv/plain")
    assert result.transparent_loads_issued > 0


def test_tape_matches_oracle_under_checkers_and_metrics():
    """--check and --metrics runs reproduce their frozen checker fire
    counts and metric values (both are in the hashed fields)."""
    result = check("sor/slip-G1/dir-inv/check+metrics")
    assert result.check_stats is not None
    assert result.metrics


def test_tape_matches_oracle_on_fuzz_workloads():
    """Seeded fuzz programs (loads/stores/locks/inputs in random
    proportions) reproduce their frozen end-states in every mode."""
    for seed in (1, 7, 42, 31415):
        for mode in ("single", "double", "slipstream"):
            check(f"fuzz-{seed}/{mode}/dir-inv/plain")


# ----------------------------------------------------------------------
# Frozen differential: recovery reforks under injected faults
# ----------------------------------------------------------------------
def test_tape_refork_matches_oracle_under_astream_corruption():
    """A corrupted A-stream is killed and reforked from the tape at the
    R-stream's session, reproducing the frozen end-state."""
    result = check("sor-i3/slip-G1/dir-inv/astream-corrupt")
    assert result.recoveries >= 1
    assert result.astream_corruptions >= 1


def test_tape_matches_oracle_under_chaos_faults():
    check("sor/slip-G1/dir-inv/mixed-faults")


# ----------------------------------------------------------------------
# Per-role tapes
# ----------------------------------------------------------------------
def tape_cache(workload, n_tasks=2):
    workload, space = allocated(workload, n_tasks)
    return TapeCache(workload, n_tasks, space.line_of)


def test_divergent_dynsched_gets_per_role_tapes():
    """DynSched in divergent mode emits different ops for the A-stream,
    so each role is traced into its own tape; the A tape carries the
    wrong-path chunks and is the one a refork seeks."""
    workload = DynSched(chunks=8, chunk_lines=4)
    assert workload.role_independent is False
    tapes = tape_cache(workload)
    r_tape, a_tape = tapes.tape_for(0, "R"), tapes.tape_for(0, "A")
    assert r_tape is tapes.tape_for(0, "R")
    assert a_tape is not r_tape
    assert len(a_tape) > len(r_tape)
    assert a_tape.n_sessions == r_tape.n_sessions


def test_forwarding_dynsched_is_traceable_and_identical():
    """With decision forwarding the stream ignores the role: one tape per
    task serves every role, and the run reproduces its corpus entry."""
    workload = DynSched(chunks=8, chunk_lines=4, forward_decisions=True)
    assert workload.role_independent is True
    tapes = tape_cache(workload)
    assert tapes.tape_for(1, "R") is tapes.tape_for(1, "A")
    assert tapes.tape_for(1, "N") is tapes.tape_for(1, "R")
    check("dynsched-fwd/slip-G1/dir-inv/plain")
