"""Tests for the deterministic fault-injection layer (``repro.faults``).

Covers every fault model (network jitter, request drops with retry/
backoff/watchdog, A-R token loss, A-stream corruption, CPU stalls),
the recovery path those faults exercise (deviation -> kill -> refork ->
tape seek), graceful degradation (demote after K reforks, later
re-promotion), and the determinism contract: a fixed ``(seed,
fault_seed)`` reproduces the identical run bit for bit, a different
fault seed produces a different fault schedule, and zero rates draw
nothing at all.

Every faulted run here executes with the ``repro.check`` invariant
sanitizer enabled — a violation raises, so passing means the machine
invariants survived the injected faults.
"""

import hashlib

import pytest

from repro.config import scaled_config
from repro.experiments.driver import run_mode
from repro.slipstream.arsync import POLICIES
from repro.workloads.sor import SOR


def sor(iterations=2):
    return SOR(rows=24, cols=16, iterations=iterations)


def fault_cfg(**kw):
    params = dict(faults=True, fault_seed=1, check=True)
    params.update(kw)
    return scaled_config(2, **params)


def chaos_cfg(**kw):
    params = dict(fault_net_jitter_rate=0.2, fault_net_jitter_max=40,
                  fault_net_drop_rate=0.05, fault_token_loss_rate=0.1,
                  fault_astream_corrupt_rate=0.03,
                  fault_cpu_stall_rate=0.005, fault_cpu_stall_cycles=200)
    params.update(kw)
    return fault_cfg(**params)


# ----------------------------------------------------------------------
# Zero rates: the injector is installed but must be inert
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_zero_rates_inject_nothing(mode):
    result = run_mode(sor(), fault_cfg(), mode)
    assert result.fault_stats is not None
    assert result.fault_stats["events"] == 0
    # no fault fired, so the schedule fingerprint is the empty digest
    assert result.fault_stats["fingerprint"] == hashlib.sha256().hexdigest()


# ----------------------------------------------------------------------
# Network perturbation
# ----------------------------------------------------------------------
def test_net_jitter_delays_messages_and_is_counted():
    base = run_mode(sor(), fault_cfg(), "single")
    jittered = run_mode(sor(), fault_cfg(fault_net_jitter_rate=0.5),
                        "single")
    assert jittered.fault_stats["net_jitter"] > 0
    assert jittered.fabric_stats["jitter_cycles"] > 0
    assert jittered.exec_cycles > base.exec_cycles


def test_net_drops_are_retried_with_backoff():
    result = run_mode(sor(), fault_cfg(fault_net_drop_rate=0.2), "single")
    assert result.fault_stats["net_drop"] > 0
    assert result.fabric_stats["net_retries"] == result.fault_stats["net_drop"]
    # retries cost time but the run still completes
    assert result.exec_cycles > 0


def test_drop_storm_trips_watchdog_but_completes():
    """With a 100% drop rate every request exhausts its retry budget;
    the watchdog gives up on retrying and the request goes through
    anyway (a NACK storm must degrade throughput, not correctness)."""
    result = run_mode(sor(), fault_cfg(fault_net_drop_rate=1.0,
                                       fault_net_max_retries=3), "single")
    assert result.fabric_stats["watchdog_trips"] > 0
    assert result.fabric_stats["net_retries"] > 0
    assert result.exec_cycles > 0


# ----------------------------------------------------------------------
# Processor slowdown
# ----------------------------------------------------------------------
def test_cpu_stalls_charge_real_cycles():
    base = run_mode(sor(), fault_cfg(), "double")
    stalled = run_mode(sor(), fault_cfg(fault_cpu_stall_rate=0.05),
                       "double")
    assert stalled.fault_stats["cpu_stall"] > 0
    assert stalled.exec_cycles > base.exec_cycles


# ----------------------------------------------------------------------
# A-stream corruption: token loss and forced deviation
# ----------------------------------------------------------------------
def test_token_loss_starves_the_astream_safely():
    result = run_mode(sor(), fault_cfg(fault_token_loss_rate=0.3),
                      "slipstream")
    assert result.tokens_lost > 0
    assert result.fault_stats["token_loss"] == result.tokens_lost


def test_corruption_forces_kill_and_refork():
    """A corrupted A-stream wanders off the R-stream's path; the lag
    check must detect the deviation and drive the real recovery path
    (kill, refork at the R-stream's session from a tape seek)."""
    clean = run_mode(sor(), fault_cfg(), "slipstream")
    result = run_mode(sor(), fault_cfg(fault_astream_corrupt_rate=0.3,
                                       fault_seed=7), "slipstream")
    assert result.astream_corruptions >= 1
    assert result.recoveries >= 1
    # wrong-path work and the refork penalty are real costs
    assert result.exec_cycles > clean.exec_cycles


@pytest.mark.parametrize("fault_seed", [1, 2, 3])
@pytest.mark.parametrize("policy", list(POLICIES),
                         ids=[p.name for p in POLICIES])
def test_recovery_is_checker_clean_across_seeds_and_policies(fault_seed,
                                                             policy):
    """Fault-driven recovery must satisfy every machine invariant for
    every A-R token policy and several fault schedules (the sanitizer
    raises on any violation)."""
    config = fault_cfg(fault_seed=fault_seed,
                       fault_astream_corrupt_rate=0.2,
                       fault_token_loss_rate=0.1)
    result = run_mode(sor(), config, "slipstream", policy=policy,
                      transparent=True, si=True)
    assert result.exec_cycles > 0
    assert sum(result.check_stats.values()) > 0


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
def test_degradation_demotes_after_k_reforks():
    config = fault_cfg(fault_astream_corrupt_rate=0.9, fault_seed=3,
                       degrade_after_reforks=2,
                       degrade_window_sessions=16)
    result = run_mode(sor(iterations=6), config, "slipstream")
    assert result.recoveries >= 2
    assert result.demotions >= 1
    assert result.exec_cycles > 0


def test_degraded_pair_repromotes_later():
    config = fault_cfg(fault_astream_corrupt_rate=0.5, fault_seed=3,
                       degrade_after_reforks=1,
                       degrade_window_sessions=16,
                       repromote_after_sessions=1)
    result = run_mode(sor(iterations=6), config, "slipstream")
    assert result.demotions >= 1
    assert result.promotions >= 1
    assert result.exec_cycles > 0


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
def test_same_fault_seed_is_bit_identical():
    a = run_mode(sor(), chaos_cfg(), "slipstream")
    b = run_mode(sor(), chaos_cfg(), "slipstream")
    assert a.exec_cycles == b.exec_cycles
    assert a.cache_totals == b.cache_totals
    assert a.fabric_stats == b.fabric_stats
    assert a.fault_stats == b.fault_stats  # includes the fingerprint


def test_different_fault_seed_changes_the_schedule():
    a = run_mode(sor(), chaos_cfg(fault_seed=1), "slipstream")
    b = run_mode(sor(), chaos_cfg(fault_seed=2), "slipstream")
    assert a.fault_stats["fingerprint"] != b.fault_stats["fingerprint"]


def test_chaos_profile_is_checker_clean_in_every_mode():
    for mode in ("single", "double", "slipstream"):
        result = run_mode(sor(), chaos_cfg(), mode)
        assert result.exec_cycles > 0
        assert sum(result.check_stats.values()) > 0
