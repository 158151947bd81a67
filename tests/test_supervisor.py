"""Supervised worker pool: config validation, the circuit breaker,
crash/hang/poison handling, limits, and Runner integration
(``repro.experiments.supervisor``)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import Runner, RunSpec
from repro.experiments.supervisor import (CLOSED, HALF_OPEN, OPEN,
                                          CircuitBreaker, SupervisedPool,
                                          SupervisorConfig)
from repro.faults.harness import HarnessChaos

SMALL = RunSpec(workload="sor", mode="single", n_cmps=2)


def pool(**kwargs):
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("wall_limit_s", 120.0)
    workers = kwargs.pop("workers_override", 2)
    return SupervisedPool(SupervisorConfig(**kwargs), workers=workers)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(breaker_cooldown_s=-1), dict(retries=-1), dict(breaker_threshold=0),
    dict(degrade_window=0), dict(degrade_crash_ratio=0.0),
    dict(degrade_crash_ratio=1.5), dict(retry_backoff_s=-1),
    dict(wall_limit_s=0), dict(rss_limit_mb=0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SupervisorConfig(**kwargs)


def test_config_chaos_profile_resolution():
    assert SupervisorConfig().chaos() is None
    chaos = SupervisorConfig(chaos_profile="poison", chaos_seed=5).chaos()
    assert isinstance(chaos, HarnessChaos)
    assert chaos.seed == 5
    with pytest.raises(ValueError):
        SupervisorConfig(chaos_profile="bogus").chaos()


# ----------------------------------------------------------------------
# Circuit breaker (injected clock: no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_breaker_trips_after_threshold_and_cools_down():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=clock)
    assert breaker.state("k") == CLOSED
    assert not breaker.record_failure("k")
    assert not breaker.record_failure("k")
    assert breaker.allow("k")                 # still closed at 2 failures
    assert breaker.record_failure("k")        # third death trips it
    assert breaker.state("k") == OPEN
    assert not breaker.allow("k")
    clock.t = 10.0                            # cooldown elapsed
    assert breaker.state("k") == HALF_OPEN
    assert breaker.allow("k")                 # one probe admitted
    breaker.record_success("k")
    assert breaker.state("k") == CLOSED


def test_breaker_failed_probe_reopens_immediately():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=clock)
    breaker.record_failure("k")
    breaker.record_failure("k")
    clock.t = 5.0
    assert breaker.state("k") == HALF_OPEN
    assert breaker.record_failure("k")        # probe died: re-trip
    assert breaker.state("k") == OPEN         # full cooldown again
    clock.t = 9.9
    assert not breaker.allow("k")
    assert breaker.trips == 2


def test_breaker_success_resets_the_failure_count():
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=FakeClock())
    breaker.record_failure("k")
    breaker.record_success("k")
    assert not breaker.record_failure("k")    # count restarted from 0
    assert breaker.state("k") == CLOSED


def test_breaker_keys_are_independent():
    breaker = CircuitBreaker(threshold=1, cooldown_s=99.0, clock=FakeClock())
    breaker.record_failure("poison")
    assert not breaker.allow("poison")
    assert breaker.allow("healthy")
    assert breaker.state_counts() == {CLOSED: 0, OPEN: 1, HALF_OPEN: 0}
    assert breaker.open_keys == ["poison"]


# ----------------------------------------------------------------------
# Job execution (real child processes — slow-ish but bounded)
# ----------------------------------------------------------------------
def test_wave_results_are_bit_identical_to_serial():
    supervised = pool()
    result = supervised.run(SMALL)
    assert supervised.counts["completed"] == 1
    assert supervised.counts["failed"] == 0
    direct = Runner(cache=None).run(SMALL)
    supervised_dict = result.to_dict()
    direct_dict = direct.to_dict()
    supervised_dict.pop("wall_seconds")
    direct_dict.pop("wall_seconds")
    assert supervised_dict == direct_dict


def test_poison_spec_trips_breaker_then_short_circuits():
    # rate-1.0 crash profile: every attempt SIGKILLs itself.
    supervised = pool(chaos_profile="poison", retries=2,
                      breaker_threshold=3, breaker_cooldown_s=3600.0)
    result = supervised.run(SMALL)
    assert result.error is not None
    assert result.error["type"] == "WorkerCrash"
    assert result.error["attempts"] == 3          # initial + 2 retries
    assert supervised.counts["worker_crashes"] == 3
    # three consecutive deaths opened the breaker ...
    assert not supervised.breaker.allow(SMALL.key())
    assert not supervised.healthy()
    # ... so the next run never spawns a process for it
    assert supervised.run(SMALL).error["type"] == "CircuitOpen"
    assert supervised.counts["breaker_short_circuits"] == 1
    assert supervised.counts["worker_crashes"] == 3   # unchanged


def test_crash_retry_recovers_on_a_clean_redraw():
    # Seeded sub-1.0 crash rate: find a seed whose first draw crashes
    # and whose retry draw is clean, then prove the retry succeeds.
    key = SMALL.key()
    seed = next(s for s in range(1000)
                if HarnessChaos(seed=s, worker_crash_rate=0.5)
                .worker_fault(key, 0) == "crash"
                and HarnessChaos(seed=s, worker_crash_rate=0.5)
                .worker_fault(key, 1) is None)
    supervised = pool(retries=2)
    supervised.chaos = HarnessChaos(seed=seed, worker_crash_rate=0.5)
    assert supervised.run(SMALL).error is None
    assert supervised.counts["worker_crashes"] == 1
    assert supervised.counts["retries"] == 1
    # the success closed the breaker bookkeeping for the key
    assert supervised.breaker.allow(key)


def test_hang_is_killed_at_the_wall_limit_without_retry():
    supervised = pool(chaos_profile="worker-hang", wall_limit_s=0.5,
                      retries=2)
    # force the hang decision deterministically
    supervised.chaos = HarnessChaos(seed=1, worker_hang_rate=1.0)
    result = supervised.run(SMALL)
    assert result.error is not None
    assert result.error["type"] == "Timeout"
    assert supervised.counts["worker_hangs"] == 1
    assert supervised.counts["retries"] == 0


def test_rss_limit_turns_runaway_allocation_into_memory_error():
    # 64 MiB address space cannot even finish interpreter+sim imports
    # allocating a big buffer; the child reports MemoryError cleanly.
    supervised = pool(rss_limit_mb=64, retries=0)
    result = supervised.run(SMALL)
    # Either the sim fit (tiny workload) or it reported MemoryError —
    # never a crash. Accept both, but assert the *shape* is structured.
    if result.error is not None:
        assert result.error["type"] == "MemoryError"
        assert supervised.counts["failed"] == 1
    assert supervised.counts["worker_crashes"] == 0


def test_health_gate_degrades_and_recovers():
    supervised = pool(degrade_window=4, degrade_crash_ratio=0.5,
                      workers_override=4)
    # four straight worker deaths: ratio 1.0 >= 0.5 -> halve the pool
    for _ in range(4):
        supervised._note_outcome(True)
    assert supervised.workers == 2
    assert supervised.degraded
    assert not supervised.healthy()
    assert supervised.counts["degradations"] == 1
    # clean windows grow it back one step per window
    for _ in range(8):
        supervised._note_outcome(False)
    assert supervised.workers == 4
    assert supervised.degraded is False
    assert supervised.healthy()


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def test_runner_supervised_backend_matches_serial():
    supervised = Runner(jobs=2, cache=None, supervisor=SupervisorConfig(
        retry_backoff_s=0.01))
    serial = Runner(cache=None)
    specs = [RunSpec(workload="sor", mode="single", n_cmps=2),
             RunSpec(workload="sor", mode="double", n_cmps=2)]
    got = supervised.run_batch(specs)
    want = serial.run_batch(specs)
    for a, b in zip(got, want):
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_seconds")
        db.pop("wall_seconds")
        assert da == db
    assert supervised.pool.counts["completed"] == 2


def test_runner_supervisor_true_uses_defaults():
    runner = Runner(cache=None, supervisor=True)
    assert runner.pool is not None
    assert runner.pool.config == SupervisorConfig()


def test_runner_fail_fast_raises_on_supervised_error():
    runner = Runner(cache=None, fail_fast=True, supervisor=SupervisorConfig(
        retries=0, retry_backoff_s=0.01, chaos_profile="poison"))
    with pytest.raises(RuntimeError, match="WorkerCrash"):
        runner.run_batch([SMALL])


def test_supervised_errors_are_not_memoized():
    config = SupervisorConfig(retries=0, retry_backoff_s=0.01,
                              chaos_profile="poison")
    runner = Runner(cache=None, supervisor=config)
    first = runner.run(SMALL)
    assert first.error is not None
    # disarm the chaos: the spec must be re-attempted (not served from
    # memo) and now succeed — modulo the breaker, which we keep closed
    # by using a threshold above the failure count.
    runner.pool.chaos = None
    runner.pool.breaker.record_success(SMALL.key())
    second = runner.run(SMALL)
    assert second.error is None
