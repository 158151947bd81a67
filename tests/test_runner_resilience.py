"""Tests for the Runner's failure handling.

Covers structured per-spec error records (serial and pooled), the
``fail_fast`` raise-through mode, crash retry with backoff for specs
lost to a dead pool worker (seeded harness chaos), and the rule that
error results are never cached or memoized.
"""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.driver import DOUBLE, SINGLE
from repro.experiments.runner import BatchStats, Runner, RunSpec
from repro.experiments.supervisor import SupervisorConfig
from repro.faults.harness import HarnessChaos


def spec(mode=SINGLE, name="sor", n=2, **kw) -> RunSpec:
    return RunSpec(workload=name, mode=mode, n_cmps=n, **kw)


def boom(run_spec):
    raise ValueError(f"injected failure for {run_spec.label()}")


# ----------------------------------------------------------------------
# Serial execution: structured error records
# ----------------------------------------------------------------------
def test_serial_failure_yields_structured_error(monkeypatch):
    monkeypatch.setattr("repro.experiments.runner.execute_spec", boom)
    runner = Runner()
    result = runner.run_batch([spec()])[0]
    assert result.error is not None
    assert result.error["type"] == "ValueError"
    assert "injected failure" in result.error["message"]
    assert result.error["spec"] == spec().label()
    assert runner.last_stats.failed == 1


def test_serial_fail_fast_raises(monkeypatch):
    monkeypatch.setattr("repro.experiments.runner.execute_spec", boom)
    with pytest.raises(ValueError):
        Runner(fail_fast=True).run_batch([spec()])


def test_error_results_are_not_cached_or_memoized(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    runner = Runner(cache=cache)
    monkeypatch.setattr("repro.experiments.runner.execute_spec", boom)
    assert runner.run_batch([spec()])[0].error is not None
    assert len(cache) == 0 and cache.writes == 0
    # heal the fault: the same Runner must re-attempt, not serve the error
    monkeypatch.undo()
    result = runner.run_batch([spec()])[0]
    assert result.error is None and result.exec_cycles > 0
    assert runner.last_stats.memo_hits == 0
    assert runner.last_stats.executed == 1
    assert len(cache) == 1


# ----------------------------------------------------------------------
# Pooled execution: deterministic worker errors
# ----------------------------------------------------------------------
def test_pooled_worker_error_recorded_in_order():
    """An unknown workload raises inside the pool worker: that is a
    deterministic failure, so it becomes an error result immediately
    (no retry) while the healthy specs complete normally."""
    runner = Runner(jobs=2)
    good, bad = spec(), spec(name="no-such-workload", mode=DOUBLE)
    results = runner.run_batch([good, bad])
    assert results[0].error is None and results[0].exec_cycles > 0
    assert results[1].error is not None
    assert results[1].error["type"] == "KeyError"
    assert runner.last_stats.failed == 1
    assert runner.last_stats.retried == 0


def test_pooled_fail_fast_raises():
    runner = Runner(jobs=2, fail_fast=True)
    with pytest.raises(RuntimeError, match="KeyError"):
        runner.run_batch([spec(), spec(name="no-such-workload", mode=DOUBLE)])


# ----------------------------------------------------------------------
# Crash retry: specs lost to a dead worker are re-run
# ----------------------------------------------------------------------
def chaos_runner(retries=2, fail_fast=False, profile="worker-crash",
                 seed=1) -> Runner:
    return Runner(jobs=2, fail_fast=fail_fast, supervisor=SupervisorConfig(
        retries=retries, retry_backoff_s=0.01, chaos_profile=profile,
        chaos_seed=seed))


def test_crashed_specs_are_retried():
    # A seed whose first draw crashes every spec's worker and whose
    # retry draw is clean.
    specs = [spec(), spec(mode=DOUBLE)]
    rate = HarnessChaos.from_profile("worker-crash").worker_crash_rate
    seed = next(s for s in range(1000) if all(
        HarnessChaos(seed=s, worker_crash_rate=rate)
        .worker_fault(one.key(), attempt) == fault
        for one in specs for attempt, fault in ((0, "crash"), (1, None))))
    runner = chaos_runner(seed=seed)
    results = runner.run_batch(specs)
    assert all(r.error is None for r in results)
    assert results[0].exec_cycles > 0
    stats = runner.last_stats
    assert stats.retried == 2 and stats.failed == 0


def test_crash_retries_exhausted_become_errors():
    runner = chaos_runner(retries=1, profile="poison")
    results = runner.run_batch([spec(), spec(mode=DOUBLE)])
    for result in results:
        assert result.error is not None
        assert result.error["type"] == "WorkerCrash"
        assert result.error["attempts"] == 2  # initial try + 1 retry
    assert runner.last_stats.failed == 2
    assert runner.last_stats.retried == 2


def test_crash_fail_fast_raises():
    runner = chaos_runner(retries=0, fail_fast=True, profile="poison")
    with pytest.raises(RuntimeError, match="WorkerCrash"):
        runner.run_batch([spec(), spec(mode=DOUBLE)])


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
def test_batch_stats_summary_reports_resilience():
    stats = BatchStats(total=3, unique=3, executed=3, failed=1, retried=2,
                       jobs=2, serial_seconds=1.0, wall_seconds=1.0)
    summary = stats.summary()
    assert "1 failed" in summary and "2 retried" in summary


def test_batch_stats_merge_accumulates_failures():
    merged = BatchStats(failed=1, retried=1).merged_with(
        BatchStats(failed=2, retried=0))
    assert merged.failed == 3 and merged.retried == 1
