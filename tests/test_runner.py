"""Tests for the declarative experiment runner (RunSpec / Runner).

Covers spec canonicalization, per-run config isolation (the sequential
``n_cmps`` rewrite must not leak between specs), in-batch deduplication,
serial-vs-pooled determinism, and the RunResult JSON round-trip."""

import json
import sys
import threading

import pytest

from repro.experiments import figures
from repro.experiments.driver import (DOUBLE, SEQUENTIAL, SINGLE, SLIPSTREAM,
                                      RunResult, run_mode)
from repro.experiments.runner import (BatchStats, Runner, RunSpec,
                                      execute_spec)
from repro.experiments.supervisor import SupervisorConfig
from repro.stats.timebreakdown import TimeBreakdown
from repro.workloads import make


def spec(mode=SINGLE, name="sor", n=2, **kw) -> RunSpec:
    return RunSpec(workload=name, mode=mode, n_cmps=n, **kw)


# ----------------------------------------------------------------------
# RunSpec semantics
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        spec(mode="warp")


def test_spec_rejects_unknown_policy():
    with pytest.raises(KeyError):
        spec(mode=SLIPSTREAM, policy="Z9")


def test_spec_canonicalization():
    # non-slipstream modes carry no policy; slipstream defaults to G1
    assert spec(mode=SINGLE, policy="L0").policy is None
    assert spec(mode=SLIPSTREAM).policy == "G1"
    # implied flags resolve exactly as run_mode resolves them
    assert spec(mode=SLIPSTREAM, si=True).transparent
    assert spec(mode=SLIPSTREAM, speculative_barriers=True).forwarding
    # overrides are sorted, so equal content compares (and hashes) equal
    a = spec(config_overrides=(("net_time", 10), ("mem_time", 20)))
    b = spec(config_overrides=(("mem_time", 20), ("net_time", 10)))
    assert a == b and hash(a) == hash(b) and a.key() == b.key()


def test_spec_equality_drives_dedup():
    assert spec(mode=SINGLE) == spec(mode=SINGLE, policy="G1")
    assert spec(mode=SINGLE) != spec(mode=DOUBLE)
    assert spec(n=2) != spec(n=4)


def test_resolve_config_returns_fresh_instances():
    s = spec()
    first, second = s.resolve_config(), s.resolve_config()
    assert first == second and first is not second
    # mutating one run's config cannot contaminate the next run's
    first.n_cmps = 99
    assert s.resolve_config().n_cmps == 2


def test_resolve_config_applies_overrides():
    s = spec(config_overrides=(("net_time", 400),))
    config = s.resolve_config()
    assert config.net_time == 400
    assert config.n_cmps == 2


def test_batch_safely_mixes_n_cmps_and_sequential():
    # A sequential spec (which rewrites n_cmps inside run_mode) next to
    # other CMP counts: each run resolves its own config, nothing leaks.
    specs = [spec(mode=SEQUENTIAL, n=1), spec(mode=SINGLE, n=2),
             spec(mode=SINGLE, n=4)]
    results = Runner().run_batch(specs)
    assert [r.n_cmps for r in results] == [1, 2, 4]
    assert [r.mode for r in results] == [SEQUENTIAL, SINGLE, SINGLE]


# ----------------------------------------------------------------------
# Runner execution, dedup, statistics
# ----------------------------------------------------------------------
def test_run_batch_matches_direct_run_mode():
    result = Runner().run(spec(mode=DOUBLE))
    direct = run_mode(make("sor"), spec().resolve_config(), DOUBLE)
    assert result.exec_cycles == direct.exec_cycles
    assert result.fabric_stats == direct.fabric_stats


def test_run_batch_dedups_within_batch():
    runner = Runner()
    results = runner.run_batch([spec(), spec(mode=DOUBLE), spec(), spec()])
    stats = runner.last_stats
    assert stats.total == 4 and stats.unique == 2 and stats.executed == 2
    assert results[0] is results[2] is results[3]
    assert results[0].exec_cycles != results[1].exec_cycles


def test_runner_memo_spans_batches(monkeypatch):
    runner = Runner()
    first = runner.run_batch([spec()])[0]

    def boom(*a, **k):
        raise AssertionError("simulated twice despite memo")

    monkeypatch.setattr("repro.experiments.runner.run_mode", boom)
    again = runner.run_batch([spec()])[0]
    assert again is first
    assert runner.last_stats.memo_hits == 1
    assert runner.last_stats.executed == 0


def fake_execute(spec):
    """A stand-in simulation that encodes its spec in the result."""
    return RunResult(workload=spec.workload, mode=spec.mode,
                     n_cmps=spec.n_cmps, exec_cycles=spec.max_cycles,
                     policy=spec.policy)


def test_memoized_reads_the_memo_only(monkeypatch):
    monkeypatch.setattr("repro.experiments.runner.execute_spec", fake_execute)
    runner = Runner(config_overrides={"check": True})
    one = spec(max_cycles=7)
    assert runner.memoized(one) is None
    result = runner.run(one)
    # the Runner's own overrides are applied before the memo lookup
    assert runner.memoized(one) is result
    assert runner.memoized(spec(max_cycles=8)) is None
    assert runner.total_stats.total == 1          # no stats recorded
    assert Runner().memoized(one) is None


def test_memoized_under_a_concurrent_writer(monkeypatch):
    """Readers polling ``memoized`` while a thread fills the memo only
    ever see the result of the spec they asked for."""
    monkeypatch.setattr("repro.experiments.runner.execute_spec", fake_execute)
    runner = Runner()
    specs = [spec(max_cycles=1000 + i) for i in range(200)]
    errors = []
    done = threading.Event()

    def writer():
        try:
            for one in specs:
                runner.run_batch([one])
        finally:
            done.set()

    def reader(offset):
        while not done.is_set():
            for one in specs[offset::4]:
                result = runner.memoized(one)
                if result is not None and result.exec_cycles != one.max_cycles:
                    errors.append((one.max_cycles, result.exec_cycles))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert all(runner.memoized(one).exec_cycles == one.max_cycles
               for one in specs)


def test_runner_records_wall_time():
    runner = Runner()
    result = runner.run_batch([spec()])[0]
    assert result.wall_seconds > 0
    stats = runner.last_stats
    assert stats.serial_seconds >= result.wall_seconds
    assert stats.wall_seconds > 0
    assert runner.total_stats.total == 1


def test_oversubscribed_jobs_capped_to_cpu_count(monkeypatch, capsys):
    import repro.experiments.runner as runner_mod
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 2)
    runner = Runner(jobs=8)
    assert runner.jobs == 8              # the pool still exists on the ask
    assert runner.jobs_effective == 2    # but workers are CPU-capped
    note = capsys.readouterr().err
    assert "jobs=8" in note and "capping pool workers at 2" in note


def test_oversubscribed_pool_sized_from_capped_jobs(monkeypatch, capsys):
    """The pool gets the CPU-capped worker count on every construction
    path, the serving CLI's included."""
    import repro.experiments.runner as runner_mod
    from repro.serve import __main__ as serve_cli
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 2)
    assert Runner(jobs=8).pool.workers == 2
    assert Runner(jobs=8, supervisor=SupervisorConfig()).pool.workers == 2
    args = serve_cli.build_parser().parse_args(
        ["--no-cache", "--supervised", "--jobs", "8"])
    assert serve_cli.make_server(args).service.runner.pool.workers == 2


def test_jobs_within_cpu_count_not_capped_and_silent(monkeypatch, capsys):
    import repro.experiments.runner as runner_mod
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 4)
    runner = Runner(jobs=3)
    assert runner.jobs_effective == 3
    assert capsys.readouterr().err == ""


def test_batch_stats_record_requested_and_effective_jobs(monkeypatch):
    import repro.experiments.runner as runner_mod
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 1)
    runner = Runner(jobs=4)
    stats = runner.run_batch([spec()]) and runner.last_stats
    assert stats.jobs == 1 and stats.jobs_requested == 4
    assert runner.total_stats.jobs == 1
    assert runner.total_stats.jobs_requested == 4


def test_batch_stats_merge_and_summary():
    merged = BatchStats(total=2, unique=2, executed=2, jobs=1,
                        serial_seconds=1.0, wall_seconds=1.0).merged_with(
        BatchStats(total=3, unique=1, cache_hits=1, jobs=4,
                   serial_seconds=2.0, wall_seconds=0.5))
    assert merged.total == 5 and merged.jobs == 4
    assert merged.speedup == pytest.approx(2.0)
    assert "5 runs requested" in merged.summary()
    # `unique` counts memo hits too: they are not deduplicated again
    assert "1 memoized, 1 deduplicated in-batch" in BatchStats(
        total=3, unique=2, memo_hits=1, executed=1).summary()


def test_figures_share_runs_through_the_module_runner(monkeypatch):
    """figure6's policy sweep must reuse figure5's simulations (the
    fig5-warms/fig6-hits dedup the runner exists for)."""
    previous = figures.set_runner(Runner())
    try:
        monkeypatch.setitem(figures.COMPARISON_CMPS, "sor", 2)
        figures.figure5(("sor",), (2,))
        assert figures.get_runner().last_stats.executed == 6
        data = figures.figure6(("sor",))
        assert figures.get_runner().last_stats.executed == 0
        assert data["sor"]["policy"] in ("L1", "L0", "G1", "G0")
    finally:
        figures.set_runner(previous)


# ----------------------------------------------------------------------
# Determinism: pooled == serial, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_pooled_execution_bit_identical_to_serial():
    specs = [spec(mode=SINGLE), spec(mode=DOUBLE),
             spec(mode=SLIPSTREAM, policy="G1"),
             spec(mode=SLIPSTREAM, policy="L1", si=True)]
    serial = Runner(jobs=1).run_batch(specs)
    pooled = Runner(jobs=4).run_batch(specs)
    for s, p in zip(serial, pooled):
        assert s.exec_cycles == p.exec_cycles
        assert s.fabric_stats == p.fabric_stats
        assert [b.as_dict() for b in s.task_breakdowns] == \
               [b.as_dict() for b in p.task_breakdowns]


@pytest.mark.slow
def test_cli_jobs_json_byte_identical_to_serial(capsys, tmp_path):
    """`fig5 --jobs N --json` must emit byte-identical output to the
    serial run, and a rerun against the warm cache must also match."""
    from repro.experiments.__main__ import main
    base = ["fig5", "--workloads", "sor", "--cmps", "2", "--json"]
    assert main(base + ["--no-cache"]) == 0
    serial = capsys.readouterr().out
    cache_dir = str(tmp_path / "cache")
    assert main(base + ["--jobs", "2", "--cache-dir", cache_dir]) == 0
    pooled = capsys.readouterr().out
    assert main(base + ["--jobs", "2", "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr()
    assert pooled == serial
    assert warm.out == serial
    assert "0 simulated" in warm.err


# ----------------------------------------------------------------------
# RunResult JSON round-trip
# ----------------------------------------------------------------------
def test_runresult_roundtrip_through_json():
    result = execute_spec(spec(mode=SLIPSTREAM, policy="L0"))
    revived = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert revived.exec_cycles == result.exec_cycles
    assert revived.fabric_stats == result.fabric_stats
    assert revived.request_classes == result.request_classes
    assert [b.as_dict() for b in revived.task_breakdowns] == \
           [b.as_dict() for b in result.task_breakdowns]
    assert revived.mean_astream_breakdown.as_dict() == \
           result.mean_astream_breakdown.as_dict()
    assert revived.wall_seconds == result.wall_seconds


def test_runresult_roundtrip_restores_int_policy_keys():
    result = RunResult(workload="sor", mode=SLIPSTREAM, n_cmps=2,
                       exec_cycles=123, policy="G1",
                       task_breakdowns=[TimeBreakdown(busy=5, stall=7)],
                       final_policies={0: "G1", 1: "L0"})
    revived = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert revived.final_policies == {0: "G1", 1: "L0"}
    assert revived.task_breakdowns[0].busy == 5
