"""Tests for the static workload analyzer and the sensitivity sweeps."""

import pytest

from repro.experiments.sensitivity import DEFAULT_SWEEPS, sweep
from repro.workloads import make
from repro.workloads.analyze import analyze
from repro.workloads.sor import SOR


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def test_analyze_counts_ops_exactly():
    workload = SOR(rows=16, cols=16, iterations=1)
    profile = analyze(workload, 2)
    # red-black: 14 interior rows, 2 lines per row, 2 colours:
    # per line: 3 loads + 1 compute + 1 store, plus 2 barriers per task
    interior = 14 * 2
    assert sum(t.loads for t in profile.tasks) == 3 * interior
    assert sum(t.stores for t in profile.tasks) == interior
    assert profile.tasks[0].barriers == 2


def test_analyze_sharing_degree_for_sor():
    profile = analyze(SOR(rows=32, cols=32, iterations=1), 4)
    # nearest-neighbour kernel: lines are shared by at most 2 tasks
    assert profile.max_sharing_degree == 2
    assert 0 < profile.sharing_fraction < 0.7


def test_analyze_broadcast_kernel_has_high_degree():
    profile = analyze(make("water-ns"), 8)
    # the position gather is read by every task
    assert profile.max_sharing_degree == 8
    assert profile.tasks[0].lock_acquires > 0


def test_analyze_balance():
    profile = analyze(SOR(rows=32, cols=32, iterations=1), 4)
    assert profile.imbalance() < 1.3


def test_analyze_summary_keys():
    summary = analyze(SOR(rows=16, cols=16, iterations=1), 2).summary()
    for key in ("tasks", "total_ops", "sessions", "sharing_fraction",
                "comm_per_kcycle", "imbalance"):
        assert key in summary


def test_analyze_private_plus_shared_is_footprint():
    profile = analyze(make("mg"), 4)
    assert profile.private_lines + profile.shared_lines == \
        len(profile.sharing_degree)


# ----------------------------------------------------------------------
# Sensitivity sweeps
# ----------------------------------------------------------------------
def test_sweep_uses_default_values():
    results = sweep("si_drain_interval", values=(4, 64), workload_name="sor",
                    n_cmps=2)
    assert set(results) == {4, 64}
    assert all(v > 0 for v in results.values())


def test_sweep_unknown_parameter():
    with pytest.raises(KeyError):
        sweep("warp_factor")


def test_default_sweeps_include_table1_values():
    assert 50 in DEFAULT_SWEEPS["net_time"]
    assert 50 in DEFAULT_SWEEPS["mem_time"]
    assert 4 in DEFAULT_SWEEPS["si_drain_interval"]


def test_net_time_sweep_covers_default_values():
    results = sweep("net_time", workload_name="sor", n_cmps=2)
    assert set(results) == set(DEFAULT_SWEEPS["net_time"])


def test_slower_network_keeps_most_of_the_benefit():
    """Prefetching hides remote latency: slowing the network from 10 to
    150 cycles keeps at least 90% of the slipstream benefit (ocean@8)."""
    results = sweep("net_time", values=(10, 150), workload_name="ocean",
                    n_cmps=8)
    assert results[150] >= 0.9 * results[10]
