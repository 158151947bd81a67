"""Tests for the seeded load generator (``scripts/loadgen.py``).

Two halves:

* trace determinism — the same seed yields the same request sequence
  (duplicates included), different seeds diverge: the property that
  makes a load run reproducible and the CI smoke meaningful;
* an end-to-end smoke against an in-process service — the ISSUE's
  acceptance scenario (zero shed, at least one coalesced duplicate,
  bit-identity under ``--verify``) plus a latency *budget* check taken
  from the service's own obs histogram, not client wall clocks.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_loadgen():
    """Import ``scripts/loadgen.py`` as a module (scripts/ is not a
    package, so go through importlib)."""
    path = REPO_ROOT / "scripts" / "loadgen.py"
    spec = importlib.util.spec_from_file_location("loadgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loadgen = _load_loadgen()


# ----------------------------------------------------------------------
# Trace determinism
# ----------------------------------------------------------------------
def test_same_seed_same_trace():
    a = loadgen.make_trace(seed=42, n=30)
    b = loadgen.make_trace(seed=42, n=30)
    assert a == b
    assert len(a) == 30


def test_different_seeds_diverge():
    a = loadgen.make_trace(seed=1, n=30)
    b = loadgen.make_trace(seed=2, n=30)
    assert a != b


def test_trace_contains_duplicates_at_default_dup_rate():
    trace = loadgen.make_trace(seed=7, n=20)
    rendered = [json.dumps(spec, sort_keys=True) for spec in trace]
    assert len(set(rendered)) < len(rendered), \
        "dup_rate=0.5 over 20 requests should repeat at least one spec"
    # every spec draws from the declared pools
    for spec in trace:
        assert spec["workload"] in loadgen.DEFAULT_WORKLOADS
        assert spec["mode"] in loadgen.DEFAULT_MODES
        assert spec["n_cmps"] in loadgen.DEFAULT_CMPS


def test_zero_dup_rate_never_duplicates_consecutively_by_construction():
    trace = loadgen.make_trace(seed=3, n=15, dup_rate=0.0)
    # no *explicit* duplicates were injected; collisions can still occur
    # by chance from the tiny pool, but the branch must never fire,
    # which we can only observe via determinism: regenerating with the
    # same arguments is identical
    assert trace == loadgen.make_trace(seed=3, n=15, dup_rate=0.0)


# ----------------------------------------------------------------------
# End-to-end smoke (the acceptance scenario) + latency budget
# ----------------------------------------------------------------------
def test_loadgen_smoke_zero_shed_coalesced_and_verified(capsys):
    # Small single-mode trace: fast, and dup_rate guarantees coalescing
    # pressure under concurrency.
    exit_code = loadgen.main([
        "--spawn", "--seed", "7", "--requests", "8", "--concurrency", "6",
        "--dup-rate", "0.6", "--verify", "--timeout", "600",
    ])
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert exit_code == 0
    assert summary["shed"] == 0
    assert summary["failed"] == 0
    assert summary["coalesced"] >= 1
    assert summary["mismatches"] == []
    assert summary["completed"] == 8
    assert summary["verified"] == 8

    # Latency budget, from the service's own histogram quantiles: the
    # p95 gauge must be finite (inside the top bucket) and the p50 no
    # larger than the p95 — structural properties, not wall-clock
    # assertions, so they hold on slow CI machines too.
    p50, p95 = summary["server_p50_ms"], summary["server_p95_ms"]
    assert p50 is not None and p95 is not None
    assert 0 < p50 <= p95
    assert p95 != float("inf"), \
        "p95 fell in the histogram overflow bucket (> 120s budget edge)"


def test_verify_checks_every_answer_not_only_the_first():
    from repro.experiments.runner import execute_spec
    from repro.serve import spec_from_dict

    spec = {"workload": "sor", "mode": "single", "n_cmps": 1}
    served = execute_spec(spec_from_dict(spec)).to_dict()
    tampered = dict(served, exec_cycles=served["exec_cycles"] + 1)
    records = [{"index": i, "spec": spec, "status": 200, "coalesced": False,
                "error": None, "result": result}
               for i, result in enumerate((served, served, tampered))]
    verified, mismatches = loadgen.verify_against_direct(records)
    assert verified == 3
    assert mismatches == [{"index": 2, "spec": spec,
                           "fields": ["exec_cycles"]}]


def test_loadgen_requires_a_target():
    with pytest.raises(SystemExit):
        loadgen.main([])                    # neither --url nor --spawn


def test_loadgen_allow_shed_flag_tolerates_backpressure():
    records = [{"index": 0, "spec": {}, "status": 429, "shed": True},
               {"index": 1, "spec": {}, "status": 200, "coalesced": False,
                "error": None, "result": {}}]
    summary = loadgen.summarize(records, {})
    assert summary["shed"] == 1
    assert summary["completed"] == 1
    assert summary["server_p95_ms"] is None


@pytest.mark.slow
def test_loadgen_soak_larger_trace(capsys):
    """A larger replay (marked slow): more duplicates, more waves, still
    zero shed and zero failures under the default bounds."""
    exit_code = loadgen.main([
        "--spawn", "--seed", "2003", "--requests", "24",
        "--concurrency", "8", "--dup-rate", "0.5", "--timeout", "900",
    ])
    summary = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert summary["shed"] == 0
    assert summary["failed"] == 0
    assert summary["coalesced"] >= 1
