"""Tests for the content-addressed on-disk result cache.

Covers cache-key stability across processes, invalidation when the
machine configuration changes, warm-cache execution performing zero
simulations, and graceful handling of corrupt entries."""

import multiprocessing
import pytest

from repro.experiments.cache import (CACHE_FORMAT_VERSION, ResultCache,
                                     result_key, source_fingerprint)
from repro.experiments.driver import DOUBLE, SINGLE, SLIPSTREAM
from repro.experiments.runner import Runner, RunSpec, execute_spec


def spec(mode=SINGLE, name="sor", n=2, **kw) -> RunSpec:
    return RunSpec(workload=name, mode=mode, n_cmps=n, **kw)


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------
def _child_key(payload):
    mode, overrides = payload
    return spec(mode=mode, config_overrides=overrides).key()


def test_key_stable_across_processes():
    """The content hash must not depend on per-process state (PYTHONHASHSEED,
    import order, id()s) — pool workers and later invocations must agree."""
    subject = spec(mode=SLIPSTREAM, config_overrides=(("net_time", 150),))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        child = pool.apply(_child_key, ((SLIPSTREAM, (("net_time", 150),)),))
    assert child == subject.key()


def test_key_repeatable_within_process():
    assert spec().key() == spec().key()


def test_key_depends_on_spec_content():
    baseline = spec().key()
    assert spec(mode=DOUBLE).key() != baseline
    assert spec(n=4).key() != baseline
    assert spec(name="ocean").key() != baseline
    assert spec(mode=SLIPSTREAM, policy="L0").key() != \
        spec(mode=SLIPSTREAM, policy="L1").key()


def test_key_invalidated_by_config_overrides():
    """Changing any MachineConfig field — even one RunSpec doesn't name
    directly — must produce a different key."""
    baseline = spec().key()
    assert spec(config_overrides=(("net_time", 400),)).key() != baseline
    assert spec(config_overrides=(("l2_size", 32 * 1024),)).key() != baseline
    assert spec(config_overrides=(("seed", 999),)).key() != baseline


def test_key_includes_format_version_and_source(monkeypatch):
    baseline = spec().key()
    monkeypatch.setattr("repro.experiments.cache.CACHE_FORMAT_VERSION",
                        CACHE_FORMAT_VERSION + 1)
    assert spec().key() != baseline
    assert len(source_fingerprint()) == 64  # sha256 hex


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------
def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    result = execute_spec(spec())
    key = spec().key()
    assert cache.get(key) is None          # cold
    cache.put(key, result)
    assert key in cache and len(cache) == 1
    revived = cache.get(key)
    assert revived.exec_cycles == result.exec_cycles
    assert revived.fabric_stats == result.fabric_stats
    assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1


def test_corrupt_entry_degrades_to_miss(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(spec())
    key = spec().key()
    cache.put(key, result)
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.get(key) is None


@pytest.mark.parametrize("payload", [
    "",                                  # truncated to nothing
    '{"workload": "sor", "mo',           # truncated mid-write
    "[1, 2, 3]",                         # valid JSON, wrong shape
    '"just a string"',                   # valid JSON, wrong type
    '{"unrelated": true}',               # object missing required fields
    "null",
    '{"workload": "sor", "mode": "single", "n_cmps": 2, "exec_cycles": 7, '
    '"metrics": [1, 2]}',                # metrics blob with the wrong shape
], ids=["empty", "truncated", "list", "string", "wrong-keys", "null",
        "bad-metrics"])
def test_unreadable_entry_shapes_degrade_to_miss(payload, tmp_path):
    """No on-disk state may crash the cache: every malformed entry is a
    miss, and a subsequent put overwrites it cleanly."""
    cache = ResultCache(tmp_path)
    result = execute_spec(spec())
    key = spec().key()
    (tmp_path / f"{key}.json").write_text(payload)
    assert cache.get(key) is None
    cache.put(key, result)                # overwrite the corpse
    revived = cache.get(key)
    assert revived is not None
    assert revived.exec_cycles == result.exec_cycles


def test_corrupt_entry_is_quarantined_not_reparsed(tmp_path):
    """A broken entry must be renamed to ``*.json.corrupt`` on first
    read — kept for inspection, never parsed (and rejected) again."""
    cache = ResultCache(tmp_path)
    key = spec().key()
    path = tmp_path / f"{key}.json"
    path.write_text("{not json")
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert not path.exists()
    assert path.with_name(f"{key}.json.corrupt").exists()
    assert len(cache) == 0                 # quarantined files don't count
    # second miss is a plain stat failure: nothing new to quarantine
    assert cache.get(key) is None
    assert cache.quarantined == 1
    # a fresh put then serves hits again, leaving the evidence in place
    cache.put(key, execute_spec(spec()))
    assert cache.get(key) is not None
    assert path.with_name(f"{key}.json.corrupt").exists()


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(spec().key(), execute_spec(spec()))
    assert cache.clear() == 1 and len(cache) == 0


def test_clear_removes_quarantined_files(tmp_path):
    cache = ResultCache(tmp_path)
    key = spec().key()
    (tmp_path / f"{key}.json").write_text("garbage")
    assert cache.get(key) is None
    assert cache.clear() == 0              # no live entries, corpse removed
    assert list(tmp_path.glob("*.corrupt")) == []


# ----------------------------------------------------------------------
# Runner integration: warm cache means zero simulations
# ----------------------------------------------------------------------
def test_warm_cache_runs_zero_simulations(tmp_path, monkeypatch):
    specs = [spec(mode=SINGLE), spec(mode=DOUBLE),
             spec(mode=SLIPSTREAM, policy="G1")]
    cold = Runner(cache=ResultCache(tmp_path))
    first = cold.run_batch(specs)
    assert cold.last_stats.executed == len(specs)

    def boom(*args, **kwargs):
        raise AssertionError("run_mode called despite a warm cache")

    monkeypatch.setattr("repro.experiments.runner.run_mode", boom)
    warm = Runner(cache=ResultCache(tmp_path))  # fresh process-equivalent
    second = warm.run_batch(specs)
    stats = warm.last_stats
    assert stats.executed == 0 and stats.cache_hits == len(specs)
    for a, b in zip(first, second):
        assert a.exec_cycles == b.exec_cycles
        assert a.fabric_stats == b.fabric_stats


def test_cache_differentiates_configs(tmp_path):
    """Same workload/mode at different overrides must not collide."""
    cache = ResultCache(tmp_path)
    runner = Runner(cache=cache)
    fast, slow = (spec(config_overrides=(("net_time", 10),)),
                  spec(config_overrides=(("net_time", 400),)))
    results = runner.run_batch([fast, slow])
    assert results[0].exec_cycles != results[1].exec_cycles
    warm = Runner(cache=ResultCache(tmp_path))
    again = warm.run_batch([fast, slow])
    assert [r.exec_cycles for r in again] == \
        [r.exec_cycles for r in results]
    assert warm.last_stats.executed == 0
