"""Tests for the table-driven protocol engine (``repro.memory.proto``).

Four concerns:

* **identity** — the interpreter running the ``dir-inv`` table hits the
  paper's 170/290-cycle pins and reproduces the golden corpus, recorded
  while the former hand-written home handlers still ran beside it and
  agreed (tests/test_golden.py);
* **lint** — the static pass is clean on every registered table and
  catches each class of seeded corruption;
* **dls semantics** — the directoryless variant never invalidates, never
  hints, and recovers coherence by sync-point self-invalidation;
* **plumbing** — protocol selection reaches ``RunResult``, the cache
  key, the metrics export, and the config validator.
"""

import dataclasses

import pytest

from repro.config import PROTOCOLS, MachineConfig, scaled_config
from repro.experiments.cache import ResultCache
from repro.experiments.driver import RunResult, run_mode
from repro.experiments.runner import RunSpec
from repro.machine.system import System
from repro.memory.cache import MODIFIED, SHARED as L_SHARED
from repro.memory.directory import EXCLUSIVE, SHARED as DIR_SHARED, UNCACHED
from repro.memory.proto import (ProtocolHole, Reply, Row, protocol_names,
                                table_by_name)
from repro.memory.proto.dir_inv import TABLE as DIR_INV
from repro.memory.proto.dls import TABLE as DLS
from repro.memory.proto.lint import lint_all, lint_table
from repro.memory.proto.table import Capabilities, Event
from repro.sim import Process
from repro.workloads.sor import SOR
from tests.conftest import tiny_config
from tests.test_golden import check

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def local_line(system, node):
    space = system.space
    for page in range(64):
        line = (page * space.page_size) >> space.line_shift
        if space.home_of_line(line) == node:
            return line
    raise AssertionError("no local line found")


def run_fetch(system, node, line, kind, role="R"):
    out = {}

    def txn():
        start = system.engine.now
        result = yield from system.fabric.fetch(node, line, kind, role)
        out["result"] = result
        out["elapsed"] = system.engine.now - start

    Process(system.engine, txn())
    system.engine.run()
    return out["result"], out["elapsed"]


def codes(table):
    return {e.code for e in lint_table(table)}


def replace_rows(table, rows):
    return dataclasses.replace(table, rows=tuple(rows))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_matches_config_protocols():
    """config.py keeps a literal copy of the registry's names (it cannot
    import the package without a cycle) — they must never drift apart."""
    assert protocol_names() == PROTOCOLS


def test_table_by_name_rejects_unknown():
    assert table_by_name("dir-inv") is DIR_INV
    assert table_by_name("dls") is DLS
    with pytest.raises(ValueError, match="unknown protocol"):
        table_by_name("mesi")


def test_config_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="protocol"):
        MachineConfig(protocol="mesi")


def test_config_rejects_legacy_engine_for_non_baseline():
    """The hand-written home handlers are gone: asking for them (under
    any protocol) must fail loudly, and a served spec that asks gets a
    400, not a silently different machine."""
    from repro.serve.service import spec_from_dict
    for protocol in PROTOCOLS:
        with pytest.raises(TypeError, match="proto_engine"):
            MachineConfig(protocol=protocol, proto_engine=False)
    with pytest.raises(ValueError, match="proto_engine"):
        spec_from_dict({"workload": "sor", "mode": "single", "n_cmps": 2,
                        "config_overrides": {"protocol": "dls",
                                             "proto_engine": False}})


# ----------------------------------------------------------------------
# Paper latencies, per protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_local_clean_miss_is_170_cycles(protocol):
    system = System(tiny_config(n_cmps=4, protocol=protocol))
    line = local_line(system, node=1)
    result, elapsed = run_fetch(system, 1, line, "read")
    assert elapsed == 170
    assert result.state == L_SHARED


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_remote_clean_miss_is_290_cycles(protocol):
    system = System(tiny_config(n_cmps=4, protocol=protocol))
    line = local_line(system, node=2)
    result, elapsed = run_fetch(system, 0, line, "read")
    assert elapsed == 290
    assert result.state == L_SHARED


# ----------------------------------------------------------------------
# Frozen identity: the table engine against the former home handlers
# ----------------------------------------------------------------------
TINY_SOR = lambda: SOR(rows=24, cols=16, iterations=2)


#: the last input is the standing micro: ocean on 4 CMPs, slipstream, G1
@pytest.mark.parametrize("case_id", [
    "sor/single/dir-inv/plain", "sor/double/dir-inv/plain",
    "sor/slip-G1/dir-inv/plain", "ocean-default@4/slip-G1/dir-inv/plain"],
    ids=["single", "double", "slipstream", "micro-ocean@4"])
def test_table_engine_bit_identical_to_generators(case_id):
    """Every deterministic field reproduces the corpus entry recorded
    while the hand-written handlers ran beside the table and agreed."""
    check(case_id)


def test_table_engine_identity_with_extensions():
    """Transparent loads + SI hints + migratory: the table reproduces
    the end-state the hand-written handlers agreed on."""
    result = check("fft/slip-tsm-nometrics/dir-inv/plain")
    assert result.transparent_replies > 0
    assert result.fabric_stats["si_hints_sent"] > 0


# ----------------------------------------------------------------------
# Lint: clean on the registered tables...
# ----------------------------------------------------------------------
def test_lint_clean_on_registered_tables():
    findings = lint_all()
    assert set(findings) == set(PROTOCOLS)
    for name, errors in findings.items():
        assert errors == [], f"{name}: " + "; ".join(map(str, errors))


# ----------------------------------------------------------------------
# ...and loud on seeded corruption
# ----------------------------------------------------------------------
def test_lint_finds_hole():
    holey = replace_rows(DIR_INV, (r for r in DIR_INV.rows
                                   if not (r.state == UNCACHED
                                           and r.event == Event.GETS)))
    assert "hole" in codes(holey)


def test_lint_finds_guarded_hole():
    # Drop dir-inv's unguarded (E, GETS) fallback: the two guarded rows
    # that remain leave a raced request with nowhere to go.
    guarded = replace_rows(DIR_INV, (r for r in DIR_INV.rows
                                     if not (r.state == EXCLUSIVE
                                             and r.event == Event.GETS
                                             and r.guard is None)))
    assert "guarded-hole" in codes(guarded)


def test_lint_finds_dead_row():
    # An unguarded copy of (U, GETS) ahead of the real row shadows it.
    extra = Row(UNCACHED, Event.GETS, actions=("mem_read",),
                via=("BusyMem",), next_state=(UNCACHED,),
                reply=Reply(L_SHARED))
    dead = replace_rows(DIR_INV, (extra,) + DIR_INV.rows)
    assert "dead-row" in codes(dead)


def test_lint_finds_unknown_action():
    bogus = replace_rows(DLS, [dataclasses.replace(
        DLS.rows[-1], commits=("noop",), actions=())] + [
        dataclasses.replace(r, actions=("warp_core_breach",))
        if r.state == UNCACHED and r.event == Event.GETS else r
        for r in DLS.rows])
    assert "unknown-action" in codes(bogus)


def test_lint_finds_data_without_source():
    # Strip the memory read from (U, GETS): the reply promises data from
    # 'mem' but nothing fetches it.
    starved = replace_rows(DLS, [
        dataclasses.replace(r, actions=(), via=())
        if r.state == UNCACHED and r.event == Event.GETS else r
        for r in DLS.rows])
    assert "data-without-source" in codes(starved)


def test_lint_finds_stall_state():
    # next_state naming a transient = an entry that never restabilizes.
    stuck = replace_rows(DLS, [
        dataclasses.replace(r, next_state=("BusyMem",))
        if r.state == UNCACHED and r.event == Event.GETS else r
        for r in DLS.rows])
    assert "stall-state" in codes(stuck)


def test_lint_finds_next_state_mismatch():
    # (U, GETX) commits set_exclusive; declaring U is a lie.
    lying = replace_rows(DLS, [
        dataclasses.replace(r, next_state=(UNCACHED,))
        if r.state == UNCACHED and r.event == Event.GETX else r
        for r in DLS.rows])
    assert "next-state-mismatch" in codes(lying)


def test_lint_finds_state_outside_caps():
    narrow = dataclasses.replace(
        DLS, caps=dataclasses.replace(DLS.caps,
                                      entry_states=(UNCACHED,)))
    assert "state-outside-caps" in codes(narrow)


def test_lint_finds_cap_event_drift():
    # Granting caps.upgrades without UPG rows (and vice versa) is the
    # drift the L2 controller's request gates depend on never happening.
    drifted = dataclasses.replace(
        DLS, caps=dataclasses.replace(DLS.caps, upgrades=True))
    assert "cap-event-missing" in codes(drifted)
    undriven = dataclasses.replace(
        DIR_INV, caps=dataclasses.replace(DIR_INV.caps, upgrades=False))
    assert "event-without-cap" in codes(undriven)


def test_lint_finds_datagram_abuse():
    chatty = replace_rows(DLS, [
        dataclasses.replace(r, actions=("mem_read",),
                            reply=Reply(L_SHARED))
        if r.state == UNCACHED and r.event == Event.WB else r
        for r in DLS.rows])
    found = codes(chatty)
    assert "datagram-acts" in found and "datagram-reply" in found


# ----------------------------------------------------------------------
# Runtime backstop behind the lint
# ----------------------------------------------------------------------
def test_uncovered_event_raises_protocol_hole():
    """dls tables have no UPG rows; if one ever arrived anyway the
    engine must fail loudly instead of silently mis-servicing it."""
    system = System(tiny_config(n_cmps=2, protocol="dls"))
    line = local_line(system, 0)
    entry = system.fabric.directory.entry(line)
    gen = system.fabric._proto.dispatch(0, 0, line, entry, Event.UPG, "R")
    with pytest.raises(ProtocolHole, match="no row"):
        next(gen)


# ----------------------------------------------------------------------
# dls semantics
# ----------------------------------------------------------------------
def test_dls_never_invalidates_or_hints():
    result = run_mode(TINY_SOR(), scaled_config(2, protocol="dls"),
                      "slipstream", transparent=True, si=True)
    assert result.protocol == "dls"
    assert result.fabric_stats["invalidations_sent"] == 0
    assert result.fabric_stats["si_hints_sent"] == 0


def test_dls_store_issues_getx_not_upgrade():
    """With a shared copy resident, a dir-inv store upgrades; a dls
    store must take the full GETX path (the home can't ack an upgrade
    it has no sharer vector to validate)."""
    system = System(tiny_config(n_cmps=2, protocol="dls"))
    line = local_line(system, 1)
    run_fetch(system, 0, line, "read")
    system.nodes[0].ctrl.l2.insert(line, L_SHARED)
    result, _ = run_fetch(system, 0, line, "excl")
    assert result.state == MODIFIED
    assert not result.upgraded
    entry = system.fabric.directory.peek(line)
    assert entry.state == EXCLUSIVE and entry.owner == 0


def test_dls_directory_never_enters_shared():
    system = System(tiny_config(n_cmps=2, protocol="dls"))
    line = local_line(system, 1)
    for node in (0, 1):
        run_fetch(system, node, line, "read")
    entry = system.fabric.directory.peek(line)
    # clean copies are untracked: the home stays out of S entirely
    assert entry is None or entry.state == UNCACHED


def test_dls_sync_point_self_invalidates_clean_lines():
    system = System(tiny_config(n_cmps=2, protocol="dls"))
    ctrl = system.nodes[0].ctrl
    assert ctrl.sync_si
    clean = local_line(system, 1)
    dirty = local_line(system, 0)
    run_fetch(system, 0, clean, "read")
    ctrl.l2.insert(clean, L_SHARED)
    run_fetch(system, 0, dirty, "excl")
    ctrl.l2.insert(dirty, MODIFIED)
    ctrl.sync_self_invalidate()
    assert ctrl.l2.probe(clean) is None       # stale shared copy gone
    assert ctrl.l2.probe(dirty) is not None   # dirty data never dropped
    assert ctrl.sync_invalidations == 1


def test_dir_inv_never_bulk_self_invalidates():
    system = System(tiny_config(n_cmps=2))
    ctrl = system.nodes[0].ctrl
    assert not ctrl.sync_si
    line = local_line(system, 1)
    run_fetch(system, 0, line, "read")
    ctrl.l2.insert(line, L_SHARED)
    # executor only calls sync_self_invalidate when sync_si is set; the
    # shared copy survives synchronization under the directory protocol
    assert ctrl.l2.probe(line) is not None


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_dls_runs_check_clean(mode):
    """The invariant sanitizer (capability-parameterized) accepts full
    dls runs, including the randomized fuzz workload."""
    from repro.workloads.fuzz import Fuzz
    run_mode(TINY_SOR(), scaled_config(2, protocol="dls", check=True),
             mode)
    run_mode(Fuzz(seed=3, sessions=4, ops_per_session=32),
             scaled_config(2, protocol="dls", check=True), mode)


# ----------------------------------------------------------------------
# Plumbing: result, cache key, metrics
# ----------------------------------------------------------------------
def test_run_result_records_protocol():
    result = run_mode(TINY_SOR(), scaled_config(2), "single")
    assert result.protocol == "dir-inv"
    revived = RunResult.from_dict(result.to_dict())
    assert revived.protocol == "dir-inv"


def test_cache_key_depends_on_protocol():
    base = RunSpec(workload="sor", mode="single", n_cmps=2)
    dls = RunSpec(workload="sor", mode="single", n_cmps=2,
                  config_overrides=(("protocol", "dls"),))
    assert base.key() != dls.key()


def test_metrics_export_has_transition_counters():
    result = run_mode(TINY_SOR(), scaled_config(2), "single",
                      metrics=True)
    series = [k for k in result.metrics if k.startswith("proto.transition")]
    assert series, "no proto.transition series in the metrics export"
    assert "proto=dir-inv" in series[0]


def test_from_dict_rejects_missing_or_unknown_protocol():
    blob = run_mode(TINY_SOR(), scaled_config(2), "single").to_dict()
    stale = dict(blob)
    del stale["protocol"]
    with pytest.raises(ValueError, match="protocol"):
        RunResult.from_dict(stale)
    alien = dict(blob, protocol="mesi")
    with pytest.raises(ValueError, match="mesi"):
        RunResult.from_dict(alien)


def test_cache_quarantines_protocol_less_entry(tmp_path):
    """A pre-v6 cache entry (no protocol field) is quarantined on read —
    one miss, evidence kept, never re-parsed."""
    import json

    cache = ResultCache(tmp_path / "cache")
    result = RunResult(workload="sor", mode="single", n_cmps=2,
                       exec_cycles=123)
    key = "0" * 64
    cache.put(key, result)
    blob = json.loads(cache._path(key).read_text())
    del blob["protocol"]
    cache._path(key).write_text(json.dumps(blob))
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert cache._path(key).with_name(key + ".json.corrupt").exists()
