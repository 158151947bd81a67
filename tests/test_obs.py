"""Tests for the observability spine (repro.obs): the event bus, the
metrics registry, the exporters, the collector-derived legacy dicts, and
— most importantly — the invariance guarantees: attaching the spine must
never change simulated timing or any golden-pinned statistic."""

import json

import pytest

from repro.config import MachineConfig
from repro.experiments import driver
from repro.experiments.driver import RunResult, run_mode
from repro.machine.system import System
from repro.obs import (MetricsRegistry, Observability, PerfettoExporter,
                       series_name, validate_perfetto, write_metrics_csv,
                       write_metrics_json)
from repro.obs.collect import (cache_totals_from, fabric_stats_from,
                               run_registry)
from repro.sim import Engine
from repro.workloads import Fuzz
from repro.workloads.sor import SOR


def small_cfg(**kw):
    params = dict(n_cmps=2, l1_size=2048, l2_size=16384)
    params.update(kw)
    return MachineConfig(**params)


def workload():
    return SOR(rows=32, cols=32, iterations=1)


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
def test_probe_without_subscriber_is_dead(engine):
    obs = Observability(engine)
    probe = obs.probe("txn")
    assert not probe.live
    probe("node0", "should vanish")          # delivered to nobody


def test_probe_delivers_time_category_subject_detail_args(engine):
    obs = Observability(engine)
    seen = []
    obs.subscribe(lambda *event: seen.append(event))
    probe = obs.probe("txn")
    assert probe.live
    engine.schedule(40, lambda: probe("node1", "read", kind="read"))
    engine.run()
    assert seen == [(40, "txn", "node1", "read", {"kind": "read"})]


def test_category_restricted_subscription(engine):
    obs = Observability(engine)
    seen = []
    obs.subscribe(lambda t, c, s, d, a: seen.append(c),
                  categories=("keep",))
    obs.publish("keep", "x")
    obs.publish("drop", "y")
    assert seen == ["keep"]


def test_late_subscription_refreshes_existing_probes(engine):
    obs = Observability(engine)
    probe = obs.probe("txn")           # captured before any subscriber
    assert not probe.live
    seen = []
    obs.subscribe(lambda *event: seen.append(event))
    assert probe.live                  # same object, now live
    probe("node0")
    assert len(seen) == 1


def test_unsubscribe_goes_quiet(engine):
    obs = Observability(engine)
    seen = []
    fn = obs.subscribe(lambda *event: seen.append(event))
    obs.publish("c", "s")
    obs.unsubscribe(fn)
    obs.publish("c", "s")
    assert len(seen) == 1
    assert not obs.probe("c").live


def test_probe_is_cached_per_category(engine):
    obs = Observability(engine)
    assert obs.probe("a") is obs.probe("a")
    assert obs.probe("a") is not obs.probe("b")


# ----------------------------------------------------------------------
# Engine hooks
# ----------------------------------------------------------------------
def test_engine_install_checker_and_faults_set_hooks():
    engine = Engine()
    checker, faults = object(), object()
    engine.install_checker(checker)
    engine.install_faults(faults)
    assert engine.checker is checker
    assert engine.faults is faults
    assert engine.obs is None          # no spine is created on demand


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_series_name_sorts_labels():
    assert series_name("l2.miss", {}) == "l2.miss"
    assert (series_name("l2.miss", {"node": 3, "cause": "coherence"})
            == "l2.miss{cause=coherence,node=3}")


def test_counter_handles_are_stable():
    reg = MetricsRegistry()
    c = reg.counter("hits", node=0)
    c.inc()
    c.inc(2)
    assert reg.counter("hits", node=0) is c
    assert reg.value("hits", node=0) == 3
    assert reg.value("hits", node=9) == 0      # absent series reads 0


def test_kind_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("lead", pair=0)
    g.set(5)
    g.inc()
    g.dec(3)
    assert reg.value("lead", pair=0) == 3


def test_histogram_buckets_and_flat_encoding():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(10, 100), node=0)
    for v in (5, 50, 500):
        h.observe(v)
    assert h.count == 3 and h.total == 555
    assert h.mean == 185.0
    assert h.cumulative() == [("10", 1), ("100", 2), ("+Inf", 3)]
    flat = reg.flat()
    assert flat["lat_bucket{le=10,node=0}"] == 1
    assert flat["lat_bucket{le=+Inf,node=0}"] == 3
    assert flat["lat_count{node=0}"] == 3
    assert flat["lat_sum{node=0}"] == 555


def test_sum_aggregates_across_labels():
    reg = MetricsRegistry()
    reg.counter("l2.hits", node=0).value = 10
    reg.counter("l2.hits", node=1).value = 32
    reg.counter("net.messages", kind="data").value = 7
    reg.counter("net.messages", kind="ctrl").value = 5
    assert reg.sum("l2.hits") == 42
    assert reg.sum("net.messages") == 12
    assert reg.sum("net.messages", kind="data") == 7
    assert reg.sum("nope") == 0


def test_collector_runs_at_collect_time():
    reg = MetricsRegistry()
    state = {"n": 1}
    reg.register_collector(
        lambda r: r.counter("snap").__setattr__("value", state["n"]))
    state["n"] = 42
    reg.collect()
    assert reg.value("snap") == 42


def test_csv_export_quotes_label_commas(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a", x=1, y=2).inc(9)
    text = reg.to_csv()
    assert text.splitlines()[0] == "series,value"
    assert '"a{x=1,y=2}",9' in text
    path = write_metrics_csv(reg.flat(), tmp_path / "m.csv")
    assert path.read_text() == text
    jpath = write_metrics_json(reg.flat(), tmp_path / "m.json")
    assert json.loads(jpath.read_text()) == {"a{x=1,y=2}": 9}


# ----------------------------------------------------------------------
# Perfetto exporter
# ----------------------------------------------------------------------
def test_exporter_event_mapping(engine, tmp_path):
    obs = Observability(engine)
    exporter = obs.add_perfetto(run_label="unit")
    engine.schedule(100, lambda: obs.publish(
        "txn", "node0", "read", kind="read"))
    engine.schedule(250, lambda: obs.publish(
        "si.drain", "node1", lines=4, _dur=50))
    engine.schedule(300, lambda: obs.publish(
        "ar.lead", "pair0", _counter={"lead": 2}))
    engine.run()
    assert len(exporter) == 3
    instant, span, counter = exporter.trace.events
    assert instant["ph"] == "i" and instant["ts"] == 100
    assert instant["args"] == {"kind": "read", "detail": "read"}
    assert span["ph"] == "X" and span["dur"] == 50 and span["ts"] == 200
    assert counter["ph"] == "C" and counter["args"] == {"lead": 2}
    # one thread per subject, in order of first appearance
    data = exporter.as_dict()
    names = {e["tid"]: e["args"]["name"] for e in data["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {1: "node0", 2: "node1", 3: "pair0"}
    assert {e["pid"] for e in data["traceEvents"]} == {1}   # one process
    path = exporter.write(tmp_path / "trace.json")
    summary = validate_perfetto(path)
    assert summary["events"] == 3
    assert summary["phases"]["X"] == 1
    assert summary["span"] == (100, 300)


@pytest.mark.parametrize("blob", [
    [],                                       # not an object
    {},                                       # no traceEvents
    {"traceEvents": []},                      # empty
    {"traceEvents": [{"ph": "i"}]},           # missing fields
    {"traceEvents": [{"name": "x", "ph": "?", "pid": 0, "tid": 1}]},
    {"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 1,
                      "ts": -5}]},
    {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 1,
                      "ts": 0}]},             # X without dur
])
def test_validate_perfetto_rejects_malformed(blob):
    with pytest.raises(ValueError):
        validate_perfetto(blob)


# ----------------------------------------------------------------------
# Zero-overhead contract on real machines
# ----------------------------------------------------------------------
def test_machine_without_spine_holds_none_probes():
    system = System(small_cfg())
    assert system.engine.obs is None
    assert system.fabric._p_txn is None
    assert system.nodes[0].ctrl._p_fill is None
    assert system.nodes[0].ctrl._metrics is None
    assert system.nodes[0].processors[0]._p_wait is None


def test_checked_machine_captures_live_probes():
    system = System(small_cfg(), check=True)
    assert system.engine.obs is system.obs
    assert system.fabric._p_txn.live   # a checker context category
    # per-access categories stay dead, so checking does not pay for them
    assert not system.nodes[0].ctrl._p_fill.live
    assert not system.nodes[0].processors[0]._p_wait.live


# ----------------------------------------------------------------------
# Run-level invariance: spine attached vs detached
# ----------------------------------------------------------------------
def test_observed_run_is_cycle_identical(tmp_path):
    base = run_mode(workload(), small_cfg(), "slipstream",
                    transparent=True, si=True)
    trace_path = tmp_path / "run.json"
    observed = run_mode(workload(), small_cfg(), "slipstream",
                        transparent=True, si=True, metrics=True,
                        trace_out=str(trace_path))
    summary = validate_perfetto(trace_path)
    assert {"txn", "cpu.wait", "ar.lead"} <= set(summary["categories"])
    assert observed.exec_cycles == base.exec_cycles
    assert observed.cache_totals == base.cache_totals
    assert observed.fabric_stats == base.fabric_stats
    assert observed.si_invalidated == base.si_invalidated
    assert [b.as_dict() for b in observed.task_breakdowns] == \
        [b.as_dict() for b in base.task_breakdowns]
    assert base.metrics is None
    assert observed.metrics is not None


def test_metrics_export_matches_legacy_dicts():
    result = run_mode(workload(), small_cfg(), "slipstream",
                      transparent=True, si=True, metrics=True)
    flat = result.metrics
    assert flat["fabric.transactions"] == \
        result.fabric_stats["transactions"]
    assert flat["fabric.si_hints_sent"] == \
        result.fabric_stats["si_hints_sent"]
    l1_hits = sum(v for k, v in flat.items() if k.startswith("l1.hits{"))
    assert l1_hits == result.cache_totals["l1_hits"]
    # push-style series only exist on metrics runs
    assert any(k.startswith("l2.fetch_cycles_count") for k in flat)
    assert any(k.startswith("ar.r_session{") for k in flat)


def test_registry_derived_dicts_match_components():
    system = System(small_cfg())
    registry = run_registry(system)
    totals = cache_totals_from(registry)
    assert totals == {
        "l1_hits": 0, "l1_misses": 0, "l2_hits": 0, "l2_misses": 0,
        "l2_evictions": 0}
    stats = fabric_stats_from(registry)
    assert stats["transactions"] == 0
    assert set(stats) == {
        "transactions", "interventions", "invalidations_sent",
        "writebacks", "si_hints_sent", "migratory_grants",
        "network_messages", "jitter_cycles", "net_retries",
        "watchdog_trips"}


def test_run_result_metrics_roundtrip():
    result = run_mode(workload(), small_cfg(), "single", metrics=True)
    revived = RunResult.from_dict(result.to_dict())
    assert revived.metrics == result.metrics
    with pytest.raises(TypeError):
        RunResult.from_dict({"workload": "sor", "mode": "single",
                             "n_cmps": 2, "exec_cycles": 7,
                             "metrics": [1, 2]})


# ----------------------------------------------------------------------
# Figure 6 cross-check: cpu.wait events vs the processors' TimeBreakdown
# ----------------------------------------------------------------------
WAIT_CATEGORIES = ("stall", "barrier", "lock", "arsync")


def test_cpu_wait_events_match_time_breakdown(monkeypatch):
    """Summing a slipstream run's ``cpu.wait`` events per processor
    reproduces every wait category of its TimeBreakdown, R- and
    A-streams alike (busy is accumulated inline, never evented)."""
    waits = {}
    systems = []

    def on_wait(time, category, subject, detail, args):
        key = (subject, args["bucket"])
        waits[key] = waits.get(key, 0) + args["cycles"]

    class ObservedSystem(System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **dict(kwargs, observe=True))
            self.obs.subscribe(on_wait, categories=("cpu.wait",))
            systems.append(self)

    monkeypatch.setattr(driver, "System", ObservedSystem)
    driver.run_mode(Fuzz(seed=7), small_cfg(), "slipstream")
    processors = [proc for node in systems[0].nodes
                  for proc in node.processors]
    assert {bucket for _, bucket in waits} == set(WAIT_CATEGORIES)
    for processor in processors:
        for category in WAIT_CATEGORIES:
            assert waits.get((processor.name, category), 0) == \
                getattr(processor.breakdown, category)
