"""Request-scoped causal tracing (``repro.obs.trace``), its propagation
across the serving stack's process boundaries, and the offline analysis
CLI (``repro.obs.analyze`` / ``python -m repro.obs``).

The layering under test:

* span/context/tracer units — identity, nesting, serialization, the
  merged Perfetto rendering;
* ambient scope — the engine driver's phases join a bound scope and
  cost nothing without one;
* cross-process propagation — supervised pool workers ship their
  spans home with the parent request's trace_id, through crashes,
  hangs, and retries;
* the service — root spans per admitted request, queue-wait and
  execution children, memo hits answered at admission, coalesced-follower
  links, shed/watchdog trace_ids, journal replay keeping pre-crash
  trace identity;
* byte-identity — with tracing off, wire payloads, journal records,
  and error shapes are exactly the pre-tracing ones;
* the analysis CLI — report/diff over trace and metrics artifacts.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import ServiceConfig
from repro.experiments.runner import Runner, RunSpec, execute_spec
from repro.experiments.supervisor import SupervisedPool, SupervisorConfig
from repro.faults import FAULT_PROFILES
from repro.faults.harness import HarnessChaos
from repro.obs import analyze
from repro.obs.export import validate_perfetto
from repro.obs.trace import (NOOP_SPAN, Span, SpanContext, Tracer,
                             current_scope, trace_scope)
from repro.serve.journal import JobJournal
from repro.serve.service import Shed, SimulationService
from repro.serve import protocol

SMALL = RunSpec(workload="sor", mode="single", n_cmps=2)
OTHER = RunSpec(workload="sor", mode="double", n_cmps=2)

#: a job that outlives any watchdog in these tests (the fault layer's
#: blackhole stall; same recipe as tests/test_serve.py)
STALLED = RunSpec(workload="sor", mode="single", n_cmps=2,
                  max_cycles=100_000_000,
                  config_overrides=tuple(
                      dict(FAULT_PROFILES["blackhole"], faults=True).items()))


def service_config(**kwargs) -> ServiceConfig:
    defaults = dict(port=0, trace=True)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# SpanContext / Span units
# ----------------------------------------------------------------------
def test_context_root_child_and_roundtrip():
    root = SpanContext.new_root()
    assert root.parent_id is None
    assert len(root.trace_id) == 16 and len(root.span_id) == 8
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    assert SpanContext.from_dict(child.to_dict()) == child
    forced = SpanContext.new_root("feedfacefeedface")
    assert forced.trace_id == "feedfacefeedface"


def test_span_timing_attrs_events_and_idempotent_end():
    sink = []
    span = Span("op", SpanContext.new_root(), "service", 100,
                sink=sink.append)
    span.set(a=1).event("tick", n=2).link(SpanContext.new_root())
    span.end(at_us=250)
    span.end(at_us=999)                   # idempotent: first end wins
    assert span.duration_us == 150
    assert sink == [span]                 # sunk exactly once
    blob = span.to_dict()
    clone = Span.from_dict(blob)
    assert clone.context == span.context
    assert clone.attrs == {"a": 1}
    assert clone.events[0][1] == "tick"
    assert clone.links[0] == span.links[0]


def test_span_context_manager_records_error_event():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.start_span("op") as span:
            raise RuntimeError("boom")
    assert span.end_us is not None
    assert any(name == "error" and attrs["type"] == "RuntimeError"
               for _, name, attrs in span.events)


def test_noop_span_is_inert_and_falsy():
    assert not NOOP_SPAN
    assert NOOP_SPAN.set(x=1).event("e").link(None).end() is NOOP_SPAN
    with NOOP_SPAN as span:
        assert span is NOOP_SPAN


# ----------------------------------------------------------------------
# Tracer: nesting, adoption, Perfetto rendering
# ----------------------------------------------------------------------
def test_tracer_nesting_adoption_and_perfetto():
    tracer = Tracer(track="service")
    root = tracer.start_span("serve.request", client="t")
    child = tracer.start_span("serve.queue_wait", parent=root)
    child.event("woke")
    child.end()
    root.end()

    remote = Tracer(track="worker-42")
    span = remote.start_span("worker.run", parent=child.context)
    span.end()
    assert tracer.adopt(remote.span_dicts()) == 1
    assert tracer.adopt([{"nonsense": True}, None]) == 0  # skipped, not fatal

    spans = tracer.spans()
    assert {s.context.trace_id for s in spans} == {root.context.trace_id}
    doc = tracer.to_perfetto()
    validate_perfetto(doc)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in slices} == {"serve.request",
                                           "serve.queue_wait", "worker.run"}
    tracks = {e["args"]["name"] for e in doc["traceEvents"]
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert tracks == {"service", "worker-42"}
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["name"] == "woke"
    assert instants[0]["cat"] == "serve.queue_wait.event"
    assert all(isinstance(e["ts"], int) and e["ts"] >= 0
               for e in doc["traceEvents"] if "ts" in e)


def test_tracer_write_produces_validatable_file(tmp_path):
    tracer = Tracer()
    tracer.start_span("op").end()
    path = tracer.write(tmp_path / "trace.json")
    validate_perfetto(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Ambient scope and the engine driver's phases
# ----------------------------------------------------------------------
def test_scope_is_none_by_default_and_restores():
    assert current_scope() is None
    tracer = Tracer()
    root = tracer.start_span("request")
    with trace_scope(tracer, root):
        scope = current_scope()
        assert scope == (tracer, root.context)
    assert current_scope() is None
    root.end()


def test_engine_phases_join_ambient_scope():
    tracer = Tracer()
    root = tracer.start_span("request")
    with trace_scope(tracer, root):
        result = execute_spec(SMALL)
    root.end()
    assert result.error is None
    names = {s.name for s in tracer.spans()}
    assert {"engine.setup", "engine.tape_compile", "engine.sim_loop",
            "engine.collect"} <= names
    assert all(s.context.trace_id == root.context.trace_id
               for s in tracer.spans())
    sim = next(s for s in tracer.spans() if s.name == "engine.sim_loop")
    assert sim.attrs["exec_cycles"] == result.exec_cycles


def test_engine_without_scope_emits_nothing():
    result = execute_spec(SMALL)
    assert result.error is None
    assert current_scope() is None


# ----------------------------------------------------------------------
# Cross-process propagation: supervised pool workers
# ----------------------------------------------------------------------
def test_pooled_runner_ships_spans_home():
    runner = Runner(jobs=2)
    tracer = Tracer()
    runner.tracer = tracer
    roots = [tracer.start_span("request", i=i) for i in range(2)]
    results = runner.run_batch([SMALL, OTHER],
                               parents=[r.context for r in roots])
    for root in roots:
        root.end()
    assert all(r.error is None for r in results)
    workers = [s for s in tracer.spans() if s.name == "worker.run"]
    assert {w.context.trace_id for w in workers} == \
        {r.context.trace_id for r in roots}
    # engine phases ran inside the worker's scope, under the same traces
    sims = [s for s in tracer.spans() if s.name == "engine.sim_loop"]
    assert {s.context.trace_id for s in sims} == \
        {r.context.trace_id for r in roots}


def test_supervised_wave_nests_worker_spans_under_request():
    supervised = SupervisedPool(SupervisorConfig(retry_backoff_s=0.01),
                                workers=2)
    tracer = Tracer()
    root = tracer.start_span("request")
    result = supervised.run(SMALL, parent=root.context, tracer=tracer)
    root.end()
    assert result.error is None
    by_name = {s.name: s for s in tracer.spans()}
    job = by_name["supervisor.job"]
    worker = by_name["worker.run"]
    assert job.context.trace_id == root.context.trace_id
    assert job.context.parent_id == root.context.span_id
    assert worker.context.trace_id == root.context.trace_id
    assert worker.context.parent_id == job.context.span_id
    assert any(name == "spawn" for _, name, _ in job.events)
    assert job.attrs["outcome"] == "ok"


def test_crash_retry_spans_keep_request_trace():
    # Seeded sub-1.0 crash rate: first attempt dies, the retry is clean
    # (same seed-search recipe as tests/test_supervisor.py).
    key = SMALL.key()
    seed = next(s for s in range(1000)
                if HarnessChaos(seed=s, worker_crash_rate=0.5)
                .worker_fault(key, 0) == "crash"
                and HarnessChaos(seed=s, worker_crash_rate=0.5)
                .worker_fault(key, 1) is None)
    supervised = SupervisedPool(
        SupervisorConfig(retries=2, retry_backoff_s=0.01), workers=2)
    supervised.chaos = HarnessChaos(seed=seed, worker_crash_rate=0.5)
    tracer = Tracer()
    root = tracer.start_span("request")
    result = supervised.run(SMALL, parent=root.context, tracer=tracer)
    root.end()
    assert result.error is None and supervised.counts["retries"] == 1
    job = next(s for s in tracer.spans() if s.name == "supervisor.job")
    events = [name for _, name, _ in job.events]
    assert "crash" in events and "retry" in events
    # the SIGKILLed attempt shipped nothing; the clean retry's worker
    # span arrived with the request's trace identity
    workers = [s for s in tracer.spans() if s.name == "worker.run"]
    assert len(workers) == 1
    assert workers[0].context.trace_id == root.context.trace_id
    assert workers[0].attrs["attempt"] == 2


def test_hang_span_records_timeout_outcome():
    supervised = SupervisedPool(
        SupervisorConfig(wall_limit_s=0.5, retries=2,
                         retry_backoff_s=0.01), workers=2)
    supervised.chaos = HarnessChaos(seed=1, worker_hang_rate=1.0)
    tracer = Tracer()
    root = tracer.start_span("request")
    result = supervised.run(SMALL, parent=root.context, tracer=tracer)
    root.end()
    assert result.error["type"] == "Timeout"
    job = next(s for s in tracer.spans() if s.name == "supervisor.job")
    assert any(name == "hang" for _, name, _ in job.events)
    assert job.attrs["outcome"] == "Timeout"
    assert not any(s.name == "worker.run" for s in tracer.spans())


def test_untraced_supervised_wave_adds_no_spans():
    supervised = SupervisedPool(SupervisorConfig(retry_backoff_s=0.01),
                                workers=2)
    # untraced, the worker ships the plain result dict; the traced
    # {"result", "spans"} wrapper would not decode as a RunResult
    assert supervised.run(SMALL).error is None


# ----------------------------------------------------------------------
# Service integration (event loop driven directly; no HTTP needed)
# ----------------------------------------------------------------------
def run_service(coro_fn, **config_kwargs):
    """Start a traced service on a private loop, run ``coro_fn(service)``,
    stop, and return ``(service, coro_result)``."""
    async def go():
        service = SimulationService(runner=config_kwargs.pop("runner", None),
                                    config=service_config(**config_kwargs))
        await service.start()
        try:
            result = await coro_fn(service)
        finally:
            await service.stop()
        return service, result
    return asyncio.run(go())


def test_service_request_spans_cover_admission_to_resolution():
    async def scenario(service):
        job, coalesced = service.submit_nowait(SMALL, "alice")
        assert not coalesced
        return await asyncio.wait_for(asyncio.shield(job.future), 120)

    service, result = run_service(scenario)
    assert result.error is None
    tracer = service.tracer
    names = {s.name for s in tracer.spans()}
    assert {"serve.request", "serve.admission", "serve.queue_wait",
            "serve.wave_execute", "runner.execute",
            "engine.sim_loop"} <= names
    root = next(s for s in tracer.spans() if s.name == "serve.request")
    assert root.attrs["client"] == "alice"
    assert root.attrs["outcome"] == "done"
    assert all(s.context.trace_id == root.context.trace_id
               for s in tracer.spans())


def test_coalesced_follower_links_leader_trace():
    async def scenario(service):
        leader, _ = service.submit_nowait(SMALL, "a")
        follower, coalesced = service.submit_nowait(SMALL, "b")
        assert coalesced and follower is leader
        await asyncio.wait_for(asyncio.shield(leader.future), 120)
        return leader

    service, leader = run_service(scenario)
    spans = service.tracer.spans()
    roots = [s for s in spans if s.name == "serve.request"]
    assert len(roots) == 2
    leader_root = next(s for s in roots if "coalesced_onto" not in s.attrs)
    follower_root = next(s for s in roots if "coalesced_onto" in s.attrs)
    # distinct traces, explicitly linked
    assert follower_root.context.trace_id != leader_root.context.trace_id
    assert follower_root.links[0].trace_id == leader_root.context.trace_id
    waits = [s for s in spans if s.name == "serve.coalesce_wait"]
    assert len(waits) == 1
    assert waits[0].context.trace_id == follower_root.context.trace_id
    assert waits[0].attrs["outcome"] == "done"


def test_memo_hit_is_its_own_trace_answered_at_admission():
    async def scenario(service):
        first, _ = service.submit_nowait(SMALL, "a")
        await asyncio.wait_for(asyncio.shield(first.future), 120)
        hit, coalesced = service.submit_nowait(SMALL, "b")
        assert not coalesced and hit is not first
        assert hit.future.done() and hit.status == "done"
        assert service.depth == 0 and not service._inflight
        return first, hit

    service, (first, hit) = run_service(scenario)
    assert hit.future.result() is first.future.result()
    spans = service.tracer.spans()
    root = hit.span
    assert root.name == "serve.request" and root.end_us is not None
    assert root.attrs["client"] == "b" and root.attrs["job"] == hit.id
    assert root.attrs["outcome"] == "done"
    assert root.context.trace_id != first.span.context.trace_id
    children = sorted(s.name for s in spans
                      if s.context.parent_id == root.context.span_id)
    assert children == ["runner.memo_hit", "serve.admission"]
    # only the first request waited in the queue and executed
    assert sum(s.name == "serve.wave_execute" for s in spans) == 1


def test_shed_carries_trace_id_only_when_tracing():
    async def scenario(service):
        service.submit_nowait(STALLED, "a")
        with pytest.raises(Shed) as excinfo:
            service.submit_nowait(OTHER, "b")
        return excinfo.value

    service, shed = run_service(scenario, max_queue=1, job_timeout_s=0.5)
    assert shed.status == 429
    assert shed.trace_id is not None
    shed_span = next(s for s in service.tracer.spans()
                     if s.attrs.get("outcome") == "shed")
    assert shed_span.context.trace_id == shed.trace_id

    async def untraced(service):
        service.submit_nowait(STALLED, "a")
        with pytest.raises(Shed) as excinfo:
            service.submit_nowait(OTHER, "b")
        return excinfo.value

    service, shed = run_service(untraced, max_queue=1, job_timeout_s=0.5,
                                trace=False)
    assert service.tracer is None
    assert shed.trace_id is None


def test_shed_trace_id_reaches_the_http_error_payload():
    raw = protocol.error_response(429, "queue full",
                                  {"Retry-After": "1"},
                                  details={"trace_id": "abcd" * 4})
    body = json.loads(raw.partition(b"\r\n\r\n")[2])
    assert body["error"]["trace_id"] == "abcd" * 4
    # None values (tracing off) leave the payload byte-identical
    with_none = protocol.error_response(429, "queue full",
                                        {"Retry-After": "1"},
                                        details={"trace_id": None})
    without = protocol.error_response(429, "queue full",
                                      {"Retry-After": "1"})
    assert with_none == without


def test_watchdog_timeout_error_carries_trace_id():
    async def scenario(service):
        job, _ = service.submit_nowait(STALLED, "a")
        return job, await asyncio.wait_for(asyncio.shield(job.future), 120)

    service, (job, result) = run_service(scenario, job_timeout_s=0.5)
    assert result.error["type"] == "Timeout"
    assert result.error["trace_id"] == job.span.context.trace_id
    exec_span = next(s for s in service.tracer.spans()
                     if s.name == "serve.wave_execute")
    assert any(name == "watchdog_timeout" for _, name, _ in exec_span.events)


def test_untraced_service_keeps_error_payload_shape():
    async def scenario(service):
        job, _ = service.submit_nowait(STALLED, "a")
        return await asyncio.wait_for(asyncio.shield(job.future), 120)

    service, result = run_service(scenario, job_timeout_s=0.5,
                                  trace=False)
    assert result.error["type"] == "Timeout"
    assert "trace_id" not in result.error


# ----------------------------------------------------------------------
# Journal: trace_id durability and byte-compatibility
# ----------------------------------------------------------------------
def test_journal_accepted_records_trace_id_and_survives_compaction(tmp_path):
    journal = JobJournal(tmp_path, fsync=False)
    journal.recover()
    journal.accepted("k1", {"workload": "sor"}, "cli",
                     trace_id="feedfacefeedface")
    journal.accepted("k2", {"workload": "sor"}, "cli")
    journal.close()

    reloaded = JobJournal(tmp_path, fsync=False)
    replay = reloaded.recover()              # recovery compacts
    assert replay.unresolved["k1"].trace_id == "feedfacefeedface"
    assert replay.unresolved["k2"].trace_id is None
    reloaded.close()

    again = JobJournal(tmp_path, fsync=False)
    replay = again.recover()                 # compacted records round-trip
    assert replay.unresolved["k1"].trace_id == "feedfacefeedface"
    again.close()


def test_untraced_journal_records_have_no_trace_field(tmp_path):
    journal = JobJournal(tmp_path, fsync=False)
    journal.recover()
    journal.accepted("k1", {"workload": "sor"}, "cli")
    journal.close()
    lines = [line for path in tmp_path.glob("wal-*.log")
             for line in path.read_text().splitlines() if line]
    records = [json.loads(line.split(" ", 1)[1]) for line in lines]
    assert records and all("trace_id" not in r for r in records)


def test_replayed_job_keeps_its_pre_crash_trace_id(tmp_path):
    journal = JobJournal(tmp_path, fsync=False)
    journal.recover()
    journal.accepted(SMALL.key(), SMALL.as_dict(), "cli",
                     trace_id="deadbeefdeadbeef")
    journal.close()

    async def scenario(service):
        assert service.recovered == 1
        job = next(iter(service._inflight.values()))
        await asyncio.wait_for(asyncio.shield(job.future), 120)
        return job

    service, job = run_service(scenario, journal_dir=str(tmp_path),
                               journal_fsync=False)
    assert job.span.context.trace_id == "deadbeefdeadbeef"
    assert any(name == "recovered" for _, name, _ in job.span.events)


# ----------------------------------------------------------------------
# Histogram quantile edge cases and /metrics schema stability
# ----------------------------------------------------------------------
def test_empty_histogram_quantile_is_zero():
    from repro.obs.registry import Histogram
    hist = Histogram("h")
    assert hist.quantile(0.5) == 0.0
    assert hist.quantile(0.0) == 0.0
    assert hist.quantile(1.0) == 0.0


def test_bucketless_histogram_falls_back_to_mean():
    from repro.obs.registry import Histogram
    hist = Histogram("h", buckets=())
    assert hist.quantile(0.95) == 0.0        # empty AND bucket-less
    hist.observe(10)
    hist.observe(30)
    assert hist.quantile(0.5) == 20.0


def test_metrics_schema_is_stable_before_first_request():
    async def scenario(service):
        return service.metrics_flat()

    _, flat = run_service(scenario, trace=False)
    assert flat["serve.latency_quantile_ms{q=0.5}"] == 0.0
    assert flat["serve.latency_quantile_ms{q=0.95}"] == 0.0
    assert flat["serve.latency_ms_count"] == 0
    assert flat["serve.hit_ratio"] == 0.0
    assert json.dumps(flat)                  # everything JSON-able


# ----------------------------------------------------------------------
# Offline analysis: report / diff
# ----------------------------------------------------------------------
def make_trace_doc():
    tracer = Tracer(track="service")
    root = tracer.start_span("serve.request")
    child = tracer.start_span("serve.wave_execute", parent=root)
    child.end()
    root.end()
    remote = Tracer(track="worker-7")
    span = remote.start_span("worker.run", parent=child.context)
    span.end()
    tracer.adopt(remote.span_dicts())
    return tracer.to_perfetto()


def test_span_breakdown_aggregates_by_name_and_track():
    doc = make_trace_doc()
    rows = analyze.span_breakdown(doc)
    assert rows["serve.request"]["count"] == 1
    assert rows["worker.run"]["tracks"] == ["worker-7"]
    assert rows["serve.request"]["total_us"] >= \
        rows["serve.wave_execute"]["total_us"]
    text = analyze.report_text(doc)
    assert "serve.request" in text and "worker-7" in text
    assert len(analyze.trace_ids(doc)) == 1


def test_diff_handles_traces_and_flat_metrics():
    doc = make_trace_doc()
    rows = analyze.diff_rows(doc, doc)
    assert rows and all(pct == 0.0 for _, _, _, pct in rows)
    a = {"serve.requests": 10, "serve.shed": 0, "label": "x"}
    b = {"serve.requests": 12, "serve.executed": 3}
    by_key = {key: (va, vb, pct)
              for key, va, vb, pct in analyze.diff_rows(a, b)}
    assert by_key["serve.requests"] == (10.0, 12.0, 0.2)
    assert by_key["serve.shed"][1] is None       # absent on one side
    assert by_key["serve.executed"][0] is None
    assert "label" not in by_key                 # non-numeric dropped
    assert "serve.requests" in analyze.diff_text(a, b, threshold=0.1)

    # unchanged zeros are unchanged: a trace whose spans round to
    # 0.000 ms diffs to 0.0 against itself, and so does a zero counter
    tracer = Tracer(track="service")
    root = tracer.start_span("serve.request")
    root.end(at_us=root.start_us)
    doc = tracer.to_perfetto()
    assert analyze.diff_rows(doc, doc) == [
        ("serve.request.total_ms", 0.0, 0.0, 0.0)]
    zeros = {"serve.shed": 0, "serve.requests": 4}
    assert analyze.diff_rows(zeros, zeros) == [
        ("serve.requests", 4.0, 4.0, 0.0), ("serve.shed", 0.0, 0.0, 0.0)]
    assert "serve.shed" not in analyze.diff_text(zeros, zeros,
                                                 threshold=0.05)
    # a change away from a zero base has no percentage and is shown
    grown = {"serve.shed": 2, "serve.requests": 4}
    assert analyze.diff_rows(zeros, grown)[1] == ("serve.shed", 0.0, 2.0,
                                                  None)
    text = analyze.diff_text(zeros, grown, threshold=0.05)
    assert "serve.shed" in text and "serve.requests" not in text


def test_obs_cli_report_and_diff(tmp_path, capsys):
    from repro.obs.__main__ import main

    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(make_trace_doc()))
    assert main(["report", str(trace_path)]) == 0
    assert "serve.request" in capsys.readouterr().out

    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"serve.requests": 10}))
    assert main(["diff", str(metrics), str(metrics)]) == 0
    assert main(["diff", str(trace_path), str(metrics)]) == 2
