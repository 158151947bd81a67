"""Conformance suite for the simulation service (``repro.serve``).

Covers the four pipeline stages end to end over real HTTP:

* single-flight dedup returns results bit-identical to direct
  :class:`~repro.experiments.runner.Runner` execution,
* admission control sheds at the configured bounds (429 + Retry-After),
* memo hits are answered at admission, outside the journal and the
  queue,
* each job resolves on its own result, and an exception that escapes
  the Runner fails that job alone,
* the per-job watchdog cancels a deliberately-stalled job (stalled via
  the fault layer's ``blackhole`` profile),
* ``/metrics`` series names match the obs registry schema,
* the metamorphic sweep: a Figure-5 batch served through the API yields
  exactly the rows ``figures.figure5`` computes directly, against a warm
  cache, with zero extra simulations.
"""

from __future__ import annotations

import asyncio
import errno
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.config import ServiceConfig
from repro.experiments.cache import ResultCache
from repro.experiments.runner import Runner, RunSpec, execute_spec
from repro.experiments.supervisor import SupervisorConfig
from repro.faults import FAULT_PROFILES
from repro.faults.harness import HarnessChaos
from repro.obs.registry import _split_name, series_name
from repro.serve import (Client, ServerThread, ServiceError, ServiceRunner,
                         deterministic_dict, spec_from_dict)
from repro.serve import protocol

SMALL = dict(workload="sor", mode="single", n_cmps=2)
OTHER = dict(workload="sor", mode="double", n_cmps=2)

#: a job that never finishes on its own inside the test budget: every
#: network request dropped with retry escalation disabled (the fault
#: layer's deliberate stall), bounded far beyond the serve watchdog
STALLED = dict(workload="sor", mode="single", n_cmps=2,
               max_cycles=100_000_000,
               config_overrides=dict(FAULT_PROFILES["blackhole"],
                                     faults=True))


def serve(**config_kwargs) -> ServerThread:
    """An in-process service on an ephemeral port (context manager)."""
    defaults = dict(port=0)
    defaults.update(config_kwargs)
    runner = defaults.pop("runner", None)
    return ServerThread(runner=runner or Runner(),
                        config=ServiceConfig(**defaults))


def client_for(harness: ServerThread, timeout: float = 120.0) -> Client:
    return Client(harness.host, harness.port, timeout=timeout)


# ----------------------------------------------------------------------
# Protocol framing units
# ----------------------------------------------------------------------
def parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await protocol.read_request(reader)
    return asyncio.run(go())


def test_protocol_parses_request_line_query_headers_and_body():
    request = parse(b"POST /runs?wait=0&x=1 HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 13\r\n\r\n"
                    b'{"a": [1, 2]}')
    assert request.method == "POST"
    assert request.path == "/runs"
    assert request.query == {"wait": "0", "x": "1"}
    assert request.headers["content-type"] == "application/json"
    assert request.json() == {"a": [1, 2]}


def test_protocol_rejects_malformed_framing():
    with pytest.raises(protocol.ProtocolError):
        parse(b"NONSENSE\r\n\r\n")
    with pytest.raises(protocol.ProtocolError):
        parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
    with pytest.raises(protocol.ProtocolError):     # truncated body
        parse(b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert parse(b"") is None                        # clean close


def test_protocol_rejects_chunked_and_oversized_bodies():
    with pytest.raises(protocol.ProtocolError) as excinfo:
        parse(b"POST /runs HTTP/1.1\r\n"
              b"Transfer-Encoding: chunked\r\n\r\n")
    assert excinfo.value.status == 400
    with pytest.raises(protocol.ProtocolError) as excinfo:
        parse(b"POST /runs HTTP/1.1\r\n"
              b"Content-Length: 999999999\r\n\r\n")
    assert excinfo.value.status == 413


def test_protocol_invalid_json_body_is_a_400():
    request = parse(b"POST /runs HTTP/1.1\r\n"
                    b"Content-Length: 8\r\n\r\n"
                    b"not json")
    with pytest.raises(protocol.ProtocolError) as excinfo:
        request.json()
    assert excinfo.value.status == 400


def test_protocol_response_rendering_roundtrip():
    raw = protocol.json_response(429, {"ok": False},
                                 extra_headers={"Retry-After": "1"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"HTTP/1.1 429 Too Many Requests" in head
    assert b"Retry-After: 1" in head
    assert json.loads(body) == {"ok": False}


# ----------------------------------------------------------------------
# Spec wire format
# ----------------------------------------------------------------------
def test_spec_from_dict_accepts_overrides_mapping_and_pairs():
    a = spec_from_dict(dict(SMALL, config_overrides={"check": True}))
    b = spec_from_dict(dict(SMALL, config_overrides=[["check", True]]))
    assert a == b and a.key() == b.key()


@pytest.mark.parametrize("blob", [
    dict(SMALL, nonsense=1),                      # unknown field
    dict(SMALL, workload="not-a-workload"),       # unknown workload
    dict(SMALL, mode="warp"),                     # unknown mode
    dict(SMALL, config_overrides={"bogus_field": 1}),
    "just a string",
])
def test_spec_from_dict_rejects_bad_specs(blob):
    with pytest.raises(ValueError):
        spec_from_dict(blob)


# ----------------------------------------------------------------------
# Health + metrics schema
# ----------------------------------------------------------------------
def test_healthz_and_metrics_schema():
    with serve() as harness:
        client = client_for(harness)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

        metrics = client.metrics()
        # Every series name must round-trip through the registry's
        # canonical rendering (the schema contract of repro.obs).
        for name in metrics:
            base, labels = _split_name(name)
            assert series_name(base, labels) == name
        for expected in ("serve.queue_depth", "serve.requests",
                         "serve.shed", "serve.coalesced",
                         "serve.executed", "serve.cache_hits",
                         "serve.memo_hits", "serve.timeouts",
                         "serve.hit_ratio",
                         "serve.latency_quantile_ms{q=0.5}",
                         "serve.latency_quantile_ms{q=0.95}",
                         "serve.latency_ms_count",
                         "serve.recovered", "serve.unavailable",
                         "serve.replay_ms_count"):
            assert expected in metrics, expected


def test_metrics_csv_format():
    with serve() as harness:
        status, _, body = Client(harness.host, harness.port)._request(
            "GET", "/metrics?format=csv")
        assert status == 200
        lines = body.decode().splitlines()
        assert lines[0] == "series,value"
        assert any(line.startswith("serve.queue_depth,") for line in lines)


# ----------------------------------------------------------------------
# Single-flight dedup + bit-identity with direct execution
# ----------------------------------------------------------------------
def test_coalescing_and_bit_identity_with_direct_runner(gate):
    # The gate holds the first submission open so the duplicates
    # reliably attach to the same in-flight job.
    with serve() as harness:
        client = client_for(harness)
        responses = [None] * 3

        def post(index):
            responses[index] = client.submit(SMALL, client=f"c{index}")

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while client.metrics()["serve.coalesced"] < 2:
            assert time.monotonic() < deadline, "duplicates never coalesced"
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        # one simulation, two coalesced riders
        assert sorted(r["coalesced"] for r in responses) \
            == [False, True, True]
        assert len({r["id"] for r in responses}) == 1
        served = [r["result"] for r in responses]
        assert served[0] == served[1] == served[2]

        metrics = client.metrics()
        assert metrics["serve.executed"] == 1
        assert metrics["serve.coalesced"] == 2

    direct = deterministic_dict(execute_spec(spec_from_dict(SMALL)))
    served_det = dict(served[0])
    served_det.pop("wall_seconds")
    assert served_det == direct


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_queue_bound_sheds_with_retry_after(gate):
    # max_queue=1, and the gate keeps the first job unresolved when the
    # second distinct spec arrives.
    with serve(max_queue=1, retry_after_s=2.5) as harness:
        client = client_for(harness)
        first = {}

        def post_first():
            first.update(client.submit(SMALL))

        thread = threading.Thread(target=post_first)
        thread.start()
        deadline = time.monotonic() + 5
        while client.healthz()["queue_depth"] == 0:
            assert time.monotonic() < deadline, "first job never queued"
            time.sleep(0.01)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(OTHER)
        gate.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert excinfo.value.status == 429
        # Retry-After is jittered by ±retry_jitter (default 0.2) so shed
        # clients never retry in a synchronized herd.
        assert 2.5 * 0.8 <= excinfo.value.retry_after <= 2.5 * 1.2
        assert first["status"] == "done"
        assert client.metrics()["serve.shed"] == 1


def test_per_client_cap_sheds_only_the_greedy_client(gate):
    with serve(per_client_inflight=1) as harness:
        client = client_for(harness)
        background = {}

        def post_first():
            background.update(client.submit(SMALL, client="greedy"))

        thread = threading.Thread(target=post_first)
        thread.start()
        deadline = time.monotonic() + 5
        while client.healthz()["queue_depth"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # same client over its cap: shed — even for a coalescable spec
        with pytest.raises(ServiceError) as excinfo:
            client.submit(SMALL, client="greedy")
        assert excinfo.value.status == 429
        # a different client coalesces onto the same in-flight job
        other = {}
        rider = threading.Thread(
            target=lambda: other.update(client.submit(SMALL,
                                                      client="patient")))
        rider.start()
        while client.metrics()["serve.coalesced"] < 1:
            assert time.monotonic() < deadline + 5
            time.sleep(0.01)
        gate.set()
        for waiter in (thread, rider):
            waiter.join(timeout=60)
            assert not waiter.is_alive()
        assert other["coalesced"] is True
        assert other["result"] == background["result"]


def test_batch_admission_is_atomic():
    with serve(max_queue=2) as harness:
        client = client_for(harness)
        with pytest.raises(ServiceError) as excinfo:
            client.batch([SMALL, OTHER, dict(SMALL, n_cmps=1)])
        assert excinfo.value.status == 429
        # nothing was admitted: the queue is still empty
        assert client.healthz()["queue_depth"] == 0
        assert client.healthz()["requests"] == 0


def test_batch_admission_is_atomic_under_the_client_cap():
    with serve(per_client_inflight=2) as harness:
        client = client_for(harness)
        with pytest.raises(ServiceError) as excinfo:
            client.batch([SMALL, OTHER, dict(SMALL, n_cmps=1)])
        assert excinfo.value.status == 429
        health = client.healthz()
        assert health["queue_depth"] == 0
        assert health["requests"] == 0
        time.sleep(0.8)                   # time for stray work to run
        assert client.healthz()["executed"] == 0


# ----------------------------------------------------------------------
# Memo hits: answered at admission, outside the journal and the queue
# ----------------------------------------------------------------------
def warm_runner(*blobs) -> Runner:
    """A Runner whose memo already holds ``blobs``' results."""
    runner = Runner()
    runner.run_batch([spec_from_dict(blob) for blob in blobs])
    return runner


def test_repeat_request_is_answered_from_the_memo(tmp_path):
    with serve(journal_dir=str(tmp_path / "wal"), journal_fsync=False) \
            as harness:
        client = client_for(harness)
        first = client.submit(SMALL)
        before = client.metrics()
        appended = client.healthz()["journal"]["appended"]
        again = client.submit(SMALL, client="other")
        after = client.metrics()
        assert again["status"] == "done"
        assert again["coalesced"] is False
        assert again["id"] != first["id"]
        assert again["result"] == first["result"]
        assert after["serve.executed"] == before["serve.executed"]
        assert client.healthz()["journal"]["appended"] == appended == 3
        assert after["serve.memo_hits"] == before["serve.memo_hits"] + 1
        assert after["serve.requests"] == 2
        assert after["serve.latency_ms_count"] == 2
        assert client.healthz()["queue_depth"] == 0


def test_memo_hit_with_wait_0_is_done_and_pollable():
    with serve(runner=warm_runner(SMALL)) as harness:
        client = client_for(harness)
        status, _, ticket = client._request(
            "POST", "/runs?wait=0", {"spec": SMALL, "client": "poller"})
        assert status == 202
        assert ticket["status"] == "done" and ticket["coalesced"] is False
        info = client.run_info(ticket["id"])
        assert info["status"] == "done"
        assert info["clients"] == ["poller"]
        assert info["key"] == spec_from_dict(SMALL).key()
        assert info["result"]["exec_cycles"] > 0


def test_all_hit_batch_is_answered_while_the_queue_is_full(gate):
    third = dict(SMALL, n_cmps=1)
    gate.set()                            # warm the memo unheld
    runner = warm_runner(SMALL, OTHER)
    gate.clear()
    with serve(runner=runner, max_queue=1) as harness:
        client = client_for(harness)
        background = {}
        thread = threading.Thread(
            target=lambda: background.update(client.submit(third)))
        thread.start()
        deadline = time.monotonic() + 5
        while client.healthz()["queue_depth"] == 0:
            assert time.monotonic() < deadline, "third job never queued"
            time.sleep(0.01)
        entries = client.batch([SMALL, OTHER, SMALL])
        # the queue really is full: new work is shed meanwhile
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(OTHER, n_cmps=1))
        gate.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert excinfo.value.status == 429
    assert [e["status"] for e in entries] == ["done"] * 3
    assert not any(e["coalesced"] for e in entries)
    assert entries[0]["result"] == entries[2]["result"]
    assert background["status"] == "done"


# ----------------------------------------------------------------------
# Watchdog: a fault-layer-stalled job resolves as a structured Timeout
# ----------------------------------------------------------------------
def test_watchdog_cancels_stalled_job_and_service_recovers():
    with serve(job_timeout_s=1.0) as harness:
        client = client_for(harness)
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.submit(STALLED)
        elapsed = time.monotonic() - started
        assert excinfo.value.status == 504
        error = excinfo.value.payload["result"]["error"]
        assert error["type"] == "Timeout"
        assert elapsed < 10, "watchdog did not fire promptly"

        metrics = client.metrics()
        assert metrics["serve.timeouts"] == 1

        # the stalled thread drains in the background (it holds the
        # Runner's in-process leg until its max_cycles bound); after it
        # does, the service keeps serving
        time.sleep(3.0)
        response = client.submit(SMALL)
        assert response["status"] == "done"
        assert response["result"]["error"] is None


# ----------------------------------------------------------------------
# Per-job completion
# ----------------------------------------------------------------------
def pooled_runner(workers: int, chaos: HarnessChaos) -> Runner:
    """A supervised Runner whose workers draw ``chaos`` (hangs end at a
    5 s wall limit)."""
    runner = Runner(jobs=workers, cache=None, supervisor=SupervisorConfig(
        wall_limit_s=5.0, retry_backoff_s=0.01))
    runner.pool.chaos = chaos
    return runner


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs a two-worker pool")
def test_short_job_resolves_while_a_long_job_runs():
    long_key = spec_from_dict(OTHER).key()
    short_key = spec_from_dict(SMALL).key()
    seed = next(s for s in range(1000)
                if HarnessChaos(seed=s, worker_hang_rate=0.5)
                .worker_fault(long_key, 0) == "hang"
                and HarnessChaos(seed=s, worker_hang_rate=0.5)
                .worker_fault(short_key, 0) is None)
    runner = pooled_runner(2, HarnessChaos(seed=seed, worker_hang_rate=0.5))
    with serve(runner=runner) as harness:
        client = client_for(harness)
        ticket = client.submit(OTHER, wait=False)     # hangs until 5 s
        short = client.submit(SMALL)
        assert short["status"] == "done"
        assert client.run_info(ticket["id"])["status"] == "running"


def test_forked_worker_does_not_hold_client_connections_open():
    # A Connection: close client reads to EOF; a worker forked while its
    # connection was open must not keep that connection alive.
    runner = pooled_runner(1, HarnessChaos(seed=1, worker_hang_rate=1.0))
    with serve(runner=runner) as harness, socket.create_connection(
            (harness.host, harness.port), timeout=1.0) as raw:
        client = client_for(harness)
        client.submit(SMALL, wait=False)    # accepted after `raw`: forks
        deadline = time.monotonic() + 10
        while not multiprocessing.active_children():
            assert time.monotonic() < deadline, "no worker was forked"
            time.sleep(0.01)
        raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        response = b""
        while True:
            chunk = raw.recv(65536)         # times out without EOF
            if not chunk:
                break
            response += chunk
        assert response.startswith(b"HTTP/1.1 200")
        assert multiprocessing.active_children(), "worker already gone"


def test_exception_escaping_the_runner_fails_only_its_job(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    put, calls = cache.put, []

    def disk_full_once(key, result):
        calls.append(key)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        put(key, result)

    cache.put = disk_full_once
    with serve(runner=Runner(cache=cache)) as harness:
        client = client_for(harness, timeout=30.0)
        first = client.submit(SMALL)
        assert first["status"] == "failed"
        assert first["result"]["error"]["type"] == "OSError"
        assert client.submit(OTHER)["status"] == "done"
        assert client.metrics()["serve.failed"] == 1
        assert client.healthz()["queue_depth"] == 0


# ----------------------------------------------------------------------
# /runs lifecycle
# ----------------------------------------------------------------------
def test_async_submission_and_polling():
    with serve() as harness:
        client = client_for(harness)
        ticket = client.submit(SMALL, wait=False)
        assert ticket["id"].startswith("r")
        deadline = time.monotonic() + 60
        while True:
            info = client.run_info(ticket["id"])
            if info["status"] in ("done", "failed", "timeout"):
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert info["status"] == "done"
        assert info["label"] == "sor/single@2"
        assert info["result"]["exec_cycles"] > 0
        with pytest.raises(ServiceError) as excinfo:
            client.run_info("r999999")
        assert excinfo.value.status == 404


def test_http_error_paths():
    with serve() as harness:
        client = client_for(harness)
        status, _, body = client._request("GET", "/nope")
        assert status == 404
        status, _, body = client._request("POST", "/runs", {"workload": "x"})
        assert status == 400 and "unknown workload" in json.dumps(body)
        # an out-of-range machine is refused at admission, not a 500
        status, _, body = client._request(
            "POST", "/runs", dict(SMALL, config_overrides={"line_size": 0}))
        assert status == 400 and "line_size" in json.dumps(body)
        status, _, _ = client._request("POST", "/healthz")
        assert status == 405
        conn_status, _, body = client._request("POST", "/batch",
                                               {"specs": "oops"})
        assert conn_status == 400


def test_failed_simulation_returns_structured_error_not_http_failure(
        monkeypatch):
    # A simulation that *raises* resolves fail-soft: HTTP 200 with a
    # structured error result (the run completed; its simulation failed
    # — the Runner's contract, preserved through the service).
    def boom(spec):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr("repro.experiments.runner.execute_spec", boom)
    with serve() as harness:
        client = client_for(harness)
        response = client.submit(SMALL)
        assert response["status"] == "failed"
        assert response["result"]["error"]["type"] == "RuntimeError"
        assert client.metrics()["serve.failed"] == 1


# ----------------------------------------------------------------------
# Metamorphic sweep: served figure == direct figure, zero extra sims
# ----------------------------------------------------------------------
def test_figure5_served_rows_match_direct_rows_warm_cache(tmp_path):
    from repro.experiments import figures

    cache_dir = tmp_path / "cache"
    direct_runner = Runner(cache=ResultCache(cache_dir))
    previous = figures.set_runner(direct_runner)
    try:
        direct_rows = figures.figure5(("sor",), (2,))
        assert direct_runner.last_stats.executed == 6
        with serve(runner=Runner(cache=ResultCache(cache_dir))) as harness:
            service_runner = ServiceRunner(client_for(harness))
            figures.set_runner(service_runner)
            served_rows = figures.figure5(("sor",), (2,))
            metrics = client_for(harness).metrics()
    finally:
        figures.set_runner(previous)

    assert served_rows == direct_rows
    # warm cache: the service simulated nothing new
    assert metrics["serve.executed"] == 0
    assert metrics["serve.cache_hits"] == 6
    assert metrics["serve.result_cache{stat=hits}"] == 6


# ----------------------------------------------------------------------
# ServiceConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(max_queue=0), dict(per_client_inflight=0),
    dict(job_timeout_s=-1), dict(retry_after_s=0),
    dict(history_limit=0), dict(drain_timeout_s=0),
    dict(retry_jitter=-0.1), dict(retry_jitter=1.0),
    dict(journal_segment_records=0),
])
def test_service_config_rejects_bad_bounds(kwargs):
    with pytest.raises(ValueError):
        ServiceConfig(**kwargs)


def test_service_runner_single_run_helper():
    with serve() as harness:
        runner = ServiceRunner(client_for(harness))
        result = runner.run(spec_from_dict(SMALL))
        assert result.error is None
        assert runner.last_stats.total == 1


# ----------------------------------------------------------------------
# CLI entry point (python -m repro.serve)
# ----------------------------------------------------------------------
def test_cli_make_server_wires_config_cache_and_verbose(capsys):
    from repro.serve import __main__ as cli

    args = cli.build_parser().parse_args(
        ["--port", "0", "--no-cache", "--verbose",
         "--max-queue", "3", "--timeout", "9"])
    server = cli.make_server(args)
    assert server.config.max_queue == 3
    assert server.config.job_timeout_s == 9
    assert server.service.runner.cache is None
    # --jobs 1 (default): the serve watchdog stands alone over the
    # in-process serial leg; no worker pool exists
    assert server.service.runner.pool is None


def test_cli_make_server_durability_flags(tmp_path):
    from repro.serve import __main__ as cli

    args = cli.build_parser().parse_args(
        ["--port", "0", "--no-cache",
         "--journal-dir", str(tmp_path / "wal"), "--no-journal-fsync",
         "--drain-timeout", "5", "--supervised", "--jobs", "2",
         "--wall-limit", "7", "--rss-limit", "512", "--retries", "1",
         "--chaos", "worker-crash", "--chaos-seed", "9"])
    server = cli.make_server(args)
    assert server.config.journal_dir == str(tmp_path / "wal")
    assert server.config.journal_fsync is False
    assert server.config.drain_timeout_s == 5
    pool = server.service.runner.pool
    assert pool is not None
    assert pool.config.wall_limit_s == 7
    assert pool.config.rss_limit_mb == 512
    assert pool.config.retries == 1
    assert pool.chaos is not None and pool.chaos.seed == 9
    assert server.service._journal is not None


def test_cli_amain_starts_serves_and_shuts_down(capsys):
    from repro.serve import __main__ as cli

    args = cli.build_parser().parse_args(["--port", "0", "--no-cache"])

    async def drive():
        task = asyncio.create_task(cli._amain(args))
        await asyncio.sleep(0.3)          # let it bind and print
        task.cancel()
        return await task

    assert asyncio.run(drive()) == 0
    assert "listening on http://127.0.0.1:" in capsys.readouterr().err


def test_cli_amain_sigterm_drains_gracefully(capsys):
    import os
    import signal

    from repro.serve import __main__ as cli

    args = cli.build_parser().parse_args(
        ["--port", "0", "--no-cache", "--drain-timeout", "5"])

    async def drive():
        task = asyncio.create_task(cli._amain(args))
        await asyncio.sleep(0.3)          # bind + install the handler
        os.kill(os.getpid(), signal.SIGTERM)
        return await asyncio.wait_for(task, timeout=30)

    assert asyncio.run(drive()) == 0
    err = capsys.readouterr().err
    assert "listening on" in err
    assert "SIGTERM: draining" in err


def test_history_eviction_keeps_only_the_newest_jobs():
    with serve(history_limit=2) as harness:
        client = client_for(harness)
        ids = [client.submit(dict(SMALL, n_cmps=n))["id"]
               for n in (1, 2)]
        third = client.submit(OTHER)["id"]
        with pytest.raises(ServiceError):
            client.run_info(ids[0])            # evicted
        assert client.run_info(third)["status"] == "done"
