"""The four workloads, as run inside one fresh child process.

Each workload has the same life cycle: ``setup()`` (untimed; the
warm-up a one-shot user pays for), then either ``measure(seconds)`` —
the untraced closed loop that yields the end-to-end metrics — or
``trace(tracer)`` — a shortened, fixed-count pass that yields the
per-layer metrics — then ``finish()`` and ``close()``.

* ``micro-ocean`` — ocean on 4 CMPs in slipstream mode (G1), the
  repository's standing micro.  Its working set overflows the modelled
  L2, so cache and L2-controller work dominate and coherence is light.
* ``fuzz-share`` — a seeded sharing-heavy kernel whose working set fits:
  heavy coherence and network traffic, no evictions.  Each operation is
  a pair: dir-inv with self-invalidation, then the directoryless ``dls``
  protocol, so both protocol tables are measured.  Sharing-heavy
  kernels are predicted to be bound by coherence latency, not cache
  capacity; this is the mirror image of ``micro-ocean``.
* ``fig-batch`` — figures 1, 4 and 5 regenerated for one panel of
  kernels and CMP counts, through the figure functions and one pooled
  ``Runner`` with a cold result cache, as ``python -m
  repro.experiments`` does: one batch per figure, fresh machines and
  tapes for every spec, dedup across figures through the runner's
  memo, cache writes; then an untimed warm replay that must simulate
  nothing.
* ``serve-mix`` — ``python -m repro.serve`` (supervised pool, journal)
  driven by one asyncio process with two closed-loop clients: ``ui``
  posts single runs, ``sweep`` posts batches.  The only workload that
  crosses admission, coalescing, wave batching, the journal and the
  fork-per-job pool.
"""

from __future__ import annotations

import asyncio
import cProfile
import http.client
import json
import math
import multiprocessing
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import scaled_config
from repro.experiments.cache import ResultCache
from repro.experiments.driver import RunResult, run_mode
from repro.experiments.runner import Runner, RunSpec, execute_spec
from repro.obs.trace import trace_scope
from repro.serve import protocol
from repro.workloads import Fuzz

from . import ROOT, inputs, layers, stats
from .gate import Gate, digest, spec_key
from .harness import child_env

NPROC = multiprocessing.cpu_count()
#: client-side deadline for one request (a stuck service fails the run)
REQUEST_TIMEOUT_S = 120.0


def closed_loop(op: Callable[[], object], check: Callable[[object], None],
                seconds: float, min_ops: int, gate: Gate,
                label: str) -> List[float]:
    """One caller running ``op`` back to back for ``seconds`` (and at
    least ``min_ops`` times).  Returns each operation's latency; one
    that raises is a failure with infinite latency.  ``check`` runs
    outside the timed region."""
    latencies: List[float] = []
    started = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - started < seconds:
        began = time.perf_counter()
        try:
            value = op()
        except Exception as exc:
            latencies.append(math.inf)
            gate.refused(label, f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - began)
        check(value)
    return latencies


def timed(op: Callable[[], object]) -> Tuple[float, object]:
    """``(seconds, value)`` of one call."""
    started = time.perf_counter()
    value = op()
    return time.perf_counter() - started, value


def span_records(tracer) -> List[layers.SpanRecord]:
    return layers.records_from_perfetto(tracer.to_perfetto())


def loop_metrics(latencies: List[float], specs_per_op: int,
                 kcycles_per_op: float) -> Dict[str, float]:
    busy = sum(latencies)
    return {"op_p50_ms": stats.percentile(latencies, 50) * 1e3,
            "specs_per_s": specs_per_op * len(latencies) / busy,
            "sim_kcycles_per_s": kcycles_per_op * len(latencies) / busy}


def reap_pool_workers(timeout_s: float = 30.0) -> None:
    """Wait for the pooled runner's worker processes to exit."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


class Workload:
    name = ""
    #: per-layer metric groups this workload reaches
    layer_groups: tuple = ()
    #: the service's Perfetto trace from the traced pass (serve-mix only)
    server_trace: Optional[dict] = None

    def __init__(self, seed: int, smoke: bool, gate: Gate, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.gate = gate
        self.tmp = tmp

    def setup(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class MicroOcean(Workload):
    name = "micro-ocean"
    layer_groups = ("profile", "engine", "model", "trace")
    spec = inputs.MICRO_SPEC

    def run(self) -> RunResult:
        return execute_spec(self.spec)

    def check(self, result: RunResult) -> None:
        self.gate.check(spec_key(self.spec), result, self.spec.label())
        self.cycles = result.exec_cycles

    def setup(self) -> None:
        self.check(self.run())

    def measure(self, seconds: float) -> Dict[str, float]:
        latencies = closed_loop(self.run, self.check, seconds,
                                1 if self.smoke else 3, self.gate,
                                self.spec.label())
        return loop_metrics(latencies, 1, self.cycles / 1e3)

    def trace(self, tracer) -> Dict[str, float]:
        untraced, traced = [], []
        for _ in range(2):
            wall, result = timed(self.run)
            untraced.append(wall)
            self.check(result)
            with tracer.start_span("bench.run", spec=self.spec.label()) as span:
                with trace_scope(tracer, span):
                    wall, result = timed(self.run)
            traced.append(wall)
            self.check(result)
        profile = cProfile.Profile()
        profile.enable()
        result = self.run()
        profile.disable()
        self.check(result)
        return dict(layers.profile_metrics(profile, result.exec_cycles / 1e3),
                    **layers.engine_metrics(span_records(tracer)),
                    **layers.model_metrics([result]),
                    **{"trace.overhead": stats.percentile(traced, 50)
                       / stats.percentile(untraced, 50) - 1.0})


# ----------------------------------------------------------------------
class FuzzShare(Workload):
    name = "fuzz-share"
    layer_groups = ("profile", "engine", "model", "trace")

    def __init__(self, *args):
        super().__init__(*args)
        self.params = inputs.fuzz_params(self.seed, self.smoke)
        self.keys = [inputs.fuzz_key(self.params, protocol, si)
                     for protocol, si in inputs.FUZZ_PAIR]
        #: results awaiting their reference digests (see finish())
        self.pending: List[List[RunResult]] = []

    def pair(self, check: bool = False) -> List[RunResult]:
        return [run_mode(Fuzz(**self.params),
                         scaled_config(inputs.FUZZ_CMPS, protocol=protocol,
                                       check=check),
                         "slipstream", si=si)
                for protocol, si in inputs.FUZZ_PAIR]

    def check(self, results: List[RunResult]) -> None:
        self.pending.append(results)
        self.cycles = sum(result.exec_cycles for result in results)

    def setup(self) -> None:
        self.check(self.pair())

    def measure(self, seconds: float) -> Dict[str, float]:
        latencies = closed_loop(self.pair, self.check, seconds,
                                1 if self.smoke else 3, self.gate,
                                "fuzz pair")
        return loop_metrics(latencies, len(inputs.FUZZ_PAIR),
                            self.cycles / 1e3)

    def trace(self, tracer) -> Dict[str, float]:
        untraced, results = timed(self.pair)
        self.check(results)
        with tracer.start_span("bench.pair", seed=self.seed) as span:
            with trace_scope(tracer, span):
                traced, results = timed(self.pair)
        self.check(results)
        profile = cProfile.Profile()
        profile.enable()
        results = self.pair()
        profile.disable()
        self.check(results)
        return dict(layers.profile_metrics(profile, self.cycles / 1e3),
                    **layers.engine_metrics(span_records(tracer)),
                    **layers.model_metrics(results),
                    **{"trace.overhead": traced / untraced - 1.0})

    def finish(self) -> None:
        """Check every pair run against its reference.  A seed without a
        recorded digest is referenced against one untimed run under the
        invariant sanitizer, whose only extra output is ``check_stats``."""
        if any(key not in self.gate.expected for key in self.keys):
            try:
                checked = self.pair(check=True)
            except Exception as exc:
                self.gate.refused("fuzz cross-check",
                                  f"{type(exc).__name__}: {exc}")
                checked = []
            for key, result in zip(self.keys, checked):
                result.check_stats = None
                self.gate.expected.setdefault(key, digest(result))
        for results in self.pending:
            for key, result in zip(self.keys, results):
                self.gate.check(key, result, f"fuzz {key}")


# ----------------------------------------------------------------------
class TimedCache(ResultCache):
    """Result cache that times (and spans) every get and put."""

    def __init__(self, root: Path, tracer):
        super().__init__(root)
        self.tracer = tracer
        self.get_s = 0.0
        self.put_s = 0.0

    def get(self, key: str):
        with self.tracer.start_span("bench.cache_get"):
            started = time.perf_counter()
            try:
                return super().get(key)
            finally:
                self.get_s += time.perf_counter() - started

    def put(self, key: str, result) -> None:
        with self.tracer.start_span("bench.cache_put"):
            started = time.perf_counter()
            try:
                super().put(key, result)
            finally:
                self.put_s += time.perf_counter() - started


class RecordingRunner(Runner):
    """Runner that keeps every batch the figure functions send it, for
    the gate.  With a tracer, each batch runs under a benchmark span."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: List[Tuple[List[RunSpec], List[RunResult]]] = []
        self.executed = 0

    def run_batch(self, specs):
        if self.tracer is None:
            results = super().run_batch(specs)
        else:
            with self.tracer.start_span("bench.run_batch",
                                        specs=len(specs)) as span:
                results = super().run_batch(specs,
                                            [span.context] * len(specs))
        self.batches.append((list(specs), results))
        self.executed += self.last_stats.executed
        return results

    def answers(self):
        """Every ``(spec, result)`` the figures received."""
        for specs, results in self.batches:
            yield from zip(specs, results)


class FigBatch(Workload):
    name = "fig-batch"
    layer_groups = ("profile", "engine", "runner", "model", "trace")

    def __init__(self, *args):
        super().__init__(*args)
        self.panel = inputs.fig_panel(self.seed, self.smoke)
        self.specs = inputs.panel_specs(self.panel)
        self.unique = list(dict.fromkeys(self.specs))
        self.caches = 0

    def fresh_cache_dir(self) -> Path:
        self.caches += 1
        return self.tmp / f"cache-{self.caches}"

    def regenerate(self, cache: ResultCache, tracer=None) -> RecordingRunner:
        runner = RecordingRunner(jobs=NPROC, cache=cache)
        runner.tracer = tracer
        inputs.regenerate(self.panel, runner)
        return runner

    def batch(self):
        """One operation: the panel's figures on a cold result cache."""
        cache = ResultCache(self.fresh_cache_dir())
        return cache, self.regenerate(cache)

    def check(self, value) -> None:
        cache, runner = value
        reap_pool_workers()
        self.check_results(runner)
        self.warm_replay(cache)
        shutil.rmtree(cache.root, ignore_errors=True)

    def check_results(self, runner: RecordingRunner) -> None:
        by_spec = {}
        for spec, result in runner.answers():
            self.gate.check(spec_key(spec), result, spec.label())
            by_spec[spec] = result
        self.results = list(by_spec.values())
        self.kcycles = sum(r.exec_cycles for r in self.results) / 1e3

    def warm_replay(self, cache: ResultCache) -> float:
        """Regenerate the panel on the warm cache with a fresh Runner; it
        must simulate nothing and return the same results."""
        wall, runner = timed(lambda: self.regenerate(cache))
        self.gate.attempted += 1
        if runner.executed:
            self.gate.fail(f"warm replay simulated {runner.executed} spec(s)")
        for spec, result in runner.answers():
            if digest(result) != self.gate.expected.get(spec_key(spec)):
                self.gate.fail(f"warm replay {spec.label()}: digest mismatch")
        return wall

    def measure(self, seconds: float) -> Dict[str, float]:
        latencies = closed_loop(self.batch, self.check, seconds, 1,
                                self.gate, "batch")
        return loop_metrics(latencies, len(self.specs), self.kcycles)

    def trace(self, tracer) -> Dict[str, float]:
        untraced, value = timed(self.batch)
        self.check(value)
        cache = TimedCache(self.fresh_cache_dir(), tracer)
        traced, runner = timed(lambda: self.regenerate(cache, tracer))
        reap_pool_workers()
        self.check_results(runner)
        put_s, cache.get_s = cache.put_s, 0.0
        with tracer.start_span("bench.warm_replay"):
            replay_wall = self.warm_replay(cache)

        # cProfile cannot see into pool workers, so the profile is a
        # serial pass; to keep the traced run short it covers the specs
        # at the panel's first CMP count (and the sequential baselines).
        subset = [spec for spec in self.unique
                  if spec.n_cmps in (1, self.panel.cmps[0])]
        profile = cProfile.Profile()
        profile.enable()
        profiled = [execute_spec(spec) for spec in subset]
        profile.disable()
        for spec, result in zip(subset, profiled):
            self.gate.check(spec_key(spec), result, spec.label())
        serial = sum(result.wall_seconds for result in self.results)
        return dict(
            layers.profile_metrics(profile, sum(r.exec_cycles
                                                for r in profiled) / 1e3),
            **layers.engine_metrics(span_records(tracer)),
            **layers.model_metrics(self.results),
            **{"runner.executed": runner.executed,
               "runner.deduped": len(self.specs) - runner.executed,
               "runner.pool_busy_share": serial / (NPROC * traced),
               "runner.cache_put_share": put_s / traced,
               "runner.cache_get_share": cache.get_s / replay_wall,
               "trace.overhead": traced / untraced - 1.0})


# ----------------------------------------------------------------------
class Server:
    """``python -m repro.serve`` as a subprocess on an ephemeral port."""

    LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")

    def __init__(self, tmp: Path, trace_out: Optional[Path] = None):
        tmp.mkdir(parents=True, exist_ok=True)
        self.log_path = tmp / "serve.log"
        cmd = [sys.executable, "-m", "repro.serve", "--port", "0",
               "--supervised", "--jobs", str(NPROC),
               "--journal-dir", str(tmp / "journal"),
               "--cache-dir", str(tmp / "cache")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         stdout=subprocess.DEVNULL,
                                         stderr=log)
        try:
            self.host, self.port = self._wait_listening()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout_s: float = 60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = self.LISTENING.search(self.log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start: "
                           f"{self.log_path.read_text()[-2000:]}")

    def _wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz?ready=1")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("service never became ready")

    def metrics(self) -> Dict[str, float]:
        status, _, body = asyncio.run(protocol.http_request(
            self.host, self.port, "GET", "/metrics",
            timeout=REQUEST_TIMEOUT_S))
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body

    def stop(self) -> None:
        """SIGTERM (graceful drain; writes the trace), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ServeMix(Workload):
    name = "serve-mix"
    layer_groups = ("engine", "serve", "model", "trace")
    #: the traced pass runs the load sized for this many seconds, twice
    TRACED_SECONDS = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.servers = 0
        self.server: Optional[Server] = None

    def start_server(self, trace_out: Optional[Path] = None) -> Server:
        self.servers += 1
        self.server = Server(self.tmp / f"server-{self.servers}", trace_out)
        return self.server

    def setup(self) -> None:
        self.start_server()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    async def load(self, server: Server, ui_specs, sweeps, tracer=None):
        """Both clients, closed loop, one request each in flight: ``ui``
        posts ``ui_specs`` one by one, ``sweep`` posts ``sweeps``."""
        ui: List[Dict[str, object]] = []
        sweep: List[Dict[str, object]] = []

        async def post(client: str, path: str, payload, **attrs):
            span = (tracer.start_span(f"client.{client}", **attrs)
                    if tracer is not None else None)
            began = time.perf_counter()
            try:
                status, _, body = await protocol.http_request(
                    server.host, server.port, "POST", path, payload,
                    timeout=REQUEST_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError, ValueError,
                    IndexError) as exc:
                status, body = 0, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            if span is not None:
                span.set(status=status).end()
            return status, body, latency

        async def ui_client() -> None:
            for spec in ui_specs:
                status, body, latency = await post(
                    "ui", "/runs", {"spec": spec.as_dict(), "client": "ui"},
                    spec=spec.label())
                ui.append({"spec": spec, "status": status, "body": body,
                           "latency": latency})

        async def sweep_client() -> None:
            for batch in sweeps:
                status, body, latency = await post(
                    "sweep", "/batch",
                    {"specs": [spec.as_dict() for spec in batch],
                     "client": "sweep"}, specs=len(batch))
                sweep.append({"specs": batch, "status": status,
                              "body": body, "latency": latency})

        started = time.perf_counter()
        await asyncio.gather(ui_client(), sweep_client())
        return ui, sweep, time.perf_counter() - started

    def check(self, ui, sweep) -> List[tuple]:
        """Gate every answer; returns ``(spec, result)`` for the correct
        ones.  A ui request that failed gets infinite latency."""
        answers = []

        def one(spec, status, result) -> bool:
            if status != 200 or not isinstance(result, dict):
                self.gate.refused(spec.label(), f"HTTP {status}")
                return False
            if self.gate.check(spec_key(spec), result, spec.label()):
                answers.append((spec, result))
                return True
            return False

        for record in ui:
            body = record["body"]
            if not one(record["spec"], record["status"],
                       body.get("result") if isinstance(body, dict) else None):
                record["latency"] = math.inf
        for record in sweep:
            entries = (record["body"].get("results")
                       if isinstance(record["body"], dict) else None) or []
            entries += [{}] * (len(record["specs"]) - len(entries))
            for spec, entry in zip(record["specs"], entries):
                one(spec, record["status"], entry.get("result"))
        return answers

    def measure(self, seconds: float) -> Dict[str, float]:
        ui, sweep, wall = asyncio.run(self.load(
            self.server, *inputs.serve_load(self.seed, seconds, self.smoke)))
        answers = self.check(ui, sweep)
        return {"op_p50_ms": stats.percentile([r["latency"] for r in ui],
                                              50) * 1e3,
                "specs_per_s": len(answers) / wall,
                "sim_kcycles_per_s": sum(result["exec_cycles"]
                                         for _, result in answers) / 1e3 / wall}

    def trace(self, tracer) -> Dict[str, float]:
        load = inputs.serve_load(self.seed, self.TRACED_SECONDS, self.smoke)
        ui, sweep, untraced = asyncio.run(self.load(self.server, *load))
        self.check(ui, sweep)
        self.server.stop()

        trace_path = self.tmp / "serve-trace.json"
        server = self.start_server(trace_out=trace_path)
        ui, sweep, traced = asyncio.run(self.load(server, *load, tracer))
        answers = self.check(ui, sweep)
        flat = server.metrics()
        server.stop()
        self.server_trace = json.loads(trace_path.read_text())
        records = layers.records_from_perfetto(self.server_trace)
        requests = [{"id": r["body"]["id"], "coalesced": r["body"]["coalesced"],
                     "latency_us": r["latency"] * 1e6}
                    for r in ui if r["latency"] != math.inf]
        unique = dict(answers)
        return dict(layers.engine_metrics(records),
                    **layers.serve_metrics(records, requests, flat),
                    **layers.model_metrics([RunResult.from_dict(result)
                                            for result in unique.values()]),
                    **{"trace.overhead": traced / untraced - 1.0})


WORKLOADS = {cls.name: cls for cls in (MicroOcean, FuzzShare, FigBatch,
                                       ServeMix)}
