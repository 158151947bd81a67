#!/usr/bin/env python
"""Seeded load generator for the simulation service (``repro.serve``).

Builds a deterministic request trace from a seed (same seed => same
specs in the same order, duplicates included), replays it against a
running service with bounded concurrency, and reports what the service
did: completions, sheds (429 back-pressure / 503 unavailability, with
optional Retry-After-honouring retries), coalesced duplicates, and p50/p95
request latency taken from the service's own obs histogram rather than
client-side wall clocks.

With ``--verify`` every unique spec is additionally executed directly
through a local :class:`~repro.experiments.runner.Runner`, and every
served answer is compared field-for-field (minus wall time) against
that run — the bit-identity contract of docs/architecture.md §12.

Run (against an already-running ``python -m repro.serve``)::

    PYTHONPATH=src python scripts/loadgen.py --url http://127.0.0.1:8642

or fully self-contained (spawns an in-process server on an ephemeral
port, used by the CI smoke)::

    PYTHONPATH=src python scripts/loadgen.py --spawn --requests 12 --verify

Exit status: 0 on a clean replay; 1 if any request was shed (pass
``--allow-shed`` to tolerate back-pressure), failed, or — under
``--verify`` — diverged from direct execution.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

try:
    import repro  # noqa: F401  (PYTHONPATH=src or an installed package)
except ImportError:                                    # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import protocol  # noqa: E402

#: default spec pool the trace draws from — deliberately tiny runs
DEFAULT_WORKLOADS = ("sor", "cg")
DEFAULT_MODES = ("single", "double")
DEFAULT_CMPS = (1, 2)


def make_trace(seed: int, n: int,
               workloads: Tuple[str, ...] = DEFAULT_WORKLOADS,
               modes: Tuple[str, ...] = DEFAULT_MODES,
               cmps: Tuple[int, ...] = DEFAULT_CMPS,
               dup_rate: float = 0.5) -> List[Dict[str, object]]:
    """The deterministic request trace for ``seed``.

    With probability ``dup_rate`` a request repeats an earlier spec from
    the same trace — replayed concurrently, those duplicates are what
    exercises the service's single-flight coalescing.
    """
    rng = random.Random(seed)
    trace: List[Dict[str, object]] = []
    for _ in range(n):
        if trace and rng.random() < dup_rate:
            trace.append(dict(trace[rng.randrange(len(trace))]))
        else:
            trace.append({"workload": rng.choice(workloads),
                          "mode": rng.choice(modes),
                          "n_cmps": rng.choice(cmps)})
    return trace


async def replay(host: str, port: int, trace: List[Dict[str, object]],
                 concurrency: int, client_id: str, timeout: float,
                 shed_retries: int = 0) -> List[Dict[str, object]]:
    """Fire the whole trace with at most ``concurrency`` in flight;
    returns one record per request, in trace order.

    ``shed_retries`` > 0 honours the service's back-pressure protocol:
    a 429/503 answer is retried after sleeping the server's (jittered)
    ``Retry-After`` hint, up to that many times, before it counts as a
    shed.
    """
    semaphore = asyncio.Semaphore(concurrency)

    async def one(index: int, spec: Dict[str, object]) -> Dict[str, object]:
        retried = 0
        async with semaphore:
            started = time.monotonic()
            while True:
                status, headers, body = await protocol.http_request(
                    host, port, "POST", "/runs",
                    {"spec": spec, "client": client_id}, timeout=timeout)
                if status in (429, 503) and retried < shed_retries:
                    retried += 1
                    await asyncio.sleep(
                        float(headers.get("retry-after", 0.1)))
                    continue
                break
            elapsed = time.monotonic() - started
        record: Dict[str, object] = {"index": index, "spec": spec,
                                     "status": status,
                                     "client_seconds": round(elapsed, 4),
                                     "retried": retried}
        if status in (429, 503):
            record["shed"] = True
            record["retry_after"] = headers.get("retry-after")
        elif isinstance(body, dict):
            record["id"] = body.get("id")
            record["coalesced"] = bool(body.get("coalesced"))
            result = body.get("result") or {}
            record["error"] = result.get("error")
            record["result"] = result
        return record

    return list(await asyncio.gather(
        *(one(i, spec) for i, spec in enumerate(trace))))


def verify_against_direct(records: List[Dict[str, object]]
                          ) -> Tuple[int, List[Dict[str, object]]]:
    """Run each unique completed spec once through a local Runner and
    diff the deterministic fields of *every* completed record against
    that run; returns ``(records verified, mismatches)``."""
    from repro.experiments.runner import Runner
    from repro.serve.service import deterministic_dict, spec_from_dict

    # no disk cache: really re-execute; the memo runs each spec once
    runner = Runner()
    verified = 0
    mismatches = []
    for record in records:
        if record.get("shed") or record.get("error") \
                or "result" not in record:
            continue
        expected = deterministic_dict(
            runner.run(spec_from_dict(record["spec"])))
        served = dict(record["result"])
        served.pop("wall_seconds", None)
        verified += 1
        if served != expected:
            diff = sorted(name for name in set(expected) | set(served)
                          if expected.get(name) != served.get(name))
            mismatches.append({"index": record.get("index"),
                               "spec": record["spec"], "fields": diff})
    return verified, mismatches


def summarize(records: List[Dict[str, object]],
              metrics: Dict[str, float]) -> Dict[str, object]:
    shed = sum(1 for r in records if r.get("shed"))
    failed = sum(1 for r in records if r.get("error"))
    return {
        "requests": len(records),
        "completed": sum(1 for r in records
                         if not r.get("shed") and not r.get("error")),
        "shed": shed,
        "failed": failed,
        "retried": sum(r.get("retried", 0) for r in records),
        "coalesced": sum(1 for r in records if r.get("coalesced")),
        # the service's own histogram, not client wall clocks
        "server_p50_ms": metrics.get("serve.latency_quantile_ms{q=0.5}"),
        "server_p95_ms": metrics.get("serve.latency_quantile_ms{q=0.95}"),
        "server_executed": metrics.get("serve.executed"),
        "server_cache_hits": metrics.get("serve.cache_hits"),
        "server_memo_hits": metrics.get("serve.memo_hits"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url", default=None,
                        help="service base URL, e.g. http://127.0.0.1:8642 "
                             "(omit with --spawn)")
    parser.add_argument("--spawn", action="store_true",
                        help="start an in-process service on an ephemeral "
                             "port for the duration of the replay")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--requests", type=int, default=12, metavar="N")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--dup-rate", type=float, default=0.5,
                        help="probability a request repeats an earlier "
                             "spec (default 0.5)")
    parser.add_argument("--client", default="loadgen")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="client-side per-request timeout (seconds)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="--spawn only: Runner worker processes")
    parser.add_argument("--supervised", action="store_true",
                        help="--spawn only: execute waves through the "
                             "supervised worker pool (per-job process "
                             "isolation) even at --jobs 1")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="--spawn only: enable request tracing and "
                             "write the merged Perfetto trace to PATH "
                             "after the replay")
    parser.add_argument("--verify", action="store_true",
                        help="re-execute unique specs directly and compare "
                             "deterministic fields with every served result")
    parser.add_argument("--allow-shed", action="store_true",
                        help="do not fail the run when requests are shed")
    parser.add_argument("--shed-retries", type=int, default=0, metavar="N",
                        help="retry a 429/503 up to N times, sleeping the "
                             "server's Retry-After hint between attempts "
                             "(default 0: shed immediately)")
    parser.add_argument("--wait-ready", type=float, default=10.0,
                        metavar="SEC",
                        help="poll /healthz?ready=1 up to SEC before the "
                             "replay starts (0 = skip; default 10)")
    parser.add_argument("--json", action="store_true",
                        help="print the full per-request records too")
    args = parser.parse_args(argv)
    if not args.spawn and not args.url:
        parser.error("either --url or --spawn is required")

    if (args.trace_out or args.supervised) and not args.spawn:
        parser.error("--trace-out and --supervised require --spawn")

    trace = make_trace(args.seed, args.requests, dup_rate=args.dup_rate)
    spawned = None
    if args.spawn:
        from repro.config import ServiceConfig
        from repro.experiments.runner import Runner
        from repro.serve import ServerThread
        config = None
        if args.trace_out:
            config = ServiceConfig(port=0, trace=True)
        runner = Runner(jobs=args.jobs,
                        supervisor=True if args.supervised else None)
        spawned = ServerThread(runner=runner, config=config).start()
        host, port = spawned.host, spawned.port
    else:
        split = urlsplit(args.url)
        host, port = split.hostname, split.port or 80
    try:
        if args.wait_ready > 0:
            from repro.serve import Client
            if not Client(host, port, timeout=5.0).wait_ready(
                    args.wait_ready):
                print(f"[loadgen] service at {host}:{port} never became "
                      f"ready within {args.wait_ready}s", file=sys.stderr)
                return 1
        records = asyncio.run(replay(host, port, trace, args.concurrency,
                                     args.client, args.timeout,
                                     shed_retries=args.shed_retries))
        _, _, metrics = asyncio.run(protocol.http_request(
            host, port, "GET", "/metrics", timeout=args.timeout))
    finally:
        if spawned is not None:
            tracer = (spawned.server.service.tracer
                      if spawned.server is not None else None)
            spawned.stop()
            if args.trace_out and tracer is not None:
                path = tracer.write(args.trace_out)
                print(f"[loadgen] wrote {len(tracer)} span(s) to {path}",
                      file=sys.stderr)

    summary = summarize(records, metrics if isinstance(metrics, dict)
                        else {})
    mismatches: List[Dict[str, object]] = []
    if args.verify:
        print("[loadgen] verifying served results against direct "
              "execution ...", file=sys.stderr)
        summary["verified"], mismatches = verify_against_direct(records)
        summary["mismatches"] = mismatches

    payload = dict(summary, seed=args.seed)
    if args.json:
        payload["records"] = records
    print(json.dumps(payload, indent=2, sort_keys=True))

    ok = (summary["failed"] == 0 and not mismatches
          and (summary["shed"] == 0 or args.allow_shed))
    if not ok:
        print(f"[loadgen] FAILED: shed={summary['shed']} "
              f"failed={summary['failed']} "
              f"mismatches={len(mismatches)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
