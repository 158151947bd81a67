"""Command-line entry point: ``python -m repro.serve [options]``.

Starts the simulation service and blocks until interrupted.  Examples::

    python -m repro.serve                         # 127.0.0.1:8642
    python -m repro.serve --port 0 --jobs 4       # ephemeral port, pooled
    python -m repro.serve --max-queue 8 --timeout 30

Then::

    curl -s localhost:8642/healthz
    curl -s -X POST localhost:8642/runs \\
         -d '{"workload": "sor", "mode": "single", "n_cmps": 2}'
    curl -s localhost:8642/metrics

``--verbose`` subscribes a line printer to the service's ``serve.*``
bus categories, streaming admission/completion events to stderr.

Each admitted job starts as soon as one of the ``--jobs`` slots is free
and answers its clients as soon as its own result lands.

Durability & supervision: ``--journal-dir DIR`` arms the write-ahead
job journal — a ``kill -9`` with jobs in flight loses no accepted work;
the next start replays unresolved jobs before reporting ready.  With
``--jobs`` above 1 — or ``--supervised``, which forces it at ``--jobs
1`` — each job runs in its own watched process of the supervised pool
(``--wall-limit`` / ``--rss-limit`` / ``--retries``, circuit breaker
for poison specs), and ``--chaos PROFILE`` arms deterministic harness
faults for drills.
SIGTERM triggers a graceful drain bounded by ``--drain-timeout``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import signal

from repro.config import ServiceConfig
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.runner import Runner
from repro.experiments.supervisor import add_pool_arguments, pool_config
from repro.serve.http import ServiceServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve RunSpec simulations over a local HTTP/JSON API.")
    defaults = ServiceConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help=f"TCP port (0 = ephemeral; default "
                             f"{defaults.port})")
    parser.add_argument("--max-queue", type=int, default=defaults.max_queue,
                        help="admission bound: max unresolved unique jobs "
                             f"(default {defaults.max_queue})")
    parser.add_argument("--per-client", type=int,
                        default=defaults.per_client_inflight,
                        help="per-client in-flight cap "
                             f"(default {defaults.per_client_inflight})")
    parser.add_argument("--timeout", type=float,
                        default=defaults.job_timeout_s, metavar="SEC",
                        help="per-job wall-clock watchdog, from the job's "
                             "start; stuck jobs resolve as structured "
                             "Timeout errors "
                             f"(default {defaults.job_timeout_s})")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="jobs run at once, each in its own worker "
                             "process when above 1 (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--verbose", action="store_true",
                        help="stream serve.* bus events to stderr")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable request-scoped causal tracing and "
                             "write the merged Perfetto trace (service + "
                             "worker tracks) to PATH at shutdown")
    durability = parser.add_argument_group(
        "durability & supervision",
        "write-ahead job journal, supervised worker pool, chaos")
    durability.add_argument("--journal-dir", default=None, metavar="DIR",
                            help="enable the write-ahead job journal in "
                                 "DIR; on restart, unresolved jobs are "
                                 "replayed (default: journaling off)")
    durability.add_argument("--no-journal-fsync", action="store_true",
                            help="skip the per-record fsync (faster, "
                                 "loses crash durability)")
    durability.add_argument("--drain-timeout", type=float,
                            default=defaults.drain_timeout_s, metavar="SEC",
                            help="SIGTERM graceful-drain budget "
                                 f"(default {defaults.drain_timeout_s})")
    add_pool_arguments(durability)
    return parser


def make_server(args) -> ServiceServer:
    config = ServiceConfig(
        host=args.host, port=args.port, max_queue=args.max_queue,
        per_client_inflight=args.per_client,
        job_timeout_s=args.timeout, journal_dir=args.journal_dir,
        journal_fsync=not args.no_journal_fsync,
        drain_timeout_s=args.drain_timeout,
        trace=args.trace_out is not None)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # With a pool (--jobs > 1 or --supervised) each job runs in its own
    # process, and one that outlives --wall-limit is killed and reaped.
    # The per-job --timeout watchdog above it answers the clients
    # whichever fires first; at --jobs 1 it guards the in-process leg
    # alone, whose thread cannot be killed.
    runner = Runner(jobs=args.jobs, cache=cache, supervisor=pool_config(args))
    server = ServiceServer(runner=runner, config=config)
    if args.verbose:
        def printer(now, category, subject, detail, event_args):
            print(f"[serve] {category} {subject} {detail}", file=sys.stderr)
        server.service.bus.subscribe(printer)
    return server


async def _amain(args) -> int:
    server = make_server(args)
    await server.start()
    print(f"[serve] listening on http://{server.host}:{server.port} "
          f"(max_queue={server.config.max_queue}, "
          f"jobs={server.service.runner.jobs_effective}, "
          f"journal={args.journal_dir or 'off'}, "
          f"supervised={server.service.runner.pool is not None})",
          file=sys.stderr, flush=True)
    loop = asyncio.get_running_loop()
    drained = asyncio.Event()

    def _sigterm() -> None:
        print(f"[serve] SIGTERM: draining "
              f"(budget {server.config.drain_timeout_s}s)",
              file=sys.stderr, flush=True)

        async def _drain() -> None:
            await server.drain()
            drained.set()
        asyncio.ensure_future(_drain())
    try:
        loop.add_signal_handler(signal.SIGTERM, _sigterm)
    except (NotImplementedError, RuntimeError):   # pragma: no cover
        pass                                      # e.g. non-Unix loops
    try:
        serve = asyncio.ensure_future(server.serve_forever())
        done_first = await asyncio.wait(
            {serve, asyncio.ensure_future(drained.wait())},
            return_when=asyncio.FIRST_COMPLETED)
        for task in done_first[1]:                # cancel the loser
            task.cancel()
        await asyncio.gather(*done_first[1], return_exceptions=True)
        if serve.done() and not serve.cancelled() \
                and serve.exception() is not None:
            raise serve.exception()
    except asyncio.CancelledError:
        pass
    finally:
        if not drained.is_set():
            await server.stop()
        if args.trace_out and server.service.tracer is not None:
            path = server.service.tracer.write(args.trace_out)
            print(f"[serve] wrote {len(server.service.tracer)} span(s) "
                  f"to {path}", file=sys.stderr, flush=True)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("[serve] interrupted; shutting down", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
