"""Command-line driver: ``python -m repro.experiments <experiment> [...]``.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig1 --cmps 2 4 8 16
    python -m repro.experiments fig5 --workloads sor ocean --cmps 8 16
    python -m repro.experiments fig10 --jobs 8
    python -m repro.experiments all --jobs 8   # everything, in parallel

Execution control: ``--jobs N`` fans independent simulations out over N
supervised worker processes (``--wall-limit``/``--rss-limit``/
``--retries``/``--chaos`` configure that pool; ``--supervised`` uses it
even at ``--jobs 1``); results are cached on disk (``--cache-dir``, default
``.repro-cache``) keyed by a content hash of the run spec + machine
config, so re-running any figure — or a figure that shares runs with an
earlier one — skips the simulations entirely.  ``--no-cache`` disables
the disk cache.  A cache/parallelism summary goes to stderr; stdout
stays byte-identical to a serial, uncached run.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import PROTOCOLS
from repro.experiments import figures
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.runner import Runner
from repro.experiments.supervisor import add_pool_arguments, pool_config
from repro.faults import FAULT_PROFILES
from repro.stats.report import bar_chart, series_table
from repro.workloads import PAPER_ORDER


def _fault_overrides(args) -> dict:
    """MachineConfig overrides implied by ``--faults``/``--fault-seed``."""
    if args.faults is None:
        return {}
    overrides = dict(FAULT_PROFILES[args.faults])
    overrides.update(faults=True, fault_seed=args.fault_seed)
    return overrides


def _flatten_fig5(data):
    flat = {}
    for name, per_n in data.items():
        for n, row in per_n.items():
            flat[f"{name}@{n}"] = row
    return flat


def _flatten_fig6(data):
    flat = {}
    for name, modes in data.items():
        policy = modes.get("policy", "")
        for mode in ("S", "D", "R", "A"):
            flat[f"{name}/{mode}"] = modes[mode]
        flat[f"{name}/policy"] = {"policy": policy}
    return flat


def _flatten_fig7(data):
    flat = {}
    for name, per_policy in data.items():
        for policy, kinds in per_policy.items():
            for kind, breakdown in kinds.items():
                flat[f"{name}/{policy}/{kind}"] = breakdown
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=["table1", "table2", "fig1", "fig4", "fig5",
                                 "fig6", "fig7", "fig9", "fig10",
                                 "sensitivity", "claims", "fuzz", "all"])
    parser.add_argument("--parameter", default="net_time",
                        help="machine parameter for the sensitivity sweep")
    parser.add_argument("--results", default="results_raw.json",
                        help="raw-results dump for the claims checker")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"benchmark subset (default: paper set "
                             f"{list(PAPER_ORDER)})")
    parser.add_argument("--cmps", nargs="*", type=int, default=None,
                        help="CMP counts for the sweep figures")
    parser.add_argument("--json", action="store_true",
                        help="emit raw JSON instead of a text table")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent simulations "
                             "(default: 1, serial)")
    parser.add_argument("--check", action="store_true",
                        help="run every simulation with the repro.check "
                             "invariant sanitizer enabled (slower; never "
                             "changes simulated timing)")
    parser.add_argument("--seed", type=int, default=2003,
                        help="fuzz-workload seed (fuzz experiment only)")
    parser.add_argument("--faults", nargs="?", const="chaos", default=None,
                        choices=sorted(FAULT_PROFILES), metavar="PROFILE",
                        help="enable deterministic fault injection with the "
                             f"named profile ({'/'.join(sorted(FAULT_PROFILES))}; "
                             "bare --faults means chaos)")
    parser.add_argument("--fault-seed", type=int, default=1,
                        help="seed for the fault-injection RNG streams "
                             "(default: 1; same seed => same fault schedule)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort the whole batch on the first failed "
                             "simulation instead of recording structured "
                             "error results")
    add_pool_arguments(parser)
    parser.add_argument("--metrics", action="store_true",
                        help="collect the observability spine's metrics "
                             "registry for every simulation and embed the "
                             "flat export in each result (never changes "
                             "simulated timing; participates in cache keys)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace (load at "
                             "https://ui.perfetto.dev) of the final "
                             "slipstream leg; fuzz experiment only")
    parser.add_argument("--protocol", default="dir-inv", choices=PROTOCOLS,
                        help="coherence protocol for every simulation "
                             "(default: dir-inv, the paper's directory "
                             "protocol; participates in cache keys)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    args = parser.parse_args(argv)

    workloads = tuple(args.workloads) if args.workloads else PAPER_ORDER
    cmps = tuple(args.cmps) if args.cmps else figures.CMP_COUNTS

    if args.experiment == "claims":
        from repro.experiments.claims import check_file
        try:
            results = check_file(args.results)
        except FileNotFoundError:
            print(f"error: {args.results} not found — run "
                  "scripts/generate_experiments_md.py --json-dump "
                  "results_raw.json first", file=sys.stderr)
            return 2
        for result in results:
            print(result)
        return 0 if all(r.passed for r in results) else 1

    if args.experiment == "fuzz":
        return _run_fuzz(args)

    if args.trace_out is not None:
        print("error: --trace-out applies to the fuzz experiment only",
              file=sys.stderr)
        return 2

    overrides = _fault_overrides(args)
    if args.check:
        overrides["check"] = True
    if args.metrics:
        overrides["metrics"] = True
    if args.protocol != "dir-inv":
        # Only non-default protocols become an override: the default must
        # not perturb RunSpec.config_overrides (hence cache keys and the
        # EXPERIMENTS.md stdout) for runs that never asked for a protocol.
        overrides["protocol"] = args.protocol
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = Runner(jobs=args.jobs, cache=cache,
                    config_overrides=overrides or None,
                    fail_fast=args.fail_fast, supervisor=pool_config(args))
    previous_runner = figures.set_runner(runner)
    try:
        return _run_experiments(args, workloads, cmps)
    finally:
        stats = runner.total_stats
        if stats.total:
            print(f"[runner] {stats.summary()}", file=sys.stderr)
        figures.set_runner(previous_runner)


def _run_fuzz(args) -> int:
    """Seeded random-workload sanitizer sweep.

    Runs the ``fuzz`` workload under every execution mode (slipstream
    with all four A-R policies, transparent loads + self-invalidation on)
    with the invariant checkers enabled.  A violation raises; a clean
    exit means every checked invariant held for this seed.  The printed
    fingerprint identifies the exact op stream, so a failing seed can be
    reproduced bit-for-bit.  With ``--faults`` the sweep additionally
    injects the chosen fault profile — the checkers then prove the
    invariants survive jitter, drops, lost tokens, corrupted A-streams,
    and refork/degradation churn.
    """
    from repro.config import scaled_config
    from repro.experiments.driver import run_mode
    from repro.slipstream.arsync import POLICIES
    from repro.workloads.fuzz import Fuzz

    n_cmps = args.cmps[-1] if args.cmps else 4
    fault_overrides = _fault_overrides(args)
    fingerprint = Fuzz(seed=args.seed).fingerprint(n_tasks=n_cmps)
    runs = [("single", None), ("double", None)]
    runs += [("slipstream", policy) for policy in POLICIES]
    rows = {}
    for index, (mode, policy) in enumerate(runs):
        config = scaled_config(n_cmps, check=True, metrics=args.metrics,
                               protocol=args.protocol, **fault_overrides)
        kwargs = {}
        label = mode
        if policy is not None:
            kwargs = dict(policy=policy, transparent=True, si=True)
            label = f"slipstream[{policy.name}+si]"
        if args.trace_out is not None and index == len(runs) - 1:
            # Trace the final leg (slipstream, tightest policy): the one
            # whose timeline shows A-stream lead, L2 fills, and SI drains.
            kwargs["trace_out"] = args.trace_out
        result = run_mode(Fuzz(seed=args.seed), config, mode, **kwargs)
        rows[label] = {
            "cycles": result.exec_cycles,
            "checks_fired": sum((result.check_stats or {}).values()),
        }
        if args.metrics and result.metrics is not None:
            rows[label]["metric_series"] = len(result.metrics)
        if fault_overrides:
            rows[label]["faults"] = (result.fault_stats or {}).get("events", 0)
            rows[label]["recoveries"] = result.recoveries
            rows[label]["demotions"] = result.demotions
    if args.trace_out is not None:
        print(f"[fuzz] wrote Perfetto trace: {args.trace_out}",
              file=sys.stderr)
    fault_note = (f", faults={args.faults}(seed={args.fault_seed})"
                  if fault_overrides else "")
    if args.json:
        print(json.dumps({"seed": args.seed, "n_cmps": n_cmps,
                          "fingerprint": fingerprint,
                          "fault_profile": args.faults,
                          "fault_seed": args.fault_seed if fault_overrides
                          else None, "runs": rows},
                         indent=2))
    else:
        print(figures.render(
            rows, title=f"Fuzz sweep: seed={args.seed}, {n_cmps} CMPs, "
                        f"op-stream {fingerprint[:16]}{fault_note} "
                        f"— no violations"))
    return 0


def _run_experiments(args, workloads, cmps) -> int:
    """Dispatch the simulation-backed experiments (runner installed)."""
    if args.experiment == "sensitivity":
        from repro.experiments.sensitivity import sweep
        name = args.workloads[0] if args.workloads else "ocean"
        data = sweep(args.parameter, workload_name=name,
                     n_cmps=(cmps[-1] if args.cmps else 8))
        if args.json:
            print(json.dumps(data, indent=2))
        else:
            print(bar_chart({str(k): v for k, v in data.items()},
                            title=f"Slipstream benefit vs {args.parameter} "
                                  f"({name})", reference=1.0))
        return 0

    todo = (["table1", "table2", "fig1", "fig4", "fig5", "fig6", "fig7",
             "fig9", "fig10"] if args.experiment == "all"
            else [args.experiment])
    for experiment in todo:
        if experiment == "table1":
            data = figures.table1()
            printable = data
            title = "Table 1: machine parameters (cycles)"
        elif experiment == "table2":
            data = {row["benchmark"]: row for row in figures.table2()}
            printable = data
            title = "Table 2: benchmarks and data-set sizes"
        elif experiment == "fig1":
            data = figures.figure1(workloads, cmps)
            printable = data
            title = "Figure 1: double-mode speedup relative to single mode"
        elif experiment == "fig4":
            data = figures.figure4(workloads, cmps)
            printable = data
            title = "Figure 4: single-mode speedup over sequential"
        elif experiment == "fig5":
            data = figures.figure5(workloads, cmps)
            printable = _flatten_fig5(data)
            title = "Figure 5: slipstream / double speedup vs single"
        elif experiment == "fig6":
            data = figures.figure6(workloads)
            printable = _flatten_fig6(data)
            title = "Figure 6: execution-time breakdown (% of single)"
        elif experiment == "fig7":
            data = figures.figure7(workloads)
            printable = _flatten_fig7(data)
            title = "Figure 7: shared-data request classification"
        elif experiment == "fig9":
            data = figures.figure9()
            printable = data
            title = "Figure 9: transparent-load breakdown (% of A reads)"
        else:  # fig10
            data = figures.figure10()
            printable = data
            title = "Figure 10: transparent loads + self-invalidation"
        if args.json:
            print(json.dumps(data, indent=2, default=str))
        elif experiment in ("fig1", "fig4"):
            print(series_table(data, title=title))
            print()
        elif experiment == "fig10":
            print(title)
            for name, row in data.items():
                bars = {k: v for k, v in row.items() if k != "best_mode"}
                print(bar_chart(bars, title=f"\n{name} (vs best: "
                                            f"{row['best_mode']})",
                                reference=1.0))
            print()
        else:
            print(figures.render(printable, title=title))
            print()
    return 0


def run() -> int:
    """Entry point with clean one-line errors for bad names."""
    try:
        return main()
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
