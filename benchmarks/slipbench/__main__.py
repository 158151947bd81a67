"""Command line: ``python -m benchmarks.slipbench <command>``.

Run from the repository root::

    python -m benchmarks.slipbench run --seed 2003 [--json out.json]
    python -m benchmarks.slipbench run --traced          # per-layer pass
    python -m benchmarks.slipbench one --workload micro-ocean --seed 7 \\
        --seconds 20 --trace 0
    python -m benchmarks.slipbench compare A1.json A2.json -- B1.json B2.json
    python -m benchmarks.slipbench record-expected

``one`` measures a single workload and prints one ``workload metric
value unit`` line per metric, then a JSON object as its last line —
``{"correct", "attempted", "failed", "metrics"}`` — with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
BENCHMARK.json declares.  ``run`` does that for every workload, each in
fresh processes, and exits non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, SRC, harness, stats
from .harness import READY, WORK, BenchError

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 2003


def load_benchmark() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


def workload_names() -> List[str]:
    return [w["name"] for w in load_benchmark()["workloads"]]


# ----------------------------------------------------------------------
def cmd_one(args) -> int:
    harness.check_checkout()
    bench = load_benchmark()
    if args.workload not in workload_names():
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workload_names())}")
    host = harness.host_fingerprint()
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, args.out)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise BenchError(f"emitted metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    print(f"# slipbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    print(f"{args.workload} attempted {result['attempted']} "
          f"failed {result['failed']}")
    for failure in result["failures"]:
        print(f"[slipbench] FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if result["correct"] else 1


def cmd_child(args) -> int:
    from repro.obs.trace import Tracer

    from . import layers
    from .gate import Gate, load_expected
    from .workloads import WORKLOADS

    gate = Gate(load_expected())
    tmp = WORK / "tmp" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.smoke, gate, tmp)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            metrics = workload.measure(args.seconds)
        else:
            tracer = Tracer(track="slipbench")
            metrics = layers.complete(workload.trace(tracer),
                                      workload.layer_groups)
            parts = [("slipbench", tracer.to_perfetto())]
            if workload.server_trace is not None:
                parts.append(("service", workload.server_trace))
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{args.workload}.trace.json").write_text(json.dumps(
                layers.merge_perfetto(parts, sequential=False)))
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "failures": gate.failures,
                      "metrics": metrics}))
    return 0


def cmd_run(args) -> int:
    harness.check_checkout()
    out = Path(args.out)
    report: Dict[str, object] = {"seed": args.seed, "seconds": args.seconds,
                                 "traced": args.traced, "workloads": {}}
    ok = True
    for workload in workload_names():
        cmd = [sys.executable, "-m", "benchmarks.slipbench", "one",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", "1" if args.traced else "0", "--out", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, env=harness.child_env(),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines.pop())
        for line in lines:
            if line.startswith("# host "):
                report.setdefault("host", json.loads(line[len("# host "):]))
            elif not line.startswith("#"):
                print(line, flush=True)
        if result is None:
            print(f"{workload}: no result (exit code {proc.returncode})",
                  file=sys.stderr)
            ok = False
            continue
        ok = ok and result["correct"]
        report["workloads"][workload] = result
    if args.traced:
        from . import layers
        parts = [(w, json.loads((out / f"{w}.trace.json").read_text()))
                 for w in report["workloads"]]
        (out / "trace.json").write_text(json.dumps(
            layers.merge_perfetto(parts, sequential=True)))
        (out / "layers.json").write_text(json.dumps(
            {w: {name: m["value"] for name, m in r["metrics"].items()}
             for w, r in report["workloads"].items()}, indent=1) + "\n")
        print(f"# wrote {out / 'layers.json'} and {out / 'trace.json'}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _values(path: str) -> Dict[str, Dict[str, float]]:
    report = json.loads(Path(path).read_text())
    return {workload: {name: metric["value"]
                       for name, metric in result["metrics"].items()}
            for workload, result in report["workloads"].items()}


def cmd_compare(args) -> int:
    parent = [_values(path) for path in args.parent]
    change = [_values(path) for path in args.change]
    rows = stats.verdict_table(parent, change,
                               load_benchmark()["end_to_end"])
    print(f"{'workload':12} {'metric':18} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>7}  verdict")
    for row in rows:
        a, b = row["parent"], row["change"]
        print(f"{row['workload']:12} {row['metric']:18} "
              f"{a['median']:>12.4g} [{a['q1']:.4g}, {a['q3']:.4g}]"
              f"{'':>2}{b['median']:>12.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f"{'':>2}{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    pairs = min(len(parent), len(change))
    if pairs < 10:
        print(f"# only {pairs} pair(s): a gain needs at least 10 pairs, "
              f"alternating which side runs first")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"parent_runs": len(parent), "change_runs": len(change),
             "rows": rows}, indent=1) + "\n")
    return 0


def cmd_record_expected(args) -> int:
    harness.check_checkout()
    from repro.experiments.runner import Runner

    from . import inputs
    from .gate import Gate, digest, spec_key, write_expected
    from .workloads import NPROC, FuzzShare

    specs = inputs.recorded_specs()
    results = Runner(jobs=NPROC, fail_fast=True).run_batch(specs)
    digests = {spec_key(spec): digest(result)
               for spec, result in zip(specs, results)}
    for seed in inputs.RECORDED_FUZZ_SEEDS:
        fuzz = FuzzShare(seed, False, Gate({}), WORK)
        for key, result in zip(fuzz.keys, fuzz.pair()):
            digests[key] = digest(result)
    path = write_expected(digests)
    print(f"wrote {len(digests)} digests to {path}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.slipbench",
        description="The repository's benchmark: seeded workloads, "
                    "end-to-end metrics, per-layer attribution.")
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_args(p, seconds_default: Optional[float] = None) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=seconds_default,
                       required=seconds_default is None,
                       help="how long each workload's timed loop runs")
        p.add_argument("--smoke", action="store_true",
                       help="tiny inputs, one operation: a quick self-check")
        p.add_argument("--out", default=str(WORK / "out"),
                       help="where traced runs write their trace files")

    one = sub.add_parser("one", help="measure one workload (driver entry)")
    one.add_argument("--workload", required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    workload_args(one)

    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--traced", action="store_true",
                     help="the per-layer pass: writes layers.json and "
                          "trace.json under --out")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write every result to PATH")
    workload_args(run, load_benchmark()["run_seconds"])

    compare = sub.add_parser(
        "compare", help="A/B verdicts: compare A.json... -- B.json...")
    compare.add_argument("parent", nargs="+")
    compare.add_argument("--json", default=None, metavar="PATH")

    sub.add_parser("record-expected",
                   help="re-record expected.json (only when results are "
                        "meant to change)")

    child = sub.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", required=True)
    child.add_argument("--mode", required=True,
                       choices=("setup", "measure", "trace"))
    workload_args(child)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    change: List[str] = []
    if argv[:1] == ["compare"]:
        if "--" not in argv:
            print("compare needs A.json... -- B.json...", file=sys.stderr)
            return 2
        split = argv.index("--")
        argv, change = argv[:split], argv[split + 1:]
        if "--json" in change:      # options may follow the B files too
            at = change.index("--json")
            argv += change[at:at + 2]
            del change[at:at + 2]
    args = build_parser().parse_args(argv)
    args.change = change
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    commands = {"one": cmd_one, "run": cmd_run, "compare": cmd_compare,
                "record-expected": cmd_record_expected, "child": cmd_child}
    try:
        return commands[args.command](args)
    except BenchError as exc:
        print(f"[slipbench] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
