"""Command-line analysis of trace and metrics artifacts.

``python -m repro.obs <command>``:

* ``report TRACE.json`` — per-span latency breakdown of one merged
  Perfetto trace (a ``--trace-out`` file): count, total/mean/max
  milliseconds, and the process tracks each span ran on;
* ``diff A B`` — per-key delta table between two artifacts of the same
  kind (two traces, or two flat-metrics JSON exports; auto-detected).
  ``--threshold 0.05`` hides rows that moved less than 5%.

Examples::

    python -m repro.serve --port 0 --trace-out serve-trace.json &
    ...
    python -m repro.obs report serve-trace.json
    python -m repro.obs diff metrics-before.json metrics-after.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs import analyze
from repro.obs.export import validate_perfetto


def _cmd_report(args) -> int:
    doc = analyze.load_artifact(args.trace)
    if not analyze.is_trace(doc):
        print(f"{args.trace}: not a Chrome/Perfetto trace "
              f"(no traceEvents array)", file=sys.stderr)
        return 2
    validate_perfetto(doc)
    print(analyze.report_text(doc))
    return 0


def _cmd_diff(args) -> int:
    a = analyze.load_artifact(args.a)
    b = analyze.load_artifact(args.b)
    if analyze.is_trace(a) != analyze.is_trace(b):
        print("cannot diff a trace against a metrics export",
              file=sys.stderr)
        return 2
    labels = (Path(args.a).stem[:12] or "a", Path(args.b).stem[:12] or "b")
    print(analyze.diff_text(a, b, labels=labels, threshold=args.threshold))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze trace and metrics artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="per-span latency breakdown of a Perfetto trace")
    report.add_argument("trace", help="a --trace-out file")
    report.set_defaults(fn=_cmd_report)

    diff = sub.add_parser(
        "diff", help="per-key delta table between two artifacts")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument("--threshold", type=float, default=0.0, metavar="FRAC",
                      help="hide rows whose relative change is below this "
                           "fraction (default: show all)")
    diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
