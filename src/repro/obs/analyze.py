"""Offline analysis of trace and metrics artifacts.

Two operations, behind ``python -m repro.obs``:

* **report** — read one merged Perfetto trace (a ``--trace-out`` file)
  and break a request's wall-clock time down by span name: count,
  total/mean/max milliseconds, and the tracks (processes) each span ran
  on.  This is the textual rendering of what the Perfetto UI shows —
  where a served request's latency actually went;
* **diff** — compare two artifacts of the same kind (two traces, or two
  flat-metrics JSON exports) and tabulate per-key deltas.  The format
  is auto-detected (a Chrome trace carries ``traceEvents``; a metrics
  export is a flat name→number mapping).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union


# ----------------------------------------------------------------------
# Loading and format detection
# ----------------------------------------------------------------------
def load_artifact(path: Union[str, Path]):
    return json.loads(Path(path).read_text())


def is_trace(doc) -> bool:
    """Chrome/Perfetto trace vs anything else (flat metrics)."""
    return isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list)


# ----------------------------------------------------------------------
# report: per-span latency breakdown of one merged trace
# ----------------------------------------------------------------------
def span_breakdown(doc: dict) -> Dict[str, dict]:
    """Aggregate a trace's ``X`` slices by span name.

    Returns ``{name: {count, total_us, mean_us, max_us, tracks}}``,
    ``tracks`` being the sorted process-track names the span appeared
    on (``service``, ``worker-<pid>``, ...).
    """
    process_names: Dict[int, str] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            process_names[event["pid"]] = event["args"]["name"]
    rows: Dict[str, dict] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        name = str(event.get("name"))
        dur = int(event.get("dur", 0))
        row = rows.setdefault(name, {"count": 0, "total_us": 0,
                                     "max_us": 0, "tracks": set()})
        row["count"] += 1
        row["total_us"] += dur
        row["max_us"] = max(row["max_us"], dur)
        track = process_names.get(event.get("pid"))
        if track is not None:
            row["tracks"].add(track)
    for row in rows.values():
        row["mean_us"] = row["total_us"] / row["count"] if row["count"] else 0
        row["tracks"] = sorted(row["tracks"])
    return rows


def trace_ids(doc: dict) -> List[str]:
    """Distinct trace_ids in a merged trace, in first-seen order."""
    seen: Dict[str, None] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        trace_id = (event.get("args") or {}).get("trace_id")
        if trace_id:
            seen.setdefault(str(trace_id), None)
    return list(seen)


def report_text(doc: dict) -> str:
    """The span-breakdown table, widest consumers of time first."""
    rows = span_breakdown(doc)
    ids = trace_ids(doc)
    lines = [f"{len(ids)} trace(s), {sum(r['count'] for r in rows.values())} "
             f"span(s), {len(rows)} distinct name(s)",
             "",
             f"{'span':<24} {'count':>6} {'total ms':>10} {'mean ms':>9} "
             f"{'max ms':>9}  tracks"]
    for name in sorted(rows, key=lambda n: -rows[n]["total_us"]):
        row = rows[name]
        lines.append(
            f"{name:<24} {row['count']:>6} {row['total_us'] / 1000:>10.3f} "
            f"{row['mean_us'] / 1000:>9.3f} {row['max_us'] / 1000:>9.3f}  "
            + ",".join(row["tracks"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# diff: two artifacts of the same kind -> per-key delta table
# ----------------------------------------------------------------------
def _numeric_view(doc) -> Dict[str, float]:
    """A comparable flat mapping for either artifact format."""
    if is_trace(doc):
        return {f"{name}.total_ms": round(row["total_us"] / 1000, 3)
                for name, row in span_breakdown(doc).items()}
    if isinstance(doc, dict):
        return {key: float(value) for key, value in doc.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}
    raise ValueError("unsupported artifact: expected a Chrome trace or a "
                     "flat metrics JSON object")


def diff_rows(a, b) -> List[Tuple[str, Optional[float], Optional[float],
                                  Optional[float]]]:
    """``(key, a_value, b_value, pct_change)`` for every key in either
    artifact; ``None`` marks a key absent on one side or an undefined
    percentage (a change away from a zero base).  Equal values, zeros
    included, are a 0.0 change."""
    left, right = _numeric_view(a), _numeric_view(b)
    rows = []
    for key in sorted(set(left) | set(right)):
        va, vb = left.get(key), right.get(key)
        pct = None
        if va is not None and vb is not None:
            if va == vb:
                pct = 0.0
            elif va != 0:
                pct = (vb - va) / abs(va)
        rows.append((key, va, vb, pct))
    return rows


def diff_text(a, b, labels: Tuple[str, str] = ("a", "b"),
              threshold: float = 0.0) -> str:
    """Render the delta table; with ``threshold`` > 0 only rows whose
    relative change exceeds it (or that exist on one side only) appear."""
    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    lines = [f"{'key':<44} {labels[0]:>12} {labels[1]:>12} {'change':>9}"]
    shown = 0
    for key, va, vb, pct in diff_rows(a, b):
        if threshold > 0 and pct is not None and abs(pct) <= threshold \
                and va is not None and vb is not None:
            continue
        change = "-" if pct is None else f"{pct:+.1%}"
        lines.append(f"{key:<44} {fmt(va):>12} {fmt(vb):>12} {change:>9}")
        shown += 1
    if shown == 0:
        lines.append(f"(no key changed by more than {threshold:.0%})")
    return "\n".join(lines)
