"""Exporters: Chrome/Perfetto trace JSON and flat metrics files.

:class:`ChromeTrace` is the one Chrome Trace Event writer (the JSON
flavour Perfetto's https://ui.perfetto.dev loads directly): the
envelope, one pid per named process, one tid per named thread within
it, the name metadata, and the file write.  Both trace producers render
through it — :class:`PerfettoExporter` (one simulated machine's bus
events, in simulated cycles) and :meth:`repro.obs.trace.Tracer.to_perfetto`
(request spans, in wall-clock microseconds).

:class:`PerfettoExporter` is a bus subscriber.  Simulated cycles map 1:1
onto trace-clock microseconds — Perfetto's timeline then reads directly
in cycles.  Event mapping:

* a plain probe call becomes an *instant* event (``ph: "i"``) on the
  track named by its subject (``node3``, ``pair0``, ...);
* a call carrying ``_dur=<cycles>`` becomes a *complete* slice
  (``ph: "X"``) of that duration ending at the emission time (components
  emit when the span closes, so the start is back-computed);
* a call carrying ``_counter={...}`` becomes a *counter* sample
  (``ph: "C"``) — numeric series stacked on their own track, which is
  how the A-stream/R-stream session lead is visualized;
* remaining keyword args are attached under ``args`` and show in the
  Perfetto detail pane.

Tracks: one process (pid 1, named after the run) with one thread per
distinct subject, in order of first appearance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: reserved probe-arg keys interpreted by the exporter
DUR_KEY = "_dur"
COUNTER_KEY = "_counter"


class ChromeTrace:
    """Chrome-trace layout: named processes and threads, events, JSON.

    Processes get pids 1, 2, ... and threads tids 1, 2, ... within their
    process, in order of first appearance; each first appearance adds a
    ``process_name``/``thread_name`` metadata event.
    """

    def __init__(self) -> None:
        self.metadata: List[dict] = []
        self.events: List[dict] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[str, Dict[str, int]] = {}

    def pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = self._pids[process] = len(self._pids) + 1
            self._tids[process] = {}
            self.metadata.append({"name": "process_name", "ph": "M",
                                  "pid": pid, "tid": 0,
                                  "args": {"name": process}})
        return pid

    def thread(self, process: str, name: str) -> Tuple[int, int]:
        """``(pid, tid)`` of thread ``name`` within ``process``."""
        pid = self.pid(process)
        threads = self._tids[process]
        tid = threads.get(name)
        if tid is None:
            tid = threads[name] = len(threads) + 1
            self.metadata.append({"name": "thread_name", "ph": "M",
                                  "pid": pid, "tid": tid,
                                  "args": {"name": name}})
        return pid, tid

    def as_dict(self, other_data: dict) -> dict:
        return {
            "displayTimeUnit": "ms",
            "otherData": other_data,
            "traceEvents": self.metadata + self.events,
        }


def write_trace(doc: dict, path: Union[str, Path]) -> Path:
    """Write a Chrome-trace dict as one line of JSON."""
    path = Path(path)
    path.write_text(json.dumps(doc) + "\n")
    return path


class PerfettoExporter:
    """Bus subscriber accumulating one machine's events as a Chrome trace."""

    def __init__(self, run_label: str = "repro"):
        self.run_label = run_label
        self.trace = ChromeTrace()
        self.trace.pid(run_label)

    # ------------------------------------------------------------------
    # Bus subscriber entry point
    # ------------------------------------------------------------------
    def on_event(self, time: int, category: str, subject: str,
                 detail: str, args: dict) -> None:
        pid, tid = self.trace.thread(self.run_label, subject)
        if COUNTER_KEY in args:
            samples = args[COUNTER_KEY]
            self.trace.events.append({
                "name": category, "ph": "C", "ts": time,
                "pid": pid, "tid": tid, "args": dict(samples)})
            return
        payload = {k: v for k, v in args.items() if k != DUR_KEY}
        if detail:
            payload["detail"] = detail
        event = {
            "name": category, "cat": category, "ts": time,
            "pid": pid, "tid": tid, "args": payload}
        dur = args.get(DUR_KEY)
        if dur is not None:
            event["ph"] = "X"
            event["dur"] = int(dur)
            event["ts"] = time - int(dur)
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        self.trace.events.append(event)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return self.trace.as_dict(
            {"producer": "repro.obs",
             "clock": "simulated cycles (1 cycle = 1 us)"})

    def write(self, path: Union[str, Path]) -> Path:
        return write_trace(self.as_dict(), path)

    def __len__(self) -> int:
        return len(self.trace.events)


#: phases every consumer of our traces may rely on
_VALID_PHASES = {"i", "X", "C", "M"}


def validate_perfetto(source: Union[str, Path, dict]) -> dict:
    """Schema-check a trace produced by :class:`PerfettoExporter`.

    Accepts a path or an already-loaded dict; raises ``ValueError`` on
    the first violation and returns summary statistics (event counts per
    phase, category set, time span) on success.  Used by the CI smoke
    step, so a regression in the exporter fails fast instead of
    producing a file Perfetto rejects.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("trace root must be a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    phases: Dict[str, int] = {}
    categories = set()
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{index}] missing {field!r}")
        phase = event["ph"]
        if phase not in _VALID_PHASES:
            raise ValueError(f"traceEvents[{index}] has unknown ph {phase!r}")
        phases[phase] = phases.get(phase, 0) + 1
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            raise ValueError(f"traceEvents[{index}] needs integer ts >= 0")
        if phase == "X" and not isinstance(event.get("dur"), int):
            raise ValueError(f"traceEvents[{index}] (ph=X) needs integer dur")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"traceEvents[{index}] (ph=C) needs args object")
        categories.add(event["name"])
        end = ts + event.get("dur", 0)
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = end if t_max is None else max(t_max, end)
    return {
        "events": sum(n for p, n in phases.items() if p != "M"),
        "phases": phases,
        "categories": sorted(categories),
        "span": (t_min, t_max),
    }


def write_metrics_json(flat: Dict[str, Union[int, float]],
                       path: Union[str, Path]) -> Path:
    """Flat metrics dict to a sorted, pretty JSON file."""
    path = Path(path)
    path.write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
    return path


def write_metrics_csv(flat: Dict[str, Union[int, float]],
                      path: Union[str, Path]) -> Path:
    """Flat metrics dict to ``series,value`` CSV."""
    lines = ["series,value"]
    for key in sorted(flat):
        text = f"\"{key}\"" if "," in key else key
        lines.append(f"{text},{flat[key]}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
