"""Per-layer attribution for the traced pass.

Three sources, all read from outside the program:

* **cProfile** over in-process simulations: self time aggregated by the
  ``repro`` module that owns each function (a built-in's time is charged
  to the layer that called it, using the profile's caller table), and
  exact call counts of the discrete-event hot spots, per simulated
  kilocycle;
* **spans** — the benchmark's own, the engine's ``engine.*`` phases
  recorded under a ``trace_scope`` the benchmark binds, and the
  service's and workers' spans from ``python -m repro.serve
  --trace-out``.  A span's self time is its duration minus its
  children's;
* **results** — the simulated machine's own statistics (``model.*``),
  which explain simulated cycles and must not move when only the
  simulator gets faster.

Every workload emits every metric in :data:`GROUPS`; a group whose layer
the workload never reaches reads 0 (:func:`complete`).  Time spent in a
layer is reported as a share, never as a bare time, so an unreached
layer reads as an empty share rather than as a suspiciously constant
duration.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: repro sub-paths owned by each profiled layer (first match wins);
#: anything else — the driver, stats, obs, the standard library — is
#: ``other``
LAYER_PATHS = (
    ("sim", ("sim/",)),
    ("memory.cache", ("memory/cache.py",)),
    ("memory.l2ctrl", ("memory/l2ctrl.py",)),
    ("memory.address", ("memory/address.py",)),
    ("memory.coherence", ("memory/protocol.py", "memory/proto/",
                          "memory/directory.py")),
    ("memory.network", ("memory/network.py",)),
    ("runtime", ("runtime/",)),
    ("slipstream", ("slipstream/",)),
    ("workloads", ("workloads/",)),
    ("machine", ("machine/",)),
)
PROFILE_LAYERS = tuple(name for name, _ in LAYER_PATHS) + ("other",)

#: exact call counts per simulated kilocycle: metric -> (module, function)
#: pairs whose cProfile call counts add up (a generator function counts
#: once per resumption)
CALL_COUNTS = {
    "sim.schedule_per_kcycle": (("sim/engine.py", "schedule"),
                                ("sim/engine.py", "schedule_at")),
    "sim.resume_per_kcycle": (("sim/process.py", "resume"),),
    "sim.enqueue_per_kcycle": (("sim/resources.py", "_enqueue"),),
    "memory.cache.lookup_per_kcycle": (("memory/cache.py", "lookup"),),
    "memory.cache.insert_per_kcycle": (("memory/cache.py", "insert"),),
    "memory.l2ctrl.access_per_kcycle": (("memory/l2ctrl.py", "load"),
                                        ("memory/l2ctrl.py", "store")),
    "memory.coherence.fetch_per_kcycle": (("memory/protocol.py", "fetch"),),
    "memory.coherence.dispatch_per_kcycle": (
        ("memory/proto/engine.py", "dispatch"),),
    "memory.network.transfer_per_kcycle": (
        ("memory/network.py", "transfer"),
        ("memory/network.py", "post_transfer")),
}

ENGINE_PHASES = ("setup", "tape_compile", "sim_loop")

SERVE_STAGES = ("admission", "queue_wait", "wave_wait", "execute",
                "coalesce_wait", "http")

#: every per-layer metric, by the group that produces it
GROUPS: Dict[str, tuple] = {
    "profile": tuple(f"{layer}.self_share" for layer in PROFILE_LAYERS)
    + tuple(CALL_COUNTS),
    "engine": tuple(f"engine.{phase}_ms" for phase in ENGINE_PHASES)
    + ("sim.host_ns_per_cycle",),
    "runner": ("runner.executed", "runner.deduped", "runner.pool_busy_share",
               "runner.cache_put_share", "runner.cache_get_share"),
    "serve": tuple(f"serve.{stage}_share" for stage in SERVE_STAGES)
    + ("serve.worker_overhead_share", "serve.executed", "serve.coalesced",
       "serve.memo_hits", "serve.journal_appended",
       "serve.batch_occupancy_mean"),
    "model": ("model.exec_cycles", "model.l1_hit_ratio", "model.l2_hit_ratio",
              "model.l2_evictions", "model.interventions",
              "model.invalidations", "model.network_messages",
              "model.busy_share", "model.stall_share", "model.barrier_share",
              "model.arsync_share", "model.a_useful_ratio",
              "model.recoveries"),
    "trace": ("trace.overhead",),
}
PER_LAYER = tuple(name for names in GROUPS.values() for name in names)


def complete(measured: Mapping[str, float],
             groups: Sequence[str]) -> Dict[str, float]:
    """All of :data:`PER_LAYER`: ``measured`` must cover exactly the
    named ``groups``; every other group reads 0."""
    expected = {name for group in groups for name in GROUPS[group]}
    if set(measured) != expected:
        raise ValueError(f"layer metrics mismatch: missing "
                         f"{sorted(expected - set(measured))}, unexpected "
                         f"{sorted(set(measured) - expected)}")
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER}


# ----------------------------------------------------------------------
# cProfile
# ----------------------------------------------------------------------
def _repro_root() -> str:
    import repro
    return str(Path(repro.__file__).resolve().parent) + "/"


def _layer_of(filename: str, root: str) -> str:
    if filename.startswith(root):
        rel = filename[len(root):]
        for layer, prefixes in LAYER_PATHS:
            if rel.startswith(prefixes):
                return layer
    return "other"


def profile_metrics(profile, kcycles: float) -> Dict[str, float]:
    """Self-time shares per layer and call counts per kilocycle."""
    stats = pstats.Stats(profile).stats
    root = _repro_root()
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[tuple, int] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, callers) \
            in stats.items():
        if filename == "~":
            # A built-in: charge each caller's share to the caller's layer.
            for (caller_file, _l, _f), entry in callers.items():
                self_time[_layer_of(caller_file, root)] += entry[2]
            continue
        self_time[_layer_of(filename, root)] += tottime
        if filename.startswith(root):
            calls[(filename[len(root):], func)] = ncalls
    total = sum(self_time.values()) or 1.0
    metrics = {f"{layer}.self_share": self_time.get(layer, 0.0) / total
               for layer in PROFILE_LAYERS}
    for name, sites in CALL_COUNTS.items():
        metrics[name] = sum(calls.get(site, 0) for site in sites) / kcycles
    return metrics


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecord:
    """One finished span, read from a Perfetto file."""

    __slots__ = ("name", "dur_us", "attrs", "span_id", "parent_id")

    def __init__(self, name: str, dur_us: float, attrs: Dict[str, object],
                 span_id: Optional[str], parent_id: Optional[str]):
        self.name = name
        self.dur_us = dur_us
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id


def records_from_perfetto(trace: Mapping[str, object]) -> List[SpanRecord]:
    records = []
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        records.append(SpanRecord(event["name"], float(event["dur"]), args,
                                  args.get("span_id"), args.get("parent_id")))
    return records


def children_of(records: Iterable[SpanRecord]) -> Dict[str, List[SpanRecord]]:
    children: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id].append(record)
    return children


def self_us(record: SpanRecord,
            children: Mapping[str, List[SpanRecord]]) -> float:
    """Duration minus the children's (never below 0)."""
    covered = sum(child.dur_us for child in children.get(record.span_id, ()))
    return max(0.0, record.dur_us - covered)


def merge_perfetto(parts: Sequence[Tuple[str, Mapping[str, object]]],
                   sequential: bool) -> Dict[str, object]:
    """One Perfetto file from several ``(label, trace)`` parts.

    Each part keeps its own process tracks (renumbered, names prefixed
    with the label).  ``sequential`` lays the parts end to end; otherwise
    they share time zero — how the benchmark's client spans and the
    service's spans line up, both normalised to the load's first
    request.
    """
    events: List[dict] = []
    offset = 0
    next_pid = 0
    for label, trace in parts:
        pids: Dict[int, int] = {}
        end = 0
        for event in trace.get("traceEvents", ()):
            event = dict(event)
            if event["pid"] not in pids:
                pids[event["pid"]] = next_pid + len(pids) + 1
            event["pid"] = pids[event["pid"]]
            if event["ph"] == "M":
                if event["name"] == "process_name":
                    event["args"] = {"name": f"{label}/{event['args']['name']}"}
            else:
                event["ts"] = event["ts"] + offset
                end = max(end, event["ts"] + event.get("dur", 0))
            events.append(event)
        next_pid += len(pids)
        if sequential:
            offset = end
    return {"displayTimeUnit": "ms",
            "otherData": {"producer": "benchmarks.slipbench",
                          "clock": "monotonic microseconds"},
            "traceEvents": events}


def engine_metrics(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Mean ``engine.*`` phase time per run, and sim-loop host time per
    simulated cycle."""
    metrics: Dict[str, float] = {}
    for phase in ENGINE_PHASES:
        durations = [r.dur_us for r in records if r.name == f"engine.{phase}"]
        if not durations:
            raise ValueError(f"no engine.{phase} spans recorded")
        metrics[f"engine.{phase}_ms"] = sum(durations) / len(durations) / 1e3
    loops = [r for r in records if r.name == "engine.sim_loop"]
    cycles = sum(int(r.attrs.get("exec_cycles", 0)) for r in loops)
    metrics["sim.host_ns_per_cycle"] = (
        sum(r.dur_us for r in loops) * 1e3 / cycles if cycles else 0.0)
    return metrics


def serve_metrics(server: Sequence[SpanRecord],
                  ui_requests: Sequence[Dict[str, object]],
                  flat: Mapping[str, float]) -> Dict[str, float]:
    """Where ui request latency went, plus the service's own counters.

    ``ui_requests`` are the client's records (``id``, ``coalesced``,
    ``latency_us``).  Each is matched to its root ``serve.request`` span
    (a leader carries ``job``; a coalesced follower ``coalesced_onto``),
    and its latency is split into admission, queue wait, waiting on the
    rest of its wave, its own execution (runner or supervised job),
    coalesce wait and the HTTP remainder.  The stage shares are summed
    over all matched requests and divided by their summed latency.
    """
    children = children_of(server)
    roots = {}
    for record in server:
        if record.name == "serve.request" and record.attrs.get("client") == "ui":
            job = record.attrs.get("job") or record.attrs.get("coalesced_onto")
            roots[(job, "coalesced_onto" in record.attrs)] = record
    stage_us = dict.fromkeys(SERVE_STAGES, 0.0)
    latency_us = 0.0
    for request in ui_requests:
        root = roots.get((request["id"], bool(request["coalesced"])))
        if root is None:
            continue
        latency_us += request["latency_us"]
        stage_us["http"] += max(0.0, request["latency_us"] - root.dur_us)
        for child in children.get(root.span_id, ()):
            if child.name == "serve.admission":
                stage_us["admission"] += child.dur_us
            elif child.name == "serve.queue_wait":
                stage_us["queue_wait"] += child.dur_us
            elif child.name == "serve.coalesce_wait":
                stage_us["coalesce_wait"] += child.dur_us
            elif child.name == "serve.wave_execute":
                stage_us["wave_wait"] += self_us(child, children)
                stage_us["execute"] += child.dur_us - self_us(child, children)
    if not latency_us:
        raise ValueError("no ui request matched a server span")
    metrics = {f"serve.{stage}_share": value / latency_us
               for stage, value in stage_us.items()}

    # Supervised job time not spent in the engine: fork, pipe, pickling.
    job_us = overhead_us = 0.0
    for job in (r for r in server if r.name == "supervisor.job"):
        engine_us = 0.0
        stack = list(children.get(job.span_id, ()))
        while stack:
            record = stack.pop()
            if record.name.startswith("engine."):
                engine_us += record.dur_us
            else:
                stack.extend(children.get(record.span_id, ()))
        job_us += job.dur_us
        overhead_us += max(0.0, job.dur_us - engine_us)
    metrics["serve.worker_overhead_share"] = (overhead_us / job_us
                                              if job_us else 0.0)
    waves = flat.get("serve.batch_occupancy_count", 0)
    metrics.update({
        "serve.executed": flat.get("serve.executed", 0),
        "serve.coalesced": flat.get("serve.coalesced", 0),
        "serve.memo_hits": flat.get("serve.memo_hits", 0),
        "serve.journal_appended": flat.get("serve.journal{stat=appended}", 0),
        "serve.batch_occupancy_mean": (
            flat.get("serve.batch_occupancy_sum", 0) / waves if waves else 0),
    })
    return metrics


# ----------------------------------------------------------------------
# The simulated machine
# ----------------------------------------------------------------------
def model_metrics(results: Sequence) -> Dict[str, float]:
    """Machine statistics summed over ``results`` (RunResults)."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache: Dict[str, int] = defaultdict(int)
    fabric: Dict[str, int] = defaultdict(int)
    time: Dict[str, int] = defaultdict(int)
    a_classes: Dict[str, int] = defaultdict(int)
    for result in results:
        for name, value in result.cache_totals.items():
            cache[name] += value
        for name, value in result.fabric_stats.items():
            fabric[name] += value
        for breakdown in result.task_breakdowns:
            for category, cycles in breakdown.as_dict().items():
                time[category] += cycles
        for category in ("a_timely", "a_late", "a_only"):
            a_classes[category] += sum(
                (result.request_classes or {}).get(category, {}).values())
    active = sum(time.values())
    return {
        "model.exec_cycles": sum(r.exec_cycles for r in results),
        "model.l1_hit_ratio": ratio(cache["l1_hits"],
                                    cache["l1_hits"] + cache["l1_misses"]),
        "model.l2_hit_ratio": ratio(cache["l2_hits"],
                                    cache["l2_hits"] + cache["l2_misses"]),
        "model.l2_evictions": cache["l2_evictions"],
        "model.interventions": fabric["interventions"],
        "model.invalidations": fabric["invalidations_sent"],
        "model.network_messages": fabric["network_messages"],
        "model.busy_share": ratio(time["busy"], active),
        "model.stall_share": ratio(time["stall"], active),
        "model.barrier_share": ratio(time["barrier"], active),
        "model.arsync_share": ratio(time["arsync"], active),
        "model.a_useful_ratio": ratio(a_classes["a_timely"],
                                      sum(a_classes.values())),
        "model.recoveries": sum(r.recoveries for r in results),
    }
