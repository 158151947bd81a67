"""Run one workload under one execution mode and collect statistics.

The three modes of Figure 2 (plus the uniprocessor baseline):

* ``sequential`` — one task on a single-node machine (Figure 4's baseline),
* ``single`` — one task per CMP, second processor idle,
* ``double`` — two tasks per CMP,
* ``slipstream`` — an R-stream/A-stream pair per CMP, governed by an A-R
  synchronization policy, optionally with transparent loads
  (``transparent=True``) and self-invalidation (``si=True``).

Extension flags (all off by default; see DESIGN.md section 4b):
``forwarding`` (A->R access-pattern forwarding), ``speculative_barriers``
(pattern replay at barrier entry — a documented negative result),
``adaptive`` (dynamic A-R policy selection), and ``migratory``
(directory-detected migratory grants).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import PROTOCOLS, MachineConfig
from repro.machine.system import System
from repro.obs.collect import (cache_totals_from, fabric_stats_from,
                               run_registry)
from repro.obs.trace import current_scope
from repro.runtime.executor import TaskExecutor
from repro.runtime.sync import SyncRegistry
from repro.runtime.task import ROLE_A, ROLE_NORMAL, ROLE_R, TaskContext
from repro.slipstream.arsync import ARSyncPolicy, G1
from repro.slipstream.astream import AStreamExecutor
from repro.slipstream.pair import SlipstreamPair
from repro.slipstream.rstream import RStreamExecutor
from repro.sim import Process
from repro.stats.timebreakdown import TimeBreakdown, average_breakdown
from repro.workloads.tape import TapeCache

SEQUENTIAL = "sequential"
SINGLE = "single"
DOUBLE = "double"
SLIPSTREAM = "slipstream"
MODES = (SEQUENTIAL, SINGLE, DOUBLE, SLIPSTREAM)


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    workload: str
    mode: str
    n_cmps: int
    exec_cycles: int
    policy: Optional[str] = None
    transparent: bool = False
    si: bool = False
    #: coherence protocol the machine ran (MachineConfig.protocol)
    protocol: str = "dir-inv"
    #: per full-task (R-stream or conventional) time breakdowns
    task_breakdowns: List[TimeBreakdown] = field(default_factory=list)
    #: per A-stream time breakdowns (slipstream mode only)
    astream_breakdowns: List[TimeBreakdown] = field(default_factory=list)
    #: Figure 7 classification (slipstream mode only)
    request_classes: Optional[Dict[str, Dict[str, int]]] = None
    read_breakdown: Optional[Dict[str, float]] = None
    excl_breakdown: Optional[Dict[str, float]] = None
    #: Figure 9 transparent-load statistics
    a_read_requests: int = 0
    transparent_replies: int = 0
    upgraded_transparent: int = 0
    #: coherence-fabric counters
    fabric_stats: Dict[str, int] = field(default_factory=dict)
    si_invalidated: int = 0
    si_downgraded: int = 0
    recoveries: int = 0
    stores_converted: int = 0
    stores_skipped: int = 0
    transparent_loads_issued: int = 0
    #: adaptive-policy switches (adaptive=True runs)
    policy_switches: int = 0
    final_policies: Optional[Dict[int, str]] = None
    #: pattern-forwarding statistics (forwarding=True runs)
    forwarded_prefetches: int = 0
    pattern_lines_recorded: int = 0
    #: machine-wide cache hit/miss totals (all modes; used by the golden
    #: end-state regression tests)
    cache_totals: Dict[str, int] = field(default_factory=dict)
    #: flat metrics export from the observability spine (repro.obs),
    #: series name -> value; None unless the run asked for metrics
    metrics: Optional[Dict[str, float]] = None
    #: invariant-checker fire counts per check (check=True runs only)
    check_stats: Optional[Dict[str, int]] = None
    #: fault-injection summary: per-model fire counts + schedule
    #: fingerprint (faults=True runs only; see repro.faults)
    fault_stats: Optional[Dict[str, object]] = None
    #: A-R tokens lost to injected faults / injected control deviations
    tokens_lost: int = 0
    astream_corruptions: int = 0
    #: graceful-degradation events (degrade_after_reforks > 0 runs)
    demotions: int = 0
    promotions: int = 0
    #: structured failure record set by the resilient experiment runner
    #: when the run itself failed ({"type", "message", ...}); None on
    #: success.  Error results are never cached.
    error: Optional[Dict[str, object]] = None
    #: wall-clock seconds the simulation took (set by the experiment
    #: runner; excluded from cache keys, carried through the cache so
    #: warm runs can still report serial-equivalent time)
    wall_seconds: float = 0.0

    @property
    def mean_task_breakdown(self) -> TimeBreakdown:
        return average_breakdown(self.task_breakdowns)

    @property
    def mean_astream_breakdown(self) -> TimeBreakdown:
        return average_breakdown(self.astream_breakdowns)

    def label(self) -> str:
        suffix = ""
        if self.mode == SLIPSTREAM:
            suffix = f"[{self.policy}{'+SI' if self.si else ''}]"
        return f"{self.workload}/{self.mode}{suffix}@{self.n_cmps}"

    # ------------------------------------------------------------------
    # JSON round-trip (used by the result cache and the worker pool)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-able dict capturing every field."""
        data: Dict[str, object] = {spec.name: getattr(self, spec.name)
                                   for spec in dataclasses.fields(self)}
        data["task_breakdowns"] = [b.as_dict() for b in self.task_breakdowns]
        data["astream_breakdowns"] = [b.as_dict()
                                      for b in self.astream_breakdowns]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict`; tolerant of JSON's string keys."""
        known = {spec.name for spec in dataclasses.fields(cls)}
        fields_in = {k: v for k, v in data.items() if k in known}
        fields_in["task_breakdowns"] = [
            TimeBreakdown(**b) for b in fields_in.get("task_breakdowns", [])]
        fields_in["astream_breakdowns"] = [
            TimeBreakdown(**b) for b in fields_in.get("astream_breakdowns", [])]
        final = fields_in.get("final_policies")
        if final is not None:
            fields_in["final_policies"] = {int(k): v for k, v in final.items()}
        metrics_blob = fields_in.get("metrics")
        if metrics_blob is not None and not isinstance(metrics_blob, dict):
            # Malformed cache entry; the result cache quarantines on this.
            raise TypeError(
                f"metrics must be a mapping, got {type(metrics_blob).__name__}")
        protocol = data.get("protocol")
        if protocol not in PROTOCOLS:
            # Entries written before the protocol field existed (or with a
            # protocol this build does not know) cannot be interpreted
            # safely; the result cache quarantines on this.
            raise ValueError(
                f"unknown or missing protocol {protocol!r} in serialized "
                f"result; known: {', '.join(PROTOCOLS)}")
        return cls(**fields_in)


def _task_home(mode: str, n_cmps: int):
    """Task-id -> home-node mapping (first-touch-style data placement).

    Double mode scatters tasks across nodes first (task ``i`` runs on node
    ``i % n``, processor ``i // n``), matching how an OS scheduler spreads
    threads over a DSM machine; adjacent data blocks therefore live on
    different nodes and do not get a free shared-L2 ride.
    """
    return lambda task_id: task_id % n_cmps


def run_mode(workload, config: MachineConfig, mode: str,
             policy: ARSyncPolicy = G1, transparent: bool = False,
             si: bool = False, adaptive: bool = False, migratory: bool = False,
             forwarding: bool = False, speculative_barriers: bool = False,
             max_cycles: Optional[int] = None,
             check: bool = False, metrics: bool = False,
             trace_out: Optional[str] = None) -> RunResult:
    """Simulate ``workload`` under ``mode`` on a machine built from
    ``config``; returns the collected :class:`RunResult`.

    ``transparent`` enables A-stream transparent loads (Section 4.1);
    ``si`` additionally enables self-invalidation hints and the sync-point
    drain (Section 4.2) and implies ``transparent``.  ``check`` (or
    ``config.check``) runs the machine under the invariant sanitizer
    (repro.check); a broken invariant raises ``InvariantViolation``.
    ``metrics`` (or ``config.metrics``) attaches the observability
    spine's metrics registry and embeds the flat export in the result;
    ``trace_out`` writes a Chrome/Perfetto trace of the run (every bus
    event of the machine) to the given path.  None of the three changes
    simulated timing.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    transparent = transparent or si
    forwarding = forwarding or speculative_barriers
    if mode == SEQUENTIAL and config.n_cmps != 1:
        config = config.with_overrides(n_cmps=1)
    metrics = metrics or config.metrics

    # Ambient span scope (repro.obs.trace): when a tracer is bound —
    # e.g. by a serving-stack worker — the run's phases become child
    # spans of the request that caused it.  Off (the default), each
    # phase boundary costs exactly one `is None` test.
    scope = current_scope()
    span_tracer, span_parent = scope if scope is not None else (None, None)
    phase_span = (span_tracer.start_span("engine.setup", parent=span_parent)
                  if span_tracer is not None else None)

    slip = mode == SLIPSTREAM
    system = System(config, classify_requests=slip,
                    check=check or config.check, metrics=metrics,
                    observe=trace_out is not None)
    exporter = (system.obs.add_perfetto(run_label=f"{workload.name}/{mode}")
                if trace_out is not None else None)
    system.fabric.si_enabled = si
    system.fabric.migratory_enabled = migratory
    n_cmps = config.n_cmps
    n_tasks = {SEQUENTIAL: 1, SINGLE: n_cmps, DOUBLE: 2 * n_cmps,
               SLIPSTREAM: n_cmps}[mode]
    registry = SyncRegistry(system.engine, config, n_tasks)
    workload.allocate(system.allocator, n_tasks, _task_home(mode, n_cmps))

    # Op-tape compilation (repro.workloads.tape): trace each program once
    # and replay the flat tape.  The cache decides how many tapes a task
    # needs: one shared by every role for role-independent workloads (in
    # slipstream mode the R-stream, the A-stream and every refork), one
    # per (task, role) otherwise.
    if phase_span is not None:
        phase_span.end()
        phase_span = span_tracer.start_span("engine.tape_compile",
                                            parent=span_parent)
    tape_cache = TapeCache(workload, n_tasks, system.space.line_of)
    if slip:
        tapes = [(tape_cache.tape_for(task_id, ROLE_R),
                  tape_cache.tape_for(task_id, ROLE_A))
                 for task_id in range(n_tasks)]
    else:
        tapes = [tape_cache.tape_for(task_id, ROLE_NORMAL)
                 for task_id in range(n_tasks)]
    if phase_span is not None:
        phase_span.end()
        phase_span = None

    executors: List[TaskExecutor] = []
    pairs: List[SlipstreamPair] = []
    full_processes: List[Process] = []

    if slip:
        for task_id in range(n_tasks):
            node = system.nodes[task_id]
            r_ctx = TaskContext(task_id, n_tasks, role=ROLE_R)
            r_tape, a_tape = tapes[task_id]
            pair = SlipstreamPair(system.engine, config, task_id, policy,
                                  tl_enabled=transparent, si_enabled=si)
            pair.tape = a_tape
            if adaptive:
                from repro.slipstream.adaptive import AdaptiveController
                pair.adaptive = AdaptiveController(pair, node.ctrl)
            if config.degrade_after_reforks > 0:
                from repro.slipstream.adaptive import DegradationController
                pair.degradation = DegradationController(
                    pair, config.degrade_after_reforks,
                    config.degrade_window_sessions,
                    config.repromote_after_sessions)
            if forwarding:
                from repro.slipstream.forwarding import (PatternLog,
                                                         PatternPrefetcher)
                pair.pattern_log = PatternLog()
                pair.prefetcher = PatternPrefetcher(
                    pair, node.ctrl, speculative=speculative_barriers)
            pairs.append(pair)
            r_exec = RStreamExecutor(node.processor(0), r_ctx, r_tape,
                                     registry, pair)
            executors.append(r_exec)
            full_processes.append(r_exec.start())

            def spawn_astream(the_pair, tape_start, node=node, tid=task_id,
                              nt=n_tasks):
                if getattr(the_pair, "shutdown", False):
                    return None
                ctx = TaskContext(tid, nt, role=ROLE_A)
                a_exec = AStreamExecutor(node.processor(1), ctx,
                                         the_pair.tape, registry, the_pair,
                                         tape_start=tape_start)
                the_pair.a_executor_history.append(a_exec)
                a_exec.start()
                return a_exec

            pair.spawn_astream = spawn_astream
            pair.a_executor = spawn_astream(pair, 0)
            executors.append(pair.a_executor)
    else:
        for task_id in range(n_tasks):
            if mode == DOUBLE:
                node = system.nodes[task_id % n_cmps]
                processor = node.processor(task_id // n_cmps)
            else:
                node = system.nodes[task_id]
                processor = node.processor(0)
            ctx = TaskContext(task_id, n_tasks, role=ROLE_NORMAL)
            executor = TaskExecutor(processor, ctx, tapes[task_id], registry)
            executors.append(executor)
            full_processes.append(executor.start())

    finish_holder = {}

    def supervise():
        for process in full_processes:
            if not process.done:
                yield process
        finish_holder["cycles"] = system.engine.now
        # All full tasks are finished: retire any still-running A-streams.
        for pair in pairs:
            pair.shutdown = True
            a_exec = pair.a_executor
            if a_exec is not None and a_exec.process is not None \
                    and not a_exec.process.done:
                a_exec.process.kill()

    if span_tracer is not None:
        phase_span = span_tracer.start_span("engine.sim_loop",
                                            parent=span_parent,
                                            checked=system.checker is not None)
    Process(system.engine, supervise(), name="run-supervisor")
    system.run(until=max_cycles)
    system.finalize()
    if phase_span is not None:
        phase_span.set(exec_cycles=finish_holder.get("cycles",
                                                     system.engine.now))
        phase_span.end()
        phase_span = (span_tracer.start_span("engine.collect",
                                             parent=span_parent)
                      if span_tracer is not None else None)

    exec_cycles = finish_holder.get("cycles", system.engine.now)
    result = RunResult(workload=workload.name, mode=mode, n_cmps=n_cmps,
                       exec_cycles=exec_cycles,
                       policy=policy.name if slip else None,
                       transparent=transparent if slip else False,
                       si=si if slip else False,
                       protocol=config.protocol)
    if slip:
        result.task_breakdowns = [e.processor.breakdown for e in executors
                                  if isinstance(e, RStreamExecutor)]
        result.astream_breakdowns = [
            p.a_executor.processor.breakdown for p in pairs
            if p.a_executor is not None]
        # statistics cover every A-stream ever spawned, including the
        # pre-recovery ones
        all_a = [a for p in pairs for a in p.a_executor_history]
        result.recoveries = sum(p.recoveries for p in pairs)
        result.stores_converted = sum(a.stores_converted for a in all_a)
        result.stores_skipped = sum(a.stores_skipped for a in all_a)
        result.transparent_loads_issued = sum(
            a.transparent_loads for a in all_a)
        result.tokens_lost = sum(p.tokens_lost for p in pairs)
        result.astream_corruptions = sum(a.corruptions for a in all_a)
        result.demotions = sum(p.degradation.demotions for p in pairs
                               if p.degradation is not None)
        result.promotions = sum(p.degradation.promotions for p in pairs
                                if p.degradation is not None)
        classifier = system.classifier
        result.request_classes = classifier.summary()
        result.read_breakdown = classifier.breakdown("read")
        result.excl_breakdown = classifier.breakdown("excl")
        result.a_read_requests = classifier.a_request_count("read")
        result.transparent_replies = system.fabric.transparent_replies
        result.upgraded_transparent = system.fabric.upgraded_transparent
        result.si_invalidated = sum(n.ctrl.si_invalidated
                                    for n in system.nodes)
        result.si_downgraded = sum(n.ctrl.si_downgraded
                                   for n in system.nodes)
        if adaptive:
            result.policy_switches = sum(p.adaptive.switches for p in pairs)
            result.final_policies = {p.task_id: p.policy.name
                                     for p in pairs}
        if forwarding:
            result.forwarded_prefetches = sum(p.prefetcher.issued
                                              for p in pairs)
            result.pattern_lines_recorded = sum(p.pattern_log.recorded
                                                for p in pairs)
    else:
        result.task_breakdowns = [e.processor.breakdown for e in executors]
    if system.checker is not None:
        result.check_stats = system.checker.stats()
    if system.faults is not None:
        result.fault_stats = system.faults.summary()
    # The legacy machine-wide dictionaries are derived from the metrics
    # registry (single source of truth with the flat export); the
    # collectors snapshot the same component counters the driver used to
    # sum by hand, so the values — and the golden end-states pinned on
    # them — are unchanged.
    registry = run_registry(system, pairs)
    result.cache_totals = cache_totals_from(registry)
    result.fabric_stats = fabric_stats_from(registry)
    if metrics:
        result.metrics = registry.flat()
    if exporter is not None:
        exporter.write(trace_out)
    if phase_span is not None:
        phase_span.end()
    return result


def sequential_baseline(workload, config: MachineConfig) -> RunResult:
    """Uniprocessor run used as the Figure 4 speedup baseline."""
    return run_mode(workload, config.with_overrides(n_cmps=1), SEQUENTIAL)
