"""Pull-style collectors bridging components to the spine.

The simulator's components keep plain attribute counters on their hot
paths (``fabric.transactions``, ``cache.hits``, ...) — the cheapest
possible representation.  This module is where those attributes become
registry series: :func:`register_system_collectors` and
:func:`register_pair_collectors` install collector callables that
snapshot component state at :meth:`MetricsRegistry.collect` time.

It also derives the legacy machine-wide dictionaries
(``RunResult.cache_totals`` / ``RunResult.fabric_stats``) *from* the
registry, so those numbers now have a single source of truth — the same
series the flat metrics export carries — while staying value-identical
to the dicts the driver used to assemble by hand (the golden end-state
tests pin them).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.obs.registry import MetricsRegistry

#: fabric attributes exported 1:1 as unlabeled ``fabric.*`` counters
_FABRIC_COUNTERS = (
    "transactions", "interventions", "intervention_races",
    "invalidations_sent", "si_hints_sent", "transparent_replies",
    "upgraded_transparent", "migratory_grants", "writebacks")


def register_system_collectors(registry: MetricsRegistry, system) -> None:
    """Install a collector snapshotting ``system``'s component counters."""

    def collect_system(reg: MetricsRegistry) -> None:
        fabric = system.fabric
        for name in _FABRIC_COUNTERS:
            reg.counter(f"fabric.{name}").value = getattr(fabric, name)
        net = fabric.network
        reg.counter("net.messages", kind="data").value = net.data_messages
        reg.counter("net.messages", kind="ctrl").value = net.ctrl_messages
        reg.counter("net.jitter_cycles").value = net.jitter_cycles
        for node in system.nodes:
            ctrl = node.ctrl
            nid = ctrl.node_id
            l2 = ctrl.l2
            reg.counter("l2.hits", node=nid).value = l2.hits
            reg.counter("l2.misses", node=nid).value = l2.misses
            reg.counter("l2.evictions", node=nid).value = l2.evictions
            reg.counter("l2.invalidations_received", node=nid).value = \
                l2.invalidations_received
            for proc_idx, l1 in enumerate(ctrl.l1s):
                reg.counter("l1.hits", node=nid, proc=proc_idx).value = \
                    l1.hits
                reg.counter("l1.misses", node=nid, proc=proc_idx).value = \
                    l1.misses
            reg.counter("si.invalidated", node=nid).value = \
                ctrl.si_invalidated
            reg.counter("si.downgraded", node=nid).value = ctrl.si_downgraded
            reg.counter("si.stale_hints", node=nid).value = \
                ctrl.si_stale_hints
            reg.counter("prefetch.issued", node=nid).value = \
                ctrl.prefetches_issued
            reg.counter("prefetch.dropped", node=nid).value = \
                ctrl.prefetches_dropped
            reg.counter("ctrl.net_retries", node=nid).value = \
                ctrl.net_retries
            reg.counter("ctrl.watchdog_trips", node=nid).value = \
                ctrl.watchdog_trips
            for outcome, count in ctrl.a_outcomes.items():
                reg.counter("l2.a_outcome", node=nid,
                            outcome=outcome).value = count
            for proc in node.processors:
                labels = dict(node=nid, proc=proc.proc_idx)
                reg.counter("cpu.ops", **labels).value = proc.ops
                reg.counter("cpu.loads", **labels).value = proc.loads
                reg.counter("cpu.stores", **labels).value = proc.stores
                reg.counter("cpu.fault_stalls", **labels).value = \
                    proc.fault_stalls
                for category, cycles in proc.breakdown.as_dict().items():
                    reg.counter("cpu.cycles", category=category,
                                **labels).value = cycles
        classifier = system.classifier
        if classifier is not None:
            for category, kinds in classifier.counts.items():
                for kind, count in kinds.items():
                    reg.counter("classify.requests", category=category,
                                kind=kind).value = count

    registry.register_collector(collect_system)


def register_pair_collectors(registry: MetricsRegistry,
                             pairs: Sequence) -> None:
    """Install a collector snapshotting slipstream pair (and A-stream)
    statistics; A-stream counters sum over every executor ever spawned
    for a pair, reforks included."""

    def collect_pairs(reg: MetricsRegistry) -> None:
        for pair in pairs:
            labels = dict(pair=pair.task_id)
            reg.counter("ar.tokens_inserted", **labels).value = \
                pair.tokens_inserted
            reg.counter("ar.token_waits", **labels).value = pair.a_token_waits
            reg.counter("ar.tokens_lost", **labels).value = pair.tokens_lost
            reg.counter("ar.recoveries", **labels).value = pair.recoveries
            reg.gauge("ar.r_session", **labels).set(pair.r_session)
            reg.gauge("ar.a_session", **labels).set(pair.a_session)
            skipped = converted = transparent = corruptions = 0
            for a_exec in pair.a_executor_history:
                skipped += a_exec.stores_skipped
                converted += a_exec.stores_converted
                transparent += a_exec.transparent_loads
                corruptions += a_exec.corruptions
            reg.counter("a.stores_skipped", **labels).value = skipped
            reg.counter("a.stores_converted", **labels).value = converted
            reg.counter("a.transparent_loads", **labels).value = transparent
            reg.counter("a.corruptions", **labels).value = corruptions

    registry.register_collector(collect_pairs)


def run_registry(system, pairs: Sequence = ()) -> MetricsRegistry:
    """The collected metrics registry for a finished run.

    Reuses the machine's spine registry when one exists (so push-style
    series like fetch-latency histograms are included); otherwise builds
    a throwaway registry — end-of-run cost either way, nothing on the
    simulation's hot path.
    """
    obs = getattr(system, "obs", None)
    registry = obs.registry if obs is not None else MetricsRegistry()
    register_system_collectors(registry, system)
    if pairs:
        register_pair_collectors(registry, pairs)
    return registry.collect()


# ----------------------------------------------------------------------
# Legacy machine-wide dictionaries, derived from registry series
# ----------------------------------------------------------------------
def cache_totals_from(registry: MetricsRegistry) -> Dict[str, int]:
    """``RunResult.cache_totals``: machine-wide hit/miss totals."""
    return {
        "l1_hits": registry.sum("l1.hits"),
        "l1_misses": registry.sum("l1.misses"),
        "l2_hits": registry.sum("l2.hits"),
        "l2_misses": registry.sum("l2.misses"),
        "l2_evictions": registry.sum("l2.evictions"),
    }


def fabric_stats_from(registry: MetricsRegistry) -> Dict[str, int]:
    """``RunResult.fabric_stats``: coherence-fabric counters."""
    return {
        "transactions": registry.value("fabric.transactions"),
        "interventions": registry.value("fabric.interventions"),
        "invalidations_sent": registry.value("fabric.invalidations_sent"),
        "writebacks": registry.value("fabric.writebacks"),
        "si_hints_sent": registry.value("fabric.si_hints_sent"),
        "migratory_grants": registry.value("fabric.migratory_grants"),
        "network_messages": registry.sum("net.messages"),
        "jitter_cycles": registry.value("net.jitter_cycles"),
        "net_retries": registry.sum("ctrl.net_retries"),
        "watchdog_trips": registry.sum("ctrl.watchdog_trips"),
    }
