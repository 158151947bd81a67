"""Deterministic fault injection (network, A-stream, CPU fault models).

Install a :class:`FaultInjector` on the engine before machine assembly
(``System`` does this when ``MachineConfig.faults`` is set); components
query it at every potential fault site.  See ``docs/architecture.md`` §9.

:class:`HarnessChaos` (``repro.faults.harness``) is the *harness-level*
counterpart: seeded worker-crash/hang and journal-crash-point decisions
for the supervised worker pool and the serving layer's write-ahead
journal.  See ``docs/architecture.md`` §13.
"""

from repro.faults.harness import (HARNESS_PROFILES, JOURNAL_CRASH_POINTS,
                                  HarnessChaos, SimulatedCrash)
from repro.faults.injector import FaultInjector

#: named fault-rate bundles for the CLI (``--faults PROFILE``) and CI.
#: Each is a set of MachineConfig overrides; ``faults=True`` and the
#: fault seed are added by the caller.  Rates are tuned so tiny CI-sized
#: runs still see every enabled model fire.
FAULT_PROFILES = {
    # gentle background noise: latency jitter + rare stalls/token loss
    "light": dict(fault_net_jitter_rate=0.05, fault_net_jitter_max=20,
                  fault_token_loss_rate=0.02, fault_cpu_stall_rate=0.002,
                  fault_cpu_stall_cycles=200),
    # interconnect-focused: heavy jitter + request drops (NACK/backoff
    # /watchdog paths)
    "network": dict(fault_net_jitter_rate=0.20, fault_net_jitter_max=40,
                    fault_net_drop_rate=0.05),
    # slipstream-focused: corrupted A-streams and lost tokens drive the
    # deviation -> kill -> refork recovery path
    "astream": dict(fault_astream_corrupt_rate=0.05,
                    fault_token_loss_rate=0.10),
    # everything at once, plus graceful degradation with re-promotion
    "chaos": dict(fault_net_jitter_rate=0.20, fault_net_jitter_max=40,
                  fault_net_drop_rate=0.05, fault_token_loss_rate=0.10,
                  fault_astream_corrupt_rate=0.03,
                  fault_cpu_stall_rate=0.005, fault_cpu_stall_cycles=200,
                  degrade_after_reforks=4, degrade_window_sessions=16,
                  repromote_after_sessions=8),
    # every coherence request dropped AND the retry escalation disabled
    # (a practically-infinite retry budget with minimal backoff): no
    # remote fetch ever completes, so a multi-node run only terminates
    # via max_cycles.  A deliberate *stall*, not a perturbation — it
    # exists to exercise wall-clock watchdogs (the Runner's pooled-
    # progress watchdog, the serving layer's per-job deadline).  Always
    # pair it with max_cycles and n_cmps >= 2 (a single node has no
    # network hops to drop).
    "blackhole": dict(fault_net_drop_rate=1.0,
                      fault_net_max_retries=2**31,
                      fault_net_watchdog=2**31,
                      fault_net_backoff_base=1,
                      fault_net_backoff_cap=1),
}

__all__ = ["FaultInjector", "FAULT_PROFILES", "HARNESS_PROFILES",
           "JOURNAL_CRASH_POINTS", "HarnessChaos", "SimulatedCrash"]
