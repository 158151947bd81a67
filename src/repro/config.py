"""Machine parameters (Table 1 of the paper).

The defaults reproduce the paper's SimOS configuration, which approximates
the SGI Origin 3000 memory system: with no contention, a local L2 miss takes
170 cycles and a remote clean miss 290 cycles.

Latency composition (matching the paper's stated minimums):

* local miss:  ``bus + pi_local_dc + mem + bus``
  = 30 + 60 + 50 + 30 = **170 cycles**
* remote miss: ``bus + pi_remote_dc + net + ni_local_dc + mem + net
  + ni_remote_dc + bus`` = 30 + 10 + 50 + 60 + 50 + 50 + 10 + 30
  = **290 cycles**
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: coherence protocols a machine can run (``MachineConfig.protocol``).
#: A literal tuple rather than the repro.memory.proto registry keys:
#: this module is imported by repro.memory, so it cannot import the
#: registry back — a test pins the two in sync.
PROTOCOLS = ("dir-inv", "dls")

#: MachineConfig fields that are cycle counts: latencies, DC and port
#: occupancies, synchronization costs and slipstream delays (>= 0)
_CYCLE_FIELDS = (
    "l2_hit_cycles", "bus_time", "pi_local_dc_time", "pi_remote_dc_time",
    "ni_remote_dc_time", "ni_local_dc_time", "net_time", "mem_time",
    "port_data_occupancy", "port_ctrl_occupancy", "lock_local_cycles",
    "lock_transfer_cycles", "barrier_entry_cycles", "barrier_release_cycles",
    "si_drain_interval", "recovery_fork_cycles", "input_forward_cycles")


@dataclass
class MachineConfig:
    """All tunable hardware parameters.

    Instances are immutable by convention; use :meth:`with_overrides` to
    derive variants.  Defaults are Table 1 of the paper.
    """

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    n_cmps: int = 16
    procs_per_cmp: int = 2

    # ------------------------------------------------------------------
    # Caches (Table 1).  Sizes in bytes.
    # ------------------------------------------------------------------
    line_size: int = 64
    page_size: int = 4096
    l1_size: int = 32 * 1024
    l1_assoc: int = 2
    l2_size: int = 1024 * 1024
    l2_assoc: int = 4
    l2_hit_cycles: int = 10
    #: cache replacement policy: 'lru' (default), 'fifo', or 'random'
    replacement_policy: str = "lru"

    # ------------------------------------------------------------------
    # Memory system latencies (Table 1, cycles)
    # ------------------------------------------------------------------
    bus_time: int = 30            # transit, L2 to directory controller
    pi_local_dc_time: int = 60    # occupancy of DC on local miss
    pi_remote_dc_time: int = 10   # occupancy of local DC on outgoing miss
    ni_remote_dc_time: int = 10   # occupancy of local DC on incoming miss
    ni_local_dc_time: int = 60    # occupancy of remote (home) DC on remote miss
    net_time: int = 50            # transit, interconnection network
    mem_time: int = 50            # DC to local memory

    # Network port occupancy per message (contention at network inputs and
    # outputs).  Data-carrying messages occupy ports longer than control
    # messages.
    port_data_occupancy: int = 40
    port_ctrl_occupancy: int = 8

    # ------------------------------------------------------------------
    # Synchronization object costs (substitution for ANL-macro shared-memory
    # implementations; see DESIGN.md).  An uncontended lock acquire costs a
    # round-trip to its home; a contended transfer costs a remote-miss-like
    # latency.  Barrier arrival/release messaging is charged per participant.
    # ------------------------------------------------------------------
    lock_local_cycles: int = 40
    lock_transfer_cycles: int = 290
    barrier_entry_cycles: int = 100
    barrier_release_cycles: int = 100

    # ------------------------------------------------------------------
    # Slipstream support
    # ------------------------------------------------------------------
    #: cycles between two self-invalidation line drains ("a peak rate of one
    #: every four cycles")
    si_drain_interval: int = 4
    #: cost of killing + reforking a deviated A-stream (task re-creation)
    recovery_fork_cycles: int = 5000
    #: sessions the A-stream must lag (measured when the R-stream exits a
    #: session-ending synchronization) before it is declared deviated.  The
    #: paper's literal check is 0 ("the R-stream reaches the end of a
    #: session before the A-stream"), but at 0 simulator tie-breaking in
    #: lockstep sessions triggers spurious recoveries the paper never
    #: observed; 1 reproduces the paper's zero-recovery behaviour while
    #: still catching genuinely deviated A-streams within one session.
    deviation_lag_sessions: int = 1
    #: latency of passing an Input value from R-stream to A-stream via a
    #: shared-memory location
    input_forward_cycles: int = 20

    # ------------------------------------------------------------------
    # Fault injection (repro.faults).  All models are off at rate 0.0, and
    # a zero rate short-circuits before any RNG draw, so faults=True with
    # all-zero rates is bit-identical to faults=False.
    # ------------------------------------------------------------------
    #: master switch: construct and install a FaultInjector on the engine
    faults: bool = False
    #: seeds the per-domain fault RNG streams (independent of `seed`)
    fault_seed: int = 1
    #: probability a network message picks up extra latency
    fault_net_jitter_rate: float = 0.0
    #: max extra cycles per jittered message (uniform in [1, max])
    fault_net_jitter_max: int = 40
    #: probability a coherence *request* hop is dropped (surfaced as NACK)
    fault_net_drop_rate: float = 0.0
    #: NACK retries before the requester's watchdog gives up backing off
    fault_net_max_retries: int = 5
    #: first-retry backoff in cycles; doubles per retry up to the cap
    fault_net_backoff_base: int = 32
    fault_net_backoff_cap: int = 2048
    #: watchdog: total cycles a fetch may spend retrying before it stops
    #: backing off and retries continuously (forward-progress guarantee)
    fault_net_watchdog: int = 50_000
    #: probability an inserted A-R token is lost in flight
    fault_token_loss_rate: float = 0.0
    #: probability the A-stream control-deviates at a sync point
    fault_astream_corrupt_rate: float = 0.0
    #: per-opportunity probability of a transient CPU stall
    fault_cpu_stall_rate: float = 0.0
    #: stall duration in cycles when one fires
    fault_cpu_stall_cycles: int = 500

    # ------------------------------------------------------------------
    # Graceful degradation (slipstream -> conventional execution).  The
    # pair is demoted when it reforks `degrade_after_reforks` times within
    # a window of `degrade_window_sessions` R-stream sessions; 0 disables.
    # ------------------------------------------------------------------
    degrade_after_reforks: int = 0
    degrade_window_sessions: int = 16
    #: demoted pairs are re-promoted to slipstream after this many clean
    #: sessions (0 = demotion is permanent for the rest of the run)
    repromote_after_sessions: int = 0

    # ------------------------------------------------------------------
    # Derived / misc
    # ------------------------------------------------------------------
    seed: int = 12345
    #: enable the runtime invariant sanitizer (repro.check).  Off by
    #: default: checking observes every directory transaction and costs
    #: real wall-clock time, but never changes simulated timing.
    check: bool = False
    #: enable push-style metrics on the observability spine (repro.obs):
    #: hot components create registry handles (fetch-latency histograms,
    #: labeled fill counters) and feed them inline.  Off by default — the
    #: flag changes wall-clock cost only, never simulated timing — and,
    #: being a config field, it participates in the result-cache key so
    #: metric-bearing results never alias metric-free ones.
    metrics: bool = False
    #: coherence protocol the machine runs, by name from the
    #: repro.memory.proto registry: "dir-inv" (the paper's invalidate
    #: directory + slipstream extensions, the baseline) or "dls" (a
    #: directoryless shared-LLC variant with sync-point
    #: self-invalidation).  Participates in the result-cache key.
    protocol: str = "dir-inv"

    def __post_init__(self) -> None:
        if self.n_cmps < 1:
            raise ValueError("n_cmps must be >= 1")
        if self.procs_per_cmp != 2:
            raise ValueError("the slipstream CMP node model is dual-processor")
        for name in ("line_size", "page_size", "l1_size", "l2_size"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(
                    f"{name} must be a positive power of two, got {value}")
        if self.page_size % self.line_size:
            raise ValueError("page_size must be a multiple of line_size")
        for level in ("l1", "l2"):
            size = getattr(self, f"{level}_size")
            assoc = getattr(self, f"{level}_assoc")
            if assoc < 1 or size < self.line_size \
                    or (size // self.line_size) % assoc:
                raise ValueError(
                    f"{level}_assoc must be >= 1 and divide the "
                    f"{size // self.line_size} lines of {level}_size, "
                    f"got {assoc}")
        for name in _CYCLE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} is a cycle count and must be >= 0, "
                    f"got {getattr(self, name)}")
        if self.deviation_lag_sessions < 0:
            raise ValueError("deviation_lag_sessions must be >= 0")
        for name in ("fault_net_jitter_rate", "fault_net_drop_rate",
                     "fault_token_loss_rate", "fault_astream_corrupt_rate",
                     "fault_cpu_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_net_backoff_base < 1:
            raise ValueError("fault_net_backoff_base must be >= 1")
        if self.fault_net_backoff_cap < self.fault_net_backoff_base:
            raise ValueError("fault_net_backoff_cap must be >= backoff_base")
        if self.fault_net_watchdog < 1:
            raise ValueError("fault_net_watchdog must be >= 1")
        if self.fault_net_max_retries < 0:
            raise ValueError("fault_net_max_retries must be >= 0")
        for name in ("degrade_after_reforks", "degrade_window_sessions",
                     "repromote_after_sessions", "fault_cpu_stall_cycles",
                     "fault_net_jitter_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; known: "
                f"{', '.join(PROTOCOLS)}")

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # Convenience latencies for documentation/tests -----------------------
    @property
    def local_miss_cycles(self) -> int:
        """Zero-contention local clean-miss latency (paper: 170)."""
        return 2 * self.bus_time + self.pi_local_dc_time + self.mem_time

    @property
    def remote_miss_cycles(self) -> int:
        """Zero-contention remote clean-miss latency (paper: 290)."""
        return (2 * self.bus_time + self.pi_remote_dc_time + 2 * self.net_time
                + self.ni_local_dc_time + self.mem_time + self.ni_remote_dc_time)


#: Table 1 configuration, as published.
TABLE1 = MachineConfig()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the simulation service (``repro.serve``).

    Deliberately separate from :class:`MachineConfig`: these knobs shape
    how the *service* schedules work (admission, deadlines) and
    must never leak into result-cache keys — the same ``RunSpec`` yields
    the same ``RunResult`` whatever the serving parameters (the
    bit-identity contract; see docs/architecture.md §12).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    #: admission bound: maximum unresolved *unique* jobs (queued or
    #: running).  New work beyond it is shed with a 429 + Retry-After.
    max_queue: int = 64
    #: per-client in-flight cap (coalesced duplicates count too)
    per_client_inflight: int = 16
    #: wall-clock watchdog per job, started when the job starts running:
    #: a job still unresolved after this many seconds is reported as
    #: ``error.type == "Timeout"`` (the same shape the supervised pool's
    #: per-job wall-clock limit produces)
    job_timeout_s: float = 120.0
    #: seconds advertised in the 429/503 ``Retry-After`` header
    retry_after_s: float = 1.0
    #: ± jitter fraction applied to every advertised ``Retry-After`` so
    #: shed clients do not retry in a synchronized herd (0 disables)
    retry_jitter: float = 0.2
    #: finished-job records kept for ``/runs/{id}`` (oldest evicted)
    history_limit: int = 1024
    #: write-ahead job journal directory (None = journaling disabled;
    #: with it disabled the service behaves byte-identically to the
    #: journal-free serving layer)
    journal_dir: Optional[str] = None
    #: journal segment rotation threshold (records per segment)
    journal_segment_records: int = 256
    #: fsync every journal append (False trades durability for speed —
    #: tests only)
    journal_fsync: bool = True
    #: graceful-drain budget: seconds a SIGTERM'd service waits for
    #: in-flight jobs before shutting down anyway
    drain_timeout_s: float = 30.0
    #: request-scoped causal tracing (repro.obs.trace): every admitted
    #: job gets a root span whose context rides through the Runner into
    #: the worker processes.  Off (the default) keeps the serving stack
    #: on its untraced fast path — responses, journal records, and wire
    #: payloads stay byte-identical to the pre-tracing service.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.per_client_inflight < 1:
            raise ValueError("per_client_inflight must be >= 1")
        for name in ("job_timeout_s", "retry_after_s", "drain_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.journal_segment_records < 1:
            raise ValueError("journal_segment_records must be >= 1")


def scaled_config(n_cmps: int = 16, **overrides) -> MachineConfig:
    """Experiment configuration with caches scaled to the scaled data sets.

    The paper runs full-size inputs (Table 2) against a 1-MB L2, so the
    important working sets exceed the L2 and every sweep pays capacity
    misses.  Our inputs are scaled ~10-100x for pure-Python simulation
    (see DESIGN.md), so the experiment driver scales the caches with them
    — 4-KB L1s and a 64-KB shared L2 keep the working-set/cache ratios in
    the paper's regime.  All latency/occupancy parameters stay at their
    Table 1 values.
    """
    params = dict(n_cmps=n_cmps, l1_size=4 * 1024, l2_size=64 * 1024)
    params.update(overrides)
    return MachineConfig(**params)

#: The paper uses a 128-KB L2 for Water to match its small working set.
def water_config(n_cmps: int = 16, **overrides) -> MachineConfig:
    """Table 1 configuration with the 128-KB L2 used for the Water runs."""
    return MachineConfig(n_cmps=n_cmps, l2_size=128 * 1024, **overrides)
