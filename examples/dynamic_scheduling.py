#!/usr/bin/env python
"""Dynamic scheduling and A-stream recovery.

Section 3.1 of the paper singles out dynamic scheduling as the access
pattern slipstream cannot predict: the A-stream would read a different
value from the shared work queue and wander onto the wrong chunks.  This
example runs the synthetic DynSched kernel three ways:

1. **divergent** — the A-stream takes wrong paths; the R-stream detects it
   at session ends and kills + reforks it (Section 3.2's recovery),
2. **benign** — same kernel without divergence: no recoveries,
3. **forwarded** — the paper's recommended treatment: the A-stream skips
   the scheduling decision and waits for the R-stream's choice.

Run:  python examples/dynamic_scheduling.py
"""

from repro import MachineConfig, run_mode
from repro.workloads.dynsched import DynSched


def show(title: str, workload: DynSched) -> None:
    # Two CMPs: with more nodes the wrong-path A-streams still reach each
    # barrier within the one-session deviation grace, so none is caught.
    config = MachineConfig(n_cmps=2, l1_size=4096, l2_size=64 * 1024)
    single = run_mode(DynSched(divergent=workload.divergent,
                               forward_decisions=workload.forward_decisions),
                      config, "single")
    slip = run_mode(workload, config, "slipstream")
    print(f"\n=== {title} ===")
    print(f"single:     {single.exec_cycles:>9,} cycles")
    print(f"slipstream: {slip.exec_cycles:>9,} cycles "
          f"({single.exec_cycles / slip.exec_cycles:.2f}x)")
    print(f"A-stream recoveries: {slip.recoveries}")
    arsync = slip.mean_astream_breakdown.arsync
    print(f"A-stream time waiting on A-R sync: {arsync:,} cycles")


def main() -> None:
    show("divergent A-stream (recovery fires)", DynSched(divergent=True))
    show("benign scheduling (no divergence)", DynSched(divergent=False))
    show("decision forwarding (paper's treatment)",
         DynSched(forward_decisions=True))
    print("\nRecovery is expensive (kill + refork at the R-stream's "
          "session), which is\nwhy the paper forwards scheduling decisions "
          "through the R-stream instead of\nletting the A-stream guess.")


if __name__ == "__main__":
    main()
