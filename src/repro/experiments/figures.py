"""Regenerate every table and figure of the paper's evaluation.

Each ``figureN()`` function *declares* the :class:`RunSpec`\\ s behind the
corresponding figure, batch-executes them through the module's
:class:`~repro.experiments.runner.Runner`, then assembles plain data
(dicts keyed by benchmark) from the results; ``render(...)`` turns any
of them into an aligned text table.  ``python -m repro.experiments``
drives them from the command line and can parallelize the batches
(``--jobs``) and cache results on disk (default; ``--no-cache``).

Because specs are deduplicated by the runner, the shared
``single``/``double`` baselines are simulated once per (benchmark, CMP
count) across Figures 1, 5, 6, and 10, and Figure 6's policy sweep
reuses Figure 5's slipstream runs — within one process via the runner's
memo, across processes via the on-disk result cache.

Experiment conventions (matching the paper):

* machine: Table 1 latencies with caches scaled to the scaled inputs
  (:func:`repro.config.scaled_config`; see DESIGN.md),
* benchmark set and order: Table 2,
* slipstream comparisons run at 16 CMPs, except FFT at 4 CMPs (the paper
  stops comparing FFT beyond 4 because its absolute performance degrades),
* Section 4 experiments (Figures 9 and 10) use one-token global (G1)
  A-R synchronization, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig
from repro.experiments.driver import (DOUBLE, SEQUENTIAL, SINGLE, SLIPSTREAM,
                                      RunResult)
from repro.experiments.runner import Runner, RunSpec
from repro.slipstream.arsync import POLICIES
from repro.stats.timebreakdown import CATEGORIES as TIME_CATEGORIES
from repro.workloads import PAPER_ORDER, make

#: CMP counts swept in Figures 1, 4, and 5
CMP_COUNTS = (2, 4, 8, 16)

#: the CMP count each benchmark's slipstream comparison uses
#: (16 everywhere, 4 for FFT — Section 3.4)
COMPARISON_CMPS = {name: (4 if name == "fft" else 16) for name in PAPER_ORDER}

#: Figure 9/10 benchmark set: LU and Water-SP are excluded, as in the
#: paper (their stall time is too small for slipstream to matter).
SECTION4_WORKLOADS = ("cg", "fft", "mg", "ocean", "sor", "sp", "water-ns")


# ----------------------------------------------------------------------
# Execution context: one shared Runner for all figure functions
# ----------------------------------------------------------------------
_runner = Runner()


def get_runner() -> Runner:
    """The Runner all figure functions execute through."""
    return _runner


def set_runner(runner: Runner) -> Runner:
    """Install a Runner (CLI wiring for --jobs/--cache-dir); returns the
    previous one so callers can restore it."""
    global _runner
    previous, _runner = _runner, runner
    return previous


def _batch(specs: Sequence[RunSpec]) -> List[RunResult]:
    return _runner.run_batch(specs)


def _spec(name: str, n_cmps: int, mode: str, **kwargs) -> RunSpec:
    return RunSpec(workload=name, mode=mode, n_cmps=n_cmps, **kwargs)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1() -> Dict[str, int]:
    """Table 1: machine parameters, plus the derived minimum miss
    latencies the paper quotes (170 local / 290 remote)."""
    config = MachineConfig()
    return {
        "BusTime": config.bus_time,
        "PILocalDCTime": config.pi_local_dc_time,
        "PIRemoteDCTime": config.pi_remote_dc_time,
        "NIRemoteDCTime": config.ni_remote_dc_time,
        "NILocalDCTime": config.ni_local_dc_time,
        "NetTime": config.net_time,
        "MemTime": config.mem_time,
        "min local miss": config.local_miss_cycles,
        "min remote miss": config.remote_miss_cycles,
    }


def table2() -> List[Dict[str, str]]:
    """Table 2: benchmarks, paper sizes, and this reproduction's sizes."""
    rows = []
    for name in PAPER_ORDER:
        workload = make(name)
        rows.append({
            "benchmark": name,
            "paper size": workload.paper_size,
            "scaled instance": workload.scaled_size,
        })
    return rows


# ----------------------------------------------------------------------
# Figures 1 and 4: mode scalability
# ----------------------------------------------------------------------
def figure1(workloads: Sequence[str] = PAPER_ORDER,
            cmp_counts: Sequence[int] = CMP_COUNTS) -> Dict[str, Dict[int, float]]:
    """Figure 1: speedup of double mode relative to single mode."""
    points = [(name, n) for name in workloads for n in cmp_counts]
    specs = [_spec(name, n, mode)
             for name, n in points for mode in (SINGLE, DOUBLE)]
    runs = iter(_batch(specs))
    results: Dict[str, Dict[int, float]] = {name: {} for name in workloads}
    for name, n in points:
        single, double = next(runs), next(runs)
        results[name][n] = single.exec_cycles / double.exec_cycles
    return results


def figure4(workloads: Sequence[str] = PAPER_ORDER,
            cmp_counts: Sequence[int] = CMP_COUNTS) -> Dict[str, Dict[int, float]]:
    """Figure 4: single-mode speedup over sequential execution."""
    specs = [_spec(name, 1, SEQUENTIAL) for name in workloads]
    specs += [_spec(name, n, SINGLE)
              for name in workloads for n in cmp_counts]
    runs = _batch(specs)
    sequential = {name: run.exec_cycles
                  for name, run in zip(workloads, runs[:len(workloads)])}
    results: Dict[str, Dict[int, float]] = {name: {} for name in workloads}
    for run in runs[len(workloads):]:
        results[run.workload][run.n_cmps] = (sequential[run.workload]
                                             / run.exec_cycles)
    return results


# ----------------------------------------------------------------------
# Figure 5: slipstream and double vs single
# ----------------------------------------------------------------------
def _fig5_cell_specs(name: str, n_cmps: int) -> List[RunSpec]:
    """single, double, then one slipstream run per A-R policy."""
    specs = [_spec(name, n_cmps, SINGLE), _spec(name, n_cmps, DOUBLE)]
    specs += [_spec(name, n_cmps, SLIPSTREAM, policy=policy.name)
              for policy in POLICIES]
    return specs


def figure5(workloads: Sequence[str] = PAPER_ORDER,
            cmp_counts: Sequence[int] = CMP_COUNTS
            ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 5: speedup of slipstream (all four A-R policies) and double
    mode, relative to single mode, per benchmark and CMP count."""
    points = [(name, n) for name in workloads for n in cmp_counts]
    specs: List[RunSpec] = []
    for name, n in points:
        specs += _fig5_cell_specs(name, n)
    runs = iter(_batch(specs))
    results: Dict[str, Dict[int, Dict[str, float]]] = {
        name: {} for name in workloads}
    for name, n in points:
        single = next(runs).exec_cycles
        row = {"single": 1.0, "double": single / next(runs).exec_cycles}
        for policy in POLICIES:
            row[policy.name] = single / next(runs).exec_cycles
        results[name][n] = row
    return results


def best_policy(fig5_row: Dict[str, float]) -> str:
    """The best-performing A-R policy in one Figure 5 cell."""
    return max((p.name for p in POLICIES), key=lambda k: fig5_row[k])


# ----------------------------------------------------------------------
# Figure 6: execution-time breakdown
# ----------------------------------------------------------------------
def figure6(workloads: Sequence[str] = PAPER_ORDER,
            policies: Optional[Dict[str, str]] = None
            ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 6: average execution-time breakdown for single (S), double
    (D), and slipstream R-stream (R) / A-stream (A), normalized to the
    single-mode total, at each benchmark's comparison CMP count.

    ``policies`` optionally maps benchmark -> A-R policy name; by default
    the best prefetch-only policy is found by a mini Figure 5 sweep —
    which deduplicates against Figure 5 itself through the runner's memo
    and result cache, so a full ``all`` regeneration sweeps once.
    """
    specs: List[RunSpec] = []
    for name in workloads:
        n = COMPARISON_CMPS[name]
        specs += [_spec(name, n, SINGLE), _spec(name, n, DOUBLE)]
        if policies and name in policies:
            specs.append(_spec(name, n, SLIPSTREAM, policy=policies[name]))
        else:
            specs += [_spec(name, n, SLIPSTREAM, policy=policy.name)
                      for policy in POLICIES]
    runs = iter(_batch(specs))
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        single, double = next(runs), next(runs)
        if policies and name in policies:
            slip = next(runs)
        else:
            sweep = {policy.name: next(runs) for policy in POLICIES}
            slip = max(sweep.values(),
                       key=lambda run: single.exec_cycles / run.exec_cycles)
        base = max(single.mean_task_breakdown.total, 1)

        def norm(breakdown) -> Dict[str, float]:
            return {cat: 100.0 * getattr(breakdown, cat) / base
                    for cat in TIME_CATEGORIES}

        results[name] = {
            "S": norm(single.mean_task_breakdown),
            "D": norm(double.mean_task_breakdown),
            "R": norm(slip.mean_task_breakdown),
            "A": norm(slip.mean_astream_breakdown),
            "policy": slip.policy,
        }
    return results


# ----------------------------------------------------------------------
# Figure 7: request classification per A-R policy
# ----------------------------------------------------------------------
def figure7(workloads: Sequence[str] = PAPER_ORDER
            ) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Figure 7: breakdown of shared-data memory requests (reads and
    exclusives) into A/R x Timely/Late/Only, for each A-R policy."""
    specs = [_spec(name, COMPARISON_CMPS[name], SLIPSTREAM,
                   policy=policy.name)
             for name in workloads for policy in POLICIES]
    runs = iter(_batch(specs))
    results: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for name in workloads:
        results[name] = {}
        for policy in POLICIES:
            run = next(runs)
            results[name][policy.name] = {
                "read": run.read_breakdown,
                "excl": run.excl_breakdown,
            }
    return results


# ----------------------------------------------------------------------
# Figures 9 and 10: transparent loads and self-invalidation
# ----------------------------------------------------------------------
def figure9(workloads: Sequence[str] = SECTION4_WORKLOADS
            ) -> Dict[str, Dict[str, float]]:
    """Figure 9: fraction of A-stream read requests issued as transparent
    loads, split into transparent vs upgraded replies (G1, SI enabled)."""
    specs = [_spec(name, COMPARISON_CMPS[name], SLIPSTREAM, policy="G1",
                   si=True) for name in workloads]
    results: Dict[str, Dict[str, float]] = {}
    for name, run in zip(workloads, _batch(specs)):
        # a_read_requests already counts transparent-kind fetches (they
        # are A read requests); it IS the denominator.
        a_reads = max(run.a_read_requests, 1)
        issued = run.transparent_replies + run.upgraded_transparent
        results[name] = {
            "transparent_pct": 100.0 * run.transparent_replies / a_reads,
            "upgraded_pct": 100.0 * run.upgraded_transparent / a_reads,
            "issued_pct": 100.0 * issued / a_reads,
            "transparent_share": (run.transparent_replies / issued
                                  if issued else 0.0),
        }
    return results


def figure10(workloads: Sequence[str] = SECTION4_WORKLOADS
             ) -> Dict[str, Dict[str, float]]:
    """Figure 10: slipstream speedup over best(single, double) for three
    configurations — prefetch-only (G1), + transparent loads, and
    + transparent loads + self-invalidation."""
    specs: List[RunSpec] = []
    for name in workloads:
        n = COMPARISON_CMPS[name]
        specs += [
            _spec(name, n, SINGLE),
            _spec(name, n, DOUBLE),
            _spec(name, n, SLIPSTREAM, policy="G1"),
            _spec(name, n, SLIPSTREAM, policy="G1", transparent=True),
            _spec(name, n, SLIPSTREAM, policy="G1", si=True),
        ]
    runs = iter(_batch(specs))
    results: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        single = next(runs).exec_cycles
        double = next(runs).exec_cycles
        best = min(single, double)
        results[name] = {
            "prefetch": best / next(runs).exec_cycles,
            "prefetch+tl": best / next(runs).exec_cycles,
            "prefetch+tl+si": best / next(runs).exec_cycles,
            "best_mode": "single" if single <= double else "double",
        }
    return results


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render(table: Dict, title: str = "", floatfmt: str = "%.2f") -> str:
    """Render a {row: {col: value}} dict (one or two levels) as text."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    rows = list(table.items())
    if not rows:
        return "\n".join(lines + ["(empty)"])

    def fmt(value) -> str:
        if isinstance(value, float):
            return floatfmt % value
        return str(value)

    first = rows[0][1]
    if isinstance(first, dict):
        columns = list(first.keys())
        widths = [max(len(str(c)), 8,
                      *(len(fmt(row.get(c, ""))) for _, row in rows))
                  for c in columns]
        name_width = max(len(str(r)) for r, _ in rows) + 2
        header = " " * name_width + " ".join(
            str(c).rjust(w) for c, w in zip(columns, widths))
        lines.append(header)
        for row_name, row in rows:
            cells = " ".join(fmt(row.get(c, "")).rjust(w)
                             for c, w in zip(columns, widths))
            lines.append(str(row_name).ljust(name_width) + cells)
    else:
        for row_name, value in rows:
            lines.append(f"{row_name}: {fmt(value)}")
    return "\n".join(lines)
