"""Order statistics and the A/B verdict rule.

Two rules from the benchmark's metric guide live here so every caller
applies them the same way:

* a tail percentile is reported only when at least ten samples lie
  beyond it (p95 needs 200 samples); the median is always reported;
* a change counts as *improved* only when it wins at least nine tenths
  of the pairs run and its median moves by more than the parent's own
  quartile spread; it counts as *unchanged* only when its median is no
  worse than the bound and neither side's spread exceeds the bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10
#: share of pairs a change must win before a gain may be claimed
WIN_SHARE = 0.9


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Refuses a tail percentile (``q`` above 50) that has fewer than
    :data:`MIN_BEYOND` samples beyond it — p95 needs 200 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q > 50:
        needed = math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)
        if n < needed:
            raise ValueError(f"p{q:g} needs at least {needed} samples "
                             f"({MIN_BEYOND} beyond it), got {n}")
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    below, above = ordered[low], ordered[min(low + 1, n - 1)]
    if rank == low or below == above:       # also keeps inf - inf out
        return below
    return below + (above - below) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, relative spread and sample count."""
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """Compare runs of a change against runs of its parent.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  ``better`` is
    ``"lower"`` or ``"higher"``; ``bound`` is the share of the parent's
    median by which the metric may worsen before it is a regression.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    a, b = summary(parent), summary(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (b["median"] - a["median"])
    relative = gain / abs(a["median"]) if a["median"] else 0.0
    every_run_better = all(sign * (y - x) > 0 for x in parent for y in change)
    if (pairs and wins >= WIN_SHARE * len(pairs)
            and gain > a["q3"] - a["q1"]):
        outcome = "improved"
    elif relative < -bound:
        outcome = "worse"
    elif max(a["spread"], b["spread"]) > bound and not every_run_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {"verdict": outcome, "parent": a, "change": b,
            "pairs": len(pairs), "wins": wins, "losses": losses,
            "relative_gain": relative}


def verdict_table(parent_runs: List[Dict[str, Dict[str, float]]],
                  change_runs: List[Dict[str, Dict[str, float]]],
                  declared: Sequence[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
    """One verdict per (workload, metric) present on both sides.

    Each run maps ``workload -> {metric: value}``; ``declared`` is the
    ``end_to_end`` list of BENCHMARK.json.
    """
    rows = []
    workloads = sorted(set().union(*(run.keys() for run in parent_runs))
                       if parent_runs else ())
    for workload in workloads:
        for metric in declared:
            name = str(metric["name"])
            a = [run[workload][name] for run in parent_runs
                 if name in run.get(workload, {})]
            b = [run[workload][name] for run in change_runs
                 if name in run.get(workload, {})]
            if not a or not b:
                continue
            row = verdict(a, b, str(metric["better"]), float(metric["bound"]))
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows
