"""Machine-parameter sensitivity of the slipstream benefit.

The paper evaluates one machine point (Table 1).  A natural question for
anyone adopting the technique is how the slipstream win moves as the
machine changes — slower memory, a slower network, bigger caches, a
different SI drain rate.  This module sweeps one parameter at a time and
reports the slipstream-vs-best-conventional ratio at each point.

Sweeps declare :class:`~repro.experiments.runner.RunSpec`\\ s (the
parameter under sweep becomes a ``config_overrides`` entry) and execute
them through the figures module's shared
:class:`~repro.experiments.runner.Runner`, so ``--jobs`` fans the whole
sweep out at once and the result cache applies.

Used by ``python -m repro.experiments`` (``sensitivity`` subcommand) and
the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments import figures
from repro.experiments.driver import DOUBLE, SINGLE, SLIPSTREAM
from repro.experiments.runner import RunSpec
from repro.slipstream.arsync import ARSyncPolicy, G1

#: parameter -> default sweep values (Table 1 value included in each)
DEFAULT_SWEEPS: Dict[str, Sequence[int]] = {
    "net_time": (10, 50, 150, 400),
    "mem_time": (20, 50, 150),
    "l2_size": (32 * 1024, 64 * 1024, 256 * 1024),
    "port_data_occupancy": (8, 40, 120),
    "si_drain_interval": (1, 4, 32),
}


def _benefit_specs(workload_name: str, n_cmps: int, policy: ARSyncPolicy,
                   si: bool, overrides: Dict[str, int]) -> List[RunSpec]:
    """single, double, slipstream — the three runs behind one sweep point."""
    config_overrides = tuple(sorted(overrides.items()))
    common = dict(workload=workload_name, n_cmps=n_cmps,
                  config_overrides=config_overrides)
    return [
        RunSpec(mode=SINGLE, **common),
        RunSpec(mode=DOUBLE, **common),
        RunSpec(mode=SLIPSTREAM, policy=policy.name, si=si, **common),
    ]


def sweep(parameter: str, values: Optional[Iterable[int]] = None,
          workload_name: str = "ocean", n_cmps: int = 8,
          policy: ARSyncPolicy = G1, si: bool = False
          ) -> Dict[int, float]:
    """Slipstream benefit across one machine parameter.

    Returns ``{parameter_value: benefit}``.  ``si_drain_interval`` sweeps
    run with SI enabled regardless of ``si`` (the parameter is meaningless
    otherwise).
    """
    if values is None:
        try:
            values = DEFAULT_SWEEPS[parameter]
        except KeyError:
            raise KeyError(
                f"no default sweep for {parameter!r}; pass values= or "
                f"choose from {sorted(DEFAULT_SWEEPS)}") from None
    if parameter == "si_drain_interval":
        si = True
    values = list(values)
    specs: List[RunSpec] = []
    for value in values:
        specs += _benefit_specs(workload_name, n_cmps, policy, si,
                                {parameter: value})
    runs = iter(figures.get_runner().run_batch(specs))
    results: Dict[int, float] = {}
    for value in values:
        single = next(runs).exec_cycles
        double = next(runs).exec_cycles
        slip = next(runs).exec_cycles
        results[value] = min(single, double) / slip
    return results
