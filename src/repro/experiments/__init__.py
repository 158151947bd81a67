"""Experiment drivers: execution modes, sweeps, and figure/table regeneration.

* :mod:`repro.experiments.driver` — run one (workload, machine, mode)
  combination and collect a :class:`~repro.experiments.driver.RunResult`.
* :mod:`repro.experiments.figures` — one function per table/figure of the
  paper's evaluation (see DESIGN.md's per-experiment index).
* :mod:`repro.experiments.runner` — declarative :class:`RunSpec`\\ s,
  batch execution with deduplication and a process pool.
* :mod:`repro.experiments.cache` — content-addressed on-disk result
  cache shared by every figure, sweep, and CLI invocation.
"""

from repro.experiments.driver import (MODES, RunResult, run_mode,
                                      sequential_baseline)
from repro.experiments.claims import CLAIMS, check_all
from repro.experiments.runner import Runner, RunSpec
from repro.experiments.cache import ResultCache
from repro.experiments.sensitivity import sweep

__all__ = ["CLAIMS", "MODES", "ResultCache", "RunResult", "RunSpec",
           "Runner", "check_all", "run_mode", "sequential_baseline",
           "sweep"]
