"""Seeded input generators for the four workloads.

Everything a workload feeds the program is built here from the seed
alone (string-seeded ``random.Random``, so hash randomization and the
platform cannot change it).  The program receives only these inputs.

The generators draw from *fixed pools* with a fixed structure, and the
seed picks variants inside that structure.  Two reasons: every input
the generators can draw has a recorded digest in ``expected.json``, and
the amount of work per operation stays nearly the same across seeds,
so a metric's spread over seeds measures the host, not the draw.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from types import SimpleNamespace
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.experiments import figures as figures_module
from repro.experiments.runner import RunSpec

from .gate import canonical

# ----------------------------------------------------------------------
# micro-ocean: the fixed ROADMAP micro (the seed does not change it)
# ----------------------------------------------------------------------
MICRO_SPEC = RunSpec("ocean", "slipstream", 4, policy="G1")

# ----------------------------------------------------------------------
# fuzz-share: a sharing-heavy synthetic kernel whose working set fits
# ----------------------------------------------------------------------
FUZZ_PARAMS = dict(sessions=20, ops_per_session=400, hot_lines=16,
                   share_fraction=0.6, store_fraction=0.5)
SMOKE_FUZZ_PARAMS = dict(sessions=2, ops_per_session=40, hot_lines=16,
                         share_fraction=0.6, store_fraction=0.5)
FUZZ_CMPS = 4
#: one pair = dir-inv with self-invalidation, then the directoryless dls
FUZZ_PAIR = (("dir-inv", True), ("dls", False))
#: seeds whose fuzz-share digests are recorded in expected.json
RECORDED_FUZZ_SEEDS = (2003, 7)


def fuzz_params(seed: int, smoke: bool = False) -> Dict[str, object]:
    return dict(SMOKE_FUZZ_PARAMS if smoke else FUZZ_PARAMS, seed=seed)


def fuzz_key(params: Dict[str, object], protocol: str, si: bool) -> str:
    return canonical({"fuzz": params, "n_cmps": FUZZ_CMPS,
                      "protocol": protocol, "si": si})


# ----------------------------------------------------------------------
# fig-batch: regenerating a panel of the paper's figures
# ----------------------------------------------------------------------
#: the figures whose functions take a kernel and CMP-count panel
FIGURES = ("figure1", "figure4", "figure5")
#: the panel the CI figure job regenerates (``python -m repro.experiments
#: fig1 --workloads sor ocean --cmps 2 4``): 38 specs requested, 26
#: distinct, 23–34 s of serial simulation on a shared 2-CPU host
FIG_KERNELS = ("sor", "ocean")
FIG_CMPS = (2, 4)
SMOKE_FIG_KERNELS = ("fft",)
SMOKE_FIG_CMPS = (2,)


class FigPanel(NamedTuple):
    figures: Tuple[str, ...]    #: figure functions, in request order
    kernels: Tuple[str, ...]
    cmps: Tuple[int, ...]


def fig_panel(seed: int, smoke: bool = False) -> FigPanel:
    """The panel for ``seed``: which figures are regenerated, in which
    order, and the order of the kernels and CMP counts within each.

    The seed orders the work but does not choose it.  Even the most
    evenly matched three-kernel panels differ by up to 15% in serial
    cost and by 25% in simulated cycles per host second, so a seeded
    choice of kernels would make the spread over seeds measure the draw
    instead of the host.
    """
    rng = random.Random(f"fig-batch:{seed}")
    figures, kernels, cmps = (list(FIGURES),
                              list(SMOKE_FIG_KERNELS if smoke else FIG_KERNELS),
                              list(SMOKE_FIG_CMPS if smoke else FIG_CMPS))
    for order in (figures, kernels, cmps):
        rng.shuffle(order)
    return FigPanel(tuple(figures), tuple(kernels), tuple(cmps))


def regenerate(panel: FigPanel, runner) -> list:
    """Run the panel's figure functions through ``runner``, as
    ``python -m repro.experiments`` does; returns each figure's data."""
    previous = figures_module.set_runner(runner)
    try:
        return [getattr(figures_module, name)(list(panel.kernels),
                                              list(panel.cmps))
                for name in panel.figures]
    finally:
        figures_module.set_runner(previous)


class _Declaring:
    """Runner stand-in that collects the specs the figure functions
    request, answering each with a placeholder that holds only the
    result fields figures 1, 4 and 5 read."""

    def __init__(self):
        self.specs: List[RunSpec] = []

    def run_batch(self, specs):
        self.specs.extend(specs)
        return [SimpleNamespace(workload=spec.workload, n_cmps=spec.n_cmps,
                                exec_cycles=1) for spec in specs]


def panel_specs(panel: FigPanel) -> List[RunSpec]:
    """Every spec the panel's figures request, in request order,
    duplicates included — without simulating any of them."""
    declaring = _Declaring()
    regenerate(panel, declaring)
    return declaring.specs


# ----------------------------------------------------------------------
# serve-mix: two clients drawing small specs from one space
# ----------------------------------------------------------------------
SERVE_KERNELS = ("sor", "cg", "fft", "sp", "water-ns", "water-sp")
#: share of requests that repeat one of the previous few
UI_REPEAT = 0.4
UI_RECENT = 6
SWEEP_BATCH = 8
#: load size per second of ``--seconds``: ui requests and sweep batches
#: (150 and 19 for a 15 s run).  The load is a fixed amount of work run
#: to completion — cutting it at a deadline made the share of sweep
#: work that fits, and with it every serve-mix metric, vary by 20%.
UI_PER_SECOND = 10
SWEEP_PER_SECOND = 1.25


def ui_pool() -> List[RunSpec]:
    """Small specs a user pokes at interactively."""
    return [RunSpec(kernel, mode, n)
            for kernel in SERVE_KERNELS
            for mode in ("single", "double", "slipstream")
            for n in (1, 2)]


def spec_trace(stream: str) -> Iterator[RunSpec]:
    """Endless seeded request stream over :func:`ui_pool`.

    A fresh draw walks a seeded permutation of the pool (so every spec
    appears once per cycle and the mix does not drift with the seed);
    with probability :data:`UI_REPEAT` a request instead repeats one of
    the previous :data:`UI_RECENT` requests.
    """
    rng = random.Random(stream)
    recent: deque = deque(maxlen=UI_RECENT)
    cycle: List[RunSpec] = []
    while True:
        if recent and rng.random() < UI_REPEAT:
            spec = rng.choice(list(recent))
        else:
            if not cycle:
                cycle = ui_pool()
                rng.shuffle(cycle)
            spec = cycle.pop()
        recent.append(spec)
        yield spec


def serve_load(seed: int, seconds: float, smoke: bool = False):
    """``(ui requests, sweep batches)`` for a run of ``seconds``: ``ui``
    takes single requests from one seeded trace, and ``sweep`` cuts a
    second trace into batches of :data:`SWEEP_BATCH`."""
    n_ui = 6 if smoke else max(1, round(UI_PER_SECOND * seconds))
    n_sweep = 1 if smoke else max(1, round(SWEEP_PER_SECOND * seconds))
    sweep = list(itertools.islice(spec_trace(f"sweep:{seed}"),
                                  n_sweep * SWEEP_BATCH))
    return (list(itertools.islice(spec_trace(f"ui:{seed}"), n_ui)),
            [sweep[i:i + SWEEP_BATCH]
             for i in range(0, len(sweep), SWEEP_BATCH)])


def recorded_specs() -> List[RunSpec]:
    """Every spec whose digest ``expected.json`` records (the fuzz runs
    of :data:`RECORDED_FUZZ_SEEDS` are recorded beside them)."""
    return list(dict.fromkeys(
        [MICRO_SPEC] + panel_specs(fig_panel(0))
        + panel_specs(fig_panel(0, smoke=True)) + ui_pool()))
