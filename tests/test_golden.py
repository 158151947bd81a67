"""Golden corpus: frozen end-states of the simulator across its input space.

``tests/golden_corpus.json`` stores, per case, ``exec_cycles``,
``cache_totals`` and the SHA-256 of the run's ``deterministic_dict``
(every ``RunResult`` field except wall time, hashed with sorted keys and
compact separators exactly as the slipbench gate hashes it).  The
simulator is deterministic, so any drift means a *behavioural* change to
the timing model, the coherence protocol or a workload's op stream —
which must be intentional and re-recorded, never accidental.

The axes (576 cases): the nine tiny kernels, a seeded fuzz program and
the dynamic-scheduling kernel (divergent and with decision forwarding);
eight execution rows; both registered protocols; and three variants —
plain, under the invariant sanitizer, and under the ``chaos`` fault
profile.  :data:`EXTRAS` adds the inputs of the differential tests those
axes miss; the tests that drove them check them (tests/test_tape.py,
tests/test_proto.py).

The committed corpus was recorded while the simulator still had three
implementations of the same machine, and the recorder refused to write
unless all three agreed on every case they could run: tape replay with
the table-driven protocol engine, generator execution with the table
engine, and (under ``dir-inv``) tape replay with the hand-written home
handlers.  The only difference allowed was the ``proto.transition{...}``
metric series, which only the table engine emits.  616 cases, 1,560
runs, and the legs agreed; the generator path and the hand-written
handlers were then deleted, and the divergent DynSched entries, recorded
on the generator path, now replay from per-role tapes.

After an intentional behaviour change, re-record with
``python -m tests.test_golden --record`` and say in the change why the
entries moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, NamedTuple

import pytest

from repro.config import PROTOCOLS, scaled_config
from repro.experiments.driver import run_mode
from repro.faults import FAULT_PROFILES
from repro.serve.service import deterministic_dict
from repro.slipstream.arsync import G0, G1, L0, L1
from repro.workloads import CG, DynSched, Fuzz, SOR, make
from repro.workloads.fft import FFT
from repro.workloads.lu import LU
from repro.workloads.mg import MG
from repro.workloads.ocean import Ocean
from repro.workloads.sp import SP
from repro.workloads.water_nsq import WaterNSquared
from repro.workloads.water_sp import WaterSpatial

CORPUS_PATH = Path(__file__).with_name("golden_corpus.json")

N_CMPS = 2

#: tiny problem instances — a few hundred shared lines each, so every
#: (workload, mode) point simulates in well under a second
TINY = {
    "cg": lambda: CG(n=128, nnz_per_row=4, iterations=2),
    "fft": lambda: FFT(n1=16),
    "lu": lambda: LU(blocks=4, block_elems=8),
    "mg": lambda: MG(size=16, levels=2, cycles=1),
    "ocean": lambda: Ocean(rows=32, cols=24, timesteps=1),
    "sor": lambda: SOR(rows=24, cols=16, iterations=2),
    "sp": lambda: SP(size=8, iterations=2),
    "water-ns": lambda: WaterNSquared(molecules=32, timesteps=1),
    "water-sp": lambda: WaterSpatial(cell_rows=16, cells_per_row=4,
                                     timesteps=1),
}

WORKLOADS = dict(TINY, **{
    "fuzz": lambda: Fuzz(seed=2003, sessions=3, ops_per_session=32),
    # the A-stream takes a different path and is killed and reforked
    "dynsched": lambda: DynSched(chunks=8, chunk_lines=4),
    "dynsched-fwd": lambda: DynSched(chunks=8, chunk_lines=4,
                                     forward_decisions=True),
})

#: row -> (mode, run_mode keyword arguments)
ROWS = {
    "single": ("single", {}),
    "double": ("double", {}),
    "slip-L1": ("slipstream", {"policy": L1}),
    "slip-L0": ("slipstream", {"policy": L0}),
    "slip-G1": ("slipstream", {"policy": G1}),
    "slip-G0": ("slipstream", {"policy": G0}),
    "slip-tsm": ("slipstream", {"transparent": True, "si": True,
                                "migratory": True, "metrics": True}),
    "slip-fsa": ("slipstream", {"forwarding": True,
                                "speculative_barriers": True,
                                "adaptive": True}),
}

#: variant -> MachineConfig overrides
VARIANTS = {
    "plain": {},
    "check": {"check": True},
    "chaos": dict(FAULT_PROFILES["chaos"], faults=True, fault_seed=1,
                  check=True),
}


class Case(NamedTuple):
    workload: Callable
    mode: str
    run_kwargs: Dict[str, object]
    overrides: Dict[str, object]
    n_cmps: int = N_CMPS
    slow: bool = False


CASES: Dict[str, Case] = {
    f"{name}/{row}/{protocol}/{variant}": Case(
        factory, ROWS[row][0], ROWS[row][1],
        dict(VARIANTS[variant], protocol=protocol))
    for name, factory in WORKLOADS.items()
    for row in ROWS
    for protocol in PROTOCOLS
    for variant in VARIANTS
}

#: the former 27 golden pins: (kernel, mode) -> its corpus case
GOLDEN = {(name, mode): f"{name}/{'slip-G1' if mode == 'slipstream' else mode}"
                        f"/dir-inv/plain"
          for name in TINY for mode in ("single", "double", "slipstream")}


def _fuzz(seed):
    return lambda: Fuzz(seed=seed, sessions=3, ops_per_session=32)


#: inputs of the former differential tests that the axes miss
EXTRAS: Dict[str, Case] = {
    **{f"fuzz-{seed}/{mode}/dir-inv/plain": Case(_fuzz(seed), mode, {}, {})
       for seed in (1, 7, 42, 31415)
       for mode in ("single", "double", "slipstream")},
    # the standing micro: default-size ocean on 4 CMPs, slipstream, G1
    "ocean-default@4/slip-G1/dir-inv/plain": Case(
        lambda: make("ocean"), "slipstream", {}, {}, n_cmps=4),
    "cg-nnz8/slip-G1/dir-inv/plain": Case(
        lambda: CG(n=128, iterations=2), "slipstream", {}, {}),
    "sor/slip-si/dir-inv/plain": Case(
        TINY["sor"], "slipstream", {"si": True}, {}),
    "sor/slip-G1/dir-inv/check+metrics": Case(
        TINY["sor"], "slipstream", {"check": True, "metrics": True}, {}),
    "fft/slip-tsm-nometrics/dir-inv/plain": Case(
        TINY["fft"], "slipstream",
        {"transparent": True, "si": True, "migratory": True}, {}),
    "sor-i3/slip-G1/dir-inv/astream-corrupt": Case(
        lambda: SOR(rows=24, cols=16, iterations=3), "slipstream", {},
        dict(faults=True, fault_seed=1, check=True,
             fault_astream_corrupt_rate=0.3)),
    "sor/slip-G1/dir-inv/mixed-faults": Case(
        TINY["sor"], "slipstream", {},
        dict(faults=True, fault_seed=3, check=True,
             fault_net_jitter_rate=0.2, fault_net_jitter_max=40,
             fault_token_loss_rate=0.1, fault_astream_corrupt_rate=0.05,
             fault_cpu_stall_rate=0.005, fault_cpu_stall_cycles=200)),
    # default-size kernels: the nightly (slow) sweep
    **{f"{name}-default/{mode}/dir-inv/plain": Case(
        (lambda name=name: make(name)), mode, {}, {}, slow=True)
       for name in ("fft", "lu", "mg", "ocean", "sp", "water-ns", "water-sp")
       for mode in ("single", "double", "slipstream")},
}

ALL_CASES: Dict[str, Case] = {**CASES, **EXTRAS}

#: RunResult counters the recorder totals, to show the corpus reaches them
EXERCISED = ("recoveries", "astream_corruptions", "policy_switches",
             "forwarded_prefetches", "transparent_replies")


def run_case(case: Case):
    config = scaled_config(case.n_cmps, **case.overrides)
    return run_mode(case.workload(), config, case.mode, **case.run_kwargs)


def digest(data: Dict[str, object]) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def entry_of(result) -> Dict[str, object]:
    return {"exec_cycles": result.exec_cycles,
            "cache_totals": result.cache_totals,
            "sha256": digest(deterministic_dict(result))}


def write_corpus(entries: Dict[str, Dict[str, object]]) -> None:
    """One case per line, sorted, so a re-record diffs case by case."""
    lines = [f"{json.dumps(case_id)}: {json.dumps(entry, sort_keys=True)}"
             for case_id, entry in sorted(entries.items())]
    CORPUS_PATH.write_text('{"cases": {\n' + ",\n".join(lines) + "\n}}\n")


@lru_cache(maxsize=1)
def corpus() -> Dict[str, Dict[str, object]]:
    return json.loads(CORPUS_PATH.read_text())["cases"]


def check(case_id: str):
    """Run one corpus case and assert it reproduces its frozen entry;
    returns the RunResult for further asserts."""
    expected = corpus()[case_id]
    result = run_case(ALL_CASES[case_id])
    got = entry_of(result)
    assert got["exec_cycles"] == expected["exec_cycles"], \
        f"{case_id}: exec_cycles drifted {expected['exec_cycles']} -> " \
        f"{got['exec_cycles']}"
    assert got["cache_totals"] == expected["cache_totals"], \
        f"{case_id}: cache totals drifted"
    assert got["sha256"] == expected["sha256"], \
        f"{case_id}: a deterministic RunResult field drifted"
    return result


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_corpus_covers_exactly_the_cases():
    assert set(corpus()) == set(ALL_CASES)
    assert len(CASES) == 576


@pytest.mark.parametrize("name,mode", sorted(GOLDEN),
                         ids=[f"{n}-{m}" for n, m in sorted(GOLDEN)])
def test_golden_end_state(name, mode):
    """The 27 end-states pinned before the corpus existed."""
    check(GOLDEN[(name, mode)])


@pytest.mark.parametrize("case_id", sorted(set(CASES) - set(GOLDEN.values())))
def test_corpus_entry(case_id):
    check(case_id)


def _sor_numbers(mode):
    return corpus()[GOLDEN[("sor", mode)]]


@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_checkers_do_not_change_golden_numbers(mode):
    """The sanitizer observes; it must never perturb simulated timing."""
    config = scaled_config(N_CMPS, check=True)
    result = run_mode(TINY["sor"](), config, mode)
    expected = _sor_numbers(mode)
    assert result.exec_cycles == expected["exec_cycles"]
    assert result.cache_totals == expected["cache_totals"]
    assert result.check_stats and sum(result.check_stats.values()) > 0


@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_fault_hooks_at_zero_rates_do_not_change_golden_numbers(mode):
    """Installing the fault injector with every rate at zero must be
    timing-neutral: the hooks short-circuit before any RNG draw, so the
    recorded numbers reproduce bit for bit."""
    config = scaled_config(N_CMPS, faults=True)
    result = run_mode(TINY["sor"](), config, mode)
    expected = _sor_numbers(mode)
    assert result.exec_cycles == expected["exec_cycles"]
    assert result.cache_totals == expected["cache_totals"]
    assert result.fault_stats is not None
    assert result.fault_stats["events"] == 0


# ----------------------------------------------------------------------
# Recorder: python -m tests.test_golden --record
# ----------------------------------------------------------------------
def record(out=sys.stdout) -> None:
    """Run every case and rewrite the corpus."""
    entries: Dict[str, Dict[str, object]] = {}
    exercised = dict.fromkeys(EXERCISED, 0)
    start = time.monotonic()
    for case_id, case in ALL_CASES.items():
        result = run_case(case)
        entry = entry_of(result)
        if case.slow:
            entry["slow"] = True
        entries[case_id] = entry
        for name in EXERCISED:
            exercised[name] += getattr(result, name)
    write_corpus(entries)
    print(f"wrote {len(entries)} cases to {CORPUS_PATH} in "
          f"{time.monotonic() - start:.0f} s; exercised: "
          + ", ".join(f"{name} {count}" for name, count in exercised.items()),
          file=out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-run every case and rewrite the corpus")
    if parser.parse_args().record:
        record()
    else:
        parser.print_help()
