"""slipbench: the repository's one benchmark.

Four seeded workloads measure what a user of this repository waits for —
a simulation, a figure batch, a served request — end to end, and a
separate traced pass attributes that host time to the simulator's
layers.  Everything is measured from outside the program, through its
public entry points; nothing under ``src/`` knows the benchmark exists.

Run ``python -m benchmarks.slipbench --help`` from the repository root;
README.md in this directory explains the workloads and metrics.
"""

from pathlib import Path

#: directory holding this package (``benchmarks/slipbench``)
HERE = Path(__file__).resolve().parent
#: repository (or checkout) root: BENCHMARK.json and ``src/`` live here
ROOT = HERE.parent.parent
#: the program under test
SRC = ROOT / "src"
