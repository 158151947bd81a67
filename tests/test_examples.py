"""Smoke tests that keep the example scripts from rotting.

Each example runs as a real subprocess (the way a user runs it); the
slowest sweep (`paper_headline.py` without --quick) is exercised only via
its --quick path.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, *args: str, timeout: int = 420) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "speedup vs single" in out
    assert "A-stream activity" in out


def test_workload_atlas():
    out = run_example("workload_atlas.py", "--tasks", "4")
    for name in ("sor", "fft", "water-ns"):
        assert name in out


def test_mode_advisor_small():
    out = run_example("mode_advisor.py", "sor", "--cmps", "2")
    assert "best mode" in out
    assert "double" in out or "slip" in out


def test_coherence_microscope():
    out = run_example("coherence_microscope.py")
    assert "prefetch only" in out
    assert "self-invalidation" in out
    assert "transparent loads:" in out


def test_dynamic_scheduling():
    out = run_example("dynamic_scheduling.py")
    recoveries = [int(n) for n in re.findall(r"A-stream recoveries: (\d+)",
                                             out)]
    # divergent, benign, forwarded — in that order
    assert len(recoveries) == 3
    assert recoveries[0] >= 1
    assert recoveries[1:] == [0, 0]


@pytest.mark.slow
def test_extensions_tour():
    out = run_example("extensions_tour.py")
    assert "pattern forwarding" in out
    assert "speculative barriers" in out


@pytest.mark.slow
def test_paper_headline_quick():
    out = run_example("paper_headline.py", "--quick", timeout=600)
    assert "slipstream beats both conventional modes" in out
