"""Tests for speculative barrier-entry replay (extension; negative result).

Replaying the next session's pattern while still *waiting at the barrier*
re-introduces exactly the premature-prefetch hazard the paper's A-R token
protocol exists to avoid: producers for that session may not have finished
writing.  The extension is kept (with its measurement) as a documented
negative result.
"""

from repro.config import MachineConfig, scaled_config
from repro.experiments.driver import run_mode
from repro.slipstream.arsync import G1
from repro.workloads import make
from repro.workloads.sor import SOR


def cfg():
    return MachineConfig(n_cmps=2, l1_size=2048, l2_size=16384)


def test_speculative_implies_forwarding():
    result = run_mode(SOR(rows=32, cols=32, iterations=2), cfg(),
                      "slipstream", policy=G1, speculative_barriers=True)
    assert result.pattern_lines_recorded > 0


def test_speculative_issues_more_prefetches_than_plain_forwarding():
    config = scaled_config(4)
    plain = run_mode(make("mg"), config, "slipstream", policy=G1,
                     forwarding=True)
    spec = run_mode(make("mg"), config, "slipstream", policy=G1,
                    speculative_barriers=True)
    assert spec.forwarded_prefetches > plain.forwarded_prefetches


def test_speculative_replays_counted():
    from repro.machine.system import System
    # counted through the run result indirectly: just assert it completes
    result = run_mode(SOR(rows=32, cols=32, iterations=3), cfg(),
                      "slipstream", policy=G1, speculative_barriers=True)
    assert result.exec_cycles > 0


def test_speculative_off_by_default():
    result = run_mode(SOR(rows=32, cols=32, iterations=2), cfg(),
                      "slipstream", policy=G1, forwarding=True)
    # plain forwarding never replays at barrier entry; determinism holds
    again = run_mode(SOR(rows=32, cols=32, iterations=2), cfg(),
                     "slipstream", policy=G1, forwarding=True)
    assert result.exec_cycles == again.exec_cycles
