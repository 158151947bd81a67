"""Edge-case tests for the run driver and task context plumbing."""

import pytest

from repro.config import MachineConfig
from repro.experiments.driver import _task_home, run_mode
from repro.runtime.task import TaskContext
from repro.workloads.sor import SOR


def cfg(n=2):
    return MachineConfig(n_cmps=n, l1_size=2048, l2_size=16384)


def test_max_cycles_truncates_run():
    full = run_mode(SOR(rows=32, cols=32, iterations=2), cfg(), "single")
    cut = run_mode(SOR(rows=32, cols=32, iterations=2), cfg(), "single",
                   max_cycles=full.exec_cycles // 3)
    assert cut.exec_cycles <= full.exec_cycles // 3


def test_double_scatter_placement():
    home = _task_home("double", 4)
    assert [home(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_single_placement_identity():
    home = _task_home("single", 4)
    assert [home(i) for i in range(4)] == [0, 1, 2, 3]


def test_task_context_validation():
    with pytest.raises(ValueError):
        TaskContext(4, 4)
    with pytest.raises(ValueError):
        TaskContext(0, 2, role="Q")


def test_mean_breakdowns_average_over_tasks():
    result = run_mode(SOR(rows=32, cols=32, iterations=1), cfg(), "double")
    mean = result.mean_task_breakdown
    per_task = [b.busy for b in result.task_breakdowns]
    assert mean.busy == sum(per_task) // len(per_task)


def test_result_label_formats():
    single = run_mode(SOR(rows=32, cols=32, iterations=1), cfg(), "single")
    assert single.label() == "sor/single@2"
