"""Task identity and context.

A :class:`TaskContext` is what a workload program sees: its task id, the
total task count, and (in slipstream mode) which stream it is.  Programs
must derive *all* control flow and addressing from the context and private
state — that is the SPMD property the paper's A-stream accuracy argument
rests on.  Programs are traced to op-tapes before the run starts, so no
run-time value (such as an Input's result) can reach them.
"""

from __future__ import annotations

from dataclasses import dataclass

ROLE_NORMAL = "N"      # single/double mode task
ROLE_R = "R"           # slipstream full task
ROLE_A = "A"           # slipstream reduced task


@dataclass
class TaskContext:
    """Runtime identity handed to a workload program."""

    task_id: int
    n_tasks: int
    role: str = ROLE_NORMAL

    def __post_init__(self) -> None:
        if not 0 <= self.task_id < self.n_tasks:
            raise ValueError(
                f"task_id {self.task_id} out of range for {self.n_tasks} tasks")
        if self.role not in (ROLE_NORMAL, ROLE_R, ROLE_A):
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def is_astream(self) -> bool:
        return self.role == ROLE_A
