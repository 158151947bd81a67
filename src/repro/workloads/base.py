"""Workload framework: SPMD operation-stream kernels.

Each workload re-implements the loop structure of one of the paper's nine
benchmarks (Table 2) as an operation-stream generator.  The generator
computes shared-array addresses from the task id and loop indices — the
SPMD property the paper's A-stream accuracy argument rests on — and folds
private computation into ``Compute`` bursts.  A run traces each program
once into an op-tape (:mod:`repro.workloads.tape`) before it starts, so a
program sees only its :class:`TaskContext`, never run-time feedback.

Scaling and granularity (see DESIGN.md):

* problem sizes are scaled down so pure-Python simulation is tractable;
  each workload records the paper's size in :attr:`Workload.paper_size`;
* shared accesses are emitted at **cache-line granularity**: one ``Load``
  or ``Store`` op stands for the element accesses within one line, with
  the per-element arithmetic carried by the accompanying ``Compute``.
  This preserves the miss/sharing behaviour (what the memory system sees)
  at a fraction of the op count.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterator, List, Tuple

from repro.memory.address import SharedAllocator, SharedArray
from repro.runtime import ops as op
from repro.runtime.task import TaskContext

#: elements of 8 bytes per 64-byte cache line
ELEMS_PER_LINE = 8


class Workload(ABC):
    """Base class for the benchmark kernels.

    Subclasses set :attr:`name` / :attr:`paper_size`, implement
    :meth:`allocate` (create shared arrays) and :meth:`program` (yield the
    op stream for one task).  A workload instance is bound to the system it
    was last allocated on; drivers call :meth:`allocate` once per run.
    """

    #: short benchmark name (lower case, as used in figures)
    name: str = "workload"
    #: the data-set size used in the paper (Table 2)
    paper_size: str = ""
    #: True when :meth:`program` is a pure function of ``(task_id,
    #: n_tasks)`` — i.e. it never branches on ``ctx.role`` — so one traced
    #: op-tape (repro.workloads.tape) replays for every stream of a task.
    #: Workloads that deliberately diverge per role (DynSched's divergent
    #: mode) set this False and get one tape per (task, role).
    role_independent: bool = True

    @abstractmethod
    def allocate(self, allocator: SharedAllocator, n_tasks: int,
                 task_home: Callable[[int], int]) -> None:
        """Create this run's shared arrays.

        ``task_home`` maps a task id to its CMP node, for first-touch-style
        placement of task-partitioned data (``allocator.alloc_on``).
        """

    @abstractmethod
    def program(self, ctx: TaskContext) -> Iterator:
        """Yield the operation stream for task ``ctx.task_id``."""

    @property
    def scaled_size(self) -> str:
        """This instance's (scaled) problem parameters, for Table 2."""
        import inspect
        params = inspect.signature(type(self).__init__).parameters
        parts = [f"{name}={getattr(self, name)}" for name in params
                 if name != "self" and hasattr(self, name)
                 and isinstance(getattr(self, name), (int, bool))]
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.scaled_size}>"


# ----------------------------------------------------------------------
# Partitioning / access helpers shared by the kernels
# ----------------------------------------------------------------------
def block_range(total: int, n_parts: int, part: int) -> Tuple[int, int]:
    """Contiguous block partition: half-open range owned by ``part``."""
    if not 0 <= part < n_parts:
        raise ValueError(f"part {part} out of range for {n_parts} parts")
    base = total // n_parts
    extra = total % n_parts
    start = part * base + min(part, extra)
    size = base + (1 if part < extra else 0)
    return start, start + size


def row_lines(array: SharedArray, row: int,
              elems_per_line: int = ELEMS_PER_LINE) -> List[int]:
    """Byte addresses touching each cache line of row ``row`` (2-D array)."""
    cols = array.shape[1]
    return [array.addr(row, col) for col in range(0, cols, elems_per_line)]


def span_lines(array: SharedArray, start: int, stop: int,
               elems_per_line: int = ELEMS_PER_LINE) -> List[int]:
    """Byte addresses touching each line of flat range [start, stop)."""
    first = (start // elems_per_line) * elems_per_line
    return [array.addr_flat(flat)
            for flat in range(first, stop, elems_per_line)]


def load_span(array: SharedArray, start: int, stop: int,
              work_per_elem: int = 0) -> Iterator:
    """Load every line of a flat element range, with optional compute."""
    for addr in span_lines(array, start, stop):
        yield op.Load(addr)
        if work_per_elem:
            yield op.Compute(work_per_elem * ELEMS_PER_LINE)


def update_span(array: SharedArray, start: int, stop: int,
                work_per_elem: int = 0) -> Iterator:
    """Read-modify-write every line of a flat element range."""
    for addr in span_lines(array, start, stop):
        yield op.Load(addr)
        if work_per_elem:
            yield op.Compute(work_per_elem * ELEMS_PER_LINE)
        yield op.Store(addr)


def store_span(array: SharedArray, start: int, stop: int,
               work_per_elem: int = 0) -> Iterator:
    """Store every line of a flat element range."""
    for addr in span_lines(array, start, stop):
        if work_per_elem:
            yield op.Compute(work_per_elem * ELEMS_PER_LINE)
        yield op.Store(addr)


def place_flat_range(allocator: SharedAllocator, array: SharedArray,
                     start: int, stop: int, node: int) -> None:
    """First-touch-style placement: home the pages backing flat element
    range [start, stop) on ``node``.  Partitions sharing a page resolve to
    whichever owner placed it last (a deterministic tie-break)."""
    space = allocator.space
    first_page = space.page_of(array.base + start * array.elem_size)
    last_page = space.page_of(array.base + max(stop * array.elem_size - 1, 0))
    for page in range(first_page, last_page + 1):
        space.place_page(page, node)


def place_rows(allocator: SharedAllocator, array: SharedArray,
               row_start: int, row_stop: int, node: int) -> None:
    """Home the pages backing rows [row_start, row_stop) on ``node``."""
    cols = array.shape[1]
    place_flat_range(allocator, array, row_start * cols, row_stop * cols,
                     node)
