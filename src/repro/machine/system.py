"""Full machine assembly.

A :class:`System` wires together the engine, address space, coherence
fabric, CMP nodes, shared allocator, and the request classifier.  It is the
object workloads allocate against and mode runners execute on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import MachineConfig
from repro.machine.node import CmpNode
from repro.machine.processor import Processor
from repro.memory.address import AddressSpace, SharedAllocator
from repro.memory.protocol import CoherenceFabric
from repro.sim import Engine
from repro.stats.classify import RequestClassifier


class System:
    """An ``n_cmps``-node CMP-based DSM multiprocessor."""

    def __init__(self, config: MachineConfig,
                 classify_requests: bool = True,
                 check: Optional[bool] = None,
                 metrics: Optional[bool] = None, observe: bool = False):
        self.config = config
        self.engine = Engine()
        if check is None:
            check = config.check
        if metrics is None:
            metrics = config.metrics
        #: observability spine (repro.obs): the single attachment point
        #: for event subscribers, metrics, and exporters.  Built *before*
        #: the fabric and nodes so they capture ``engine.obs`` (and their
        #: probes) at construction.  ``observe`` forces a spine for
        #: callers that attach their own subscribers or exporters; a
        #: machine built with none of these keeps ``engine.obs is None``
        #: and pays zero overhead.
        self.obs = None
        if check or config.faults or metrics or observe:
            from repro.obs import Observability
            self.obs = self.engine.install_obs(
                Observability(self.engine, metrics=metrics))
        #: invariant-checker suite (repro.check); installed on the engine
        #: *before* the fabric and nodes are built, which is where they
        #: pick up their checker references.  It subscribes to the spine
        #: for the recent events a violation carries.
        self.checker = None
        if check:
            from repro.check import CheckerSuite
            self.checker = CheckerSuite(self.engine)
            self.engine.install_checker(self.checker)
        #: fault injector (repro.faults); like the checker, installed
        #: before the fabric and nodes are built so they capture it
        self.faults = None
        if config.faults:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(config)
            self.engine.install_faults(self.faults)
        self.space = AddressSpace(config.n_cmps, config.line_size,
                                  config.page_size)
        self.allocator = SharedAllocator(self.space)
        self.classifier: Optional[RequestClassifier] = (
            RequestClassifier() if classify_requests else None)
        self.fabric = CoherenceFabric(self.engine, config, self.space)
        self.nodes: List[CmpNode] = [
            CmpNode(self.engine, config, node_id, self.fabric,
                    classifier=self.classifier)
            for node_id in range(config.n_cmps)]

    def processor(self, node_id: int, proc_idx: int) -> Processor:
        return self.nodes[node_id].processor(proc_idx)

    def run(self, until: Optional[int] = None) -> int:
        """Drive the simulation to completion; returns the final cycle."""
        return self.engine.run(until=until)

    def finalize(self) -> None:
        """Resolve end-of-run classification state (call after ``run``)."""
        if self.classifier is None:
            return
        for node in self.nodes:
            node.ctrl.finalize_classification()
        self.classifier.finalize()
