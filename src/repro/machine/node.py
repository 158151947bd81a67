"""CMP node: two processors sharing a unified L2."""

from __future__ import annotations

from typing import List

from repro.config import MachineConfig
from repro.machine.processor import Processor
from repro.memory.l2ctrl import L2Controller
from repro.memory.protocol import CoherenceFabric
from repro.sim import Engine


class CmpNode:
    """One processing node: a dual-processor CMP plus its slice of the
    globally-shared memory (the directory entries homed here live in the
    fabric, the DC resource is ``fabric.dcs[node_id]``)."""

    def __init__(self, engine: Engine, config: MachineConfig, node_id: int,
                 fabric: CoherenceFabric, classifier=None):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.ctrl = L2Controller(engine, config, node_id, fabric,
                                 classifier=classifier)
        self.processors: List[Processor] = [
            Processor(engine, config, self.ctrl, idx)
            for idx in range(config.procs_per_cmp)]

    def processor(self, idx: int) -> Processor:
        return self.processors[idx]

    @property
    def l2(self):
        return self.ctrl.l2
