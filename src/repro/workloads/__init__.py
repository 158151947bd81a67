"""The nine benchmark kernels of Table 2, plus a synthetic divergent one.

Every kernel is an SPMD operation-stream program; see
:mod:`repro.workloads.base` for the framework and the scaling rules.

:data:`REGISTRY` maps benchmark names to factories producing
default-configured instances (the sizes used by the experiment drivers).
"""

from repro.workloads.base import Workload
from repro.workloads.cg import CG
from repro.workloads.tape import OpTape, TapeCache, compile_program
from repro.workloads.tracefile import TraceWorkload, dump_trace
from repro.workloads.dynsched import DynSched
from repro.workloads.fft import FFT
from repro.workloads.fuzz import Fuzz
from repro.workloads.lu import LU
from repro.workloads.mg import MG
from repro.workloads.ocean import Ocean
from repro.workloads.sor import SOR
from repro.workloads.sp import SP
from repro.workloads.water_nsq import WaterNSquared
from repro.workloads.water_sp import WaterSpatial

#: name -> zero-argument factory with the default (scaled) problem size
REGISTRY = {
    "cg": CG,
    "fft": FFT,
    "fuzz": Fuzz,
    "lu": LU,
    "mg": MG,
    "ocean": Ocean,
    "sor": SOR,
    "sp": SP,
    "water-ns": WaterNSquared,
    "water-sp": WaterSpatial,
}

#: the paper's benchmark order in Figures 5-7
PAPER_ORDER = ("cg", "fft", "lu", "mg", "ocean", "sor", "sp",
               "water-ns", "water-sp")


def make(name: str) -> Workload:
    """Instantiate a benchmark by name with its default scaled size."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{sorted(REGISTRY)}") from None
    return factory()


__all__ = ["PAPER_ORDER", "REGISTRY", "OpTape", "TapeCache",
           "TraceWorkload", "Workload", "compile_program", "dump_trace",
           "make",
           "CG", "DynSched", "FFT", "Fuzz", "LU", "MG", "Ocean", "SOR",
           "SP", "WaterNSquared", "WaterSpatial"]
