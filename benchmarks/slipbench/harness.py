"""Process orchestration: fresh child processes, set-up time, memory.

Each measurement runs the workload in a fresh child process
(``python -m benchmarks.slipbench child ...``).  The child does its
set-up — imports, inputs, the untimed warm-up a one-shot user pays for,
or starting the service — then prints :data:`READY` and starts the
timed loop.  The parent times launch-to-``READY`` as one set-up sample;
it launches :data:`SETUP_SAMPLES` children per run (all but the last
stop after set-up) and reports their median.  Peak RSS is the largest
resident set among every process the run started, children of children
included, read from ``RUSAGE_CHILDREN`` once all have been waited for.

Nothing here imports the program: :func:`check_checkout` must be able to
refuse a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import ROOT, SRC

READY = "slipbench-ready"
SETUP_SAMPLES = 3
#: a child that outlives this is killed (the whole run must end in 180 s)
CHILD_TIMEOUT_S = 170.0
#: where runs write scratch files and traces (inside the checkout)
WORK = ROOT / ".slipbench"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing "
                         f"(run from a full checkout of the repository)")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's ``src`` and root first on the import path."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def calibrate(repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds for a fixed pure-Python loop — a
    host-speed yardstick for normalising numbers taken on other days."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best


def host_fingerprint() -> Dict[str, object]:
    uname = os.uname()
    return {
        "system": uname.sysname, "release": uname.release,
        "machine": uname.machine,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "calibration_s": calibrate(),
    }


def spawn_child(workload: str, seed: int, seconds: float, mode: str,
                smoke: bool, out: Optional[str] = None
                ) -> Tuple[float, Optional[Dict[str, object]]]:
    """Run one child; returns ``(setup seconds, result or None)``."""
    cmd = [sys.executable, "-m", "benchmarks.slipbench", "child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if out is not None:
        cmd += ["--out", out]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    setup = None
    last = None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == READY and setup is None:
                setup = time.perf_counter() - started
            elif line:
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"{workload} child ({mode}) exited with code {code}"
                         + ("" if setup is not None else " before set-up "
                            "finished"))
    result = json.loads(last) if mode != "setup" else None
    return setup, result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, out: Optional[str] = None) -> Dict[str, object]:
    """One driver run: metrics for ``workload`` plus the gate's counts."""
    if trace:
        _, result = spawn_child(workload, seed, seconds, "trace", smoke, out)
        return result
    samples: List[float] = []
    for _ in range(0 if smoke else SETUP_SAMPLES - 1):
        setup, _ = spawn_child(workload, seed, seconds, "setup", smoke)
        samples.append(setup)
    setup, result = spawn_child(workload, seed, seconds, "measure", smoke)
    samples.append(setup)
    result["metrics"]["setup_s"] = statistics.median(samples)
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return result
