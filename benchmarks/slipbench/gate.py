"""Correctness gate: every timed output is checked against a digest.

``expected.json`` maps each input the workload generators can draw to
the SHA-256 of its ``deterministic_dict`` (every ``RunResult`` field
except wall time).  It is written by ``python -m benchmarks.slipbench
record-expected`` and keyed by input *content*, never by the
result-cache key: that key hashes the simulator's source, so a pure
speed-up would invalidate it while the results stay bit-identical.

An operation fails when it raises, answers non-200, carries
``result.error``, or its digest differs from the reference.  Inputs
with no recorded digest (``fuzz-share`` at a seed other than the
recorded ones) are referenced against one untimed run under the
invariant sanitizer instead.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from . import HERE

EXPECTED_PATH = HERE / "expected.json"


def canonical(payload: Mapping[str, object]) -> str:
    """Stable text form of an input description (the gate's key)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_key(spec) -> str:
    """Gate key of a :class:`~repro.experiments.runner.RunSpec`."""
    return canonical(spec.as_dict())


def digest(result) -> str:
    """SHA-256 of a result's deterministic fields.

    Accepts a ``RunResult`` or its ``to_dict()`` form (what the service
    puts on the wire); both digest identically.
    """
    from repro.experiments.driver import RunResult
    from repro.serve.service import deterministic_dict

    if not isinstance(result, RunResult):
        result = RunResult.from_dict(result)
    blob = json.dumps(deterministic_dict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_expected() -> Dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())["digests"]


def write_expected(digests: Mapping[str, str]) -> Path:
    EXPECTED_PATH.write_text(json.dumps(
        {"digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    return EXPECTED_PATH


class Gate:
    """Counts attempted and failed operations against reference digests."""

    def __init__(self, expected: Mapping[str, str]):
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        #: first few failure descriptions, for the report
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check(self, key: str, result, label: Optional[str] = None) -> bool:
        """Count one operation that produced ``result`` for input ``key``;
        True when it matches its reference digest."""
        self.attempted += 1
        label = label or key
        error = (result.get("error") if isinstance(result, dict)
                 else result.error)
        if error is not None:
            self.fail(f"{label}: {error}")
            return False
        reference = self.expected.get(key)
        if reference is None:
            self.fail(f"{label}: no reference digest")
            return False
        if digest(result) != reference:
            self.fail(f"{label}: digest mismatch")
            return False
        return True

    def refused(self, label: str, why: str) -> None:
        """Count one operation that never produced a result."""
        self.attempted += 1
        self.fail(f"{label}: {why}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
