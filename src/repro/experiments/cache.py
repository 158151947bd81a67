"""Content-addressed on-disk cache for simulation results.

Every simulation in this repository is deterministic: a
:class:`~repro.experiments.runner.RunSpec` plus the resolved
:class:`~repro.config.MachineConfig` fully determine the
:class:`~repro.experiments.driver.RunResult`.  That makes results
memoizable — the cache key is a SHA-256 over

* the JSON-able content of the spec,
* the resolved machine configuration (``dataclasses.asdict``),
* a cache-format version (bumped when the serialized
  :class:`RunResult` layout changes), and
* a fingerprint of the simulator's own source tree, so editing any
  ``repro``  module silently invalidates every cached result instead of
  serving numbers a different simulator produced.

Results are stored one JSON file per key (``<key>.json``) under the
cache root; writes go through a temp file + :func:`os.replace` so
concurrent pool workers never observe a half-written entry.  An entry
that exists but fails to deserialize is *quarantined* — renamed to
``<key>.json.corrupt`` — so the miss is taken once and the broken file
is kept for inspection instead of being re-parsed on every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.driver import RunResult

#: bump when the serialized RunResult layout (or key payload) changes
CACHE_FORMAT_VERSION = 7  # v7: three MachineConfig fields removed (the
#                           two execution-path oracles and a dead L1
#                           latency); the key has no tape-format entry

#: default cache location (overridable via the environment or --cache-dir)
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Hash of every ``repro`` source file (path + contents).

    Stable across processes and machines for the same tree; any edit to
    the simulator changes it, which changes every cache key.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def result_key(spec, config) -> str:
    """Stable content hash of ``(spec, resolved config, format version,
    source fingerprint)``; the cache filename stem."""
    payload = {
        "format": CACHE_FORMAT_VERSION,
        # Covers the tape compiler too: any change to how programs are
        # traced or replayed changes this fingerprint.
        "source": source_fingerprint(),
        "spec": spec.as_dict(),
        "config": dataclasses.asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Directory of ``<key>.json`` files mapping cache keys to results.

    ``get`` returns ``None`` (a miss) for absent *or* unreadable entries,
    so a corrupt file degrades to re-simulation, never to an error.
    Entries that are present but fail to deserialize are additionally
    quarantined (renamed to ``*.json.corrupt``) so they are not re-read
    and re-rejected on every subsequent run.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        #: guards the counters: a Runner reads and writes entries from
        #: several threads at once
        self._lock = threading.Lock()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            result = RunResult.from_dict(data)
        except OSError:
            # Absent (the common miss) or unreadable: nothing to quarantine.
            self._count("misses")
            return None
        except (ValueError, TypeError, KeyError, AttributeError):
            # The file exists but its content is broken (AttributeError:
            # valid JSON that is not an object reaches from_dict, which
            # calls .items() on it).  Quarantine it: keep the evidence,
            # stop paying the parse failure on every run.
            self._quarantine(path)
            self._count("misses")
            return None
        self._count("hits")
        return result

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
            self._count("quarantined")
        except OSError:
            pass  # racing process already quarantined or removed it

    def put(self, key: str, result: RunResult) -> None:
        """Atomically (and durably) install ``key``'s entry.

        Write-to-temp + ``os.replace`` guarantees no reader — including
        the quarantine path — ever sees a torn entry; the fsync on the
        temp file before the rename (and on the directory after it)
        extends that to power loss: after a crash the entry is either
        absent or complete, never partial under its final name.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # A temp name unique per writer (process and thread): two
        # writers of one key must not replace each other's temp file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(result.to_dict(), sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()
        self._count("writes")

    def _fsync_dir(self) -> None:
        """Best-effort directory fsync so the rename itself is durable."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:                                # pragma: no cover
            return
        try:
            os.fsync(fd)
        except OSError:                                # pragma: no cover
            pass
        finally:
            os.close(fd)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached entry (quarantined files included);
        returns the number of live entries removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.root.glob("*.json.corrupt"):
                path.unlink(missing_ok=True)
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/write/quarantine counters plus the live entry count
        (what the serving layer's ``/metrics`` endpoint exposes)."""
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "writes": self.writes,
                "quarantined": self.quarantined}

    def __repr__(self) -> str:
        return (f"<ResultCache {self.root} entries={len(self)} "
                f"hits={self.hits} misses={self.misses}>")
