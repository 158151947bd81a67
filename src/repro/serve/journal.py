"""Fsync'd append-only write-ahead journal for accepted serving jobs.

The service's durability contract mirrors the paper's own recovery
story: slipstream rebuilds a deviated A-stream from the R-stream's
*committed* state, and the serving layer rebuilds its in-flight work
from the journal's committed records.  Every admitted job passes through
three record types, keyed by the spec's content-addressed cache key
(:meth:`RunSpec.key`); a request the Runner's memo answers at admission
is never admitted, so it writes none:

* ``accepted`` — written (and fsync'd) *before* the job is enqueued:
  the write-ahead rule.  Carries the full JSON spec and the submitting
  client, so a restarted service can rebuild the job from the record
  alone;
* ``started`` — the job entered an execution wave (diagnostic: a
  recovered job with ``started`` died mid-simulation, one without died
  queued);
* ``resolved`` — the job finished (``done``/``failed``/``timeout``).
  Written after the Runner's result cache was updated, so ``resolved``
  implies a successful job's result is durable in the cache.

On startup :meth:`JobJournal.recover` scans every segment: jobs with an
``accepted`` but no ``resolved`` record are *unresolved* and get
re-admitted by the service; resolved jobs need nothing (their results
live in the result cache).  Because the simulator is deterministic,
re-executing an unresolved job yields a result bit-identical to the one
the crashed process would have produced.

Record framing is one line per record::

    <crc32-hex> <canonical-json>\\n

The CRC plus the trailing newline make torn writes detectable: a crash
mid-append leaves a partial or checksum-broken final line, which
recovery drops (and truncates away) without touching earlier records.
A checksum failure *before* the final record means real corruption; the
scan stops at the first bad record and reports how many lines it could
not trust rather than guessing.

Segments rotate every ``segment_max_records`` appends
(``wal-000001.log``, ``wal-000002.log``, ...).  Compaction — at
recovery and whenever rotation leaves more than ``compact_segments``
sealed segments — rewrites the unresolved jobs into a single fresh
segment and deletes the old files, bounding journal growth by the
number of *live* jobs rather than total traffic.

Fault injection: an optional :class:`~repro.faults.harness.HarnessChaos`
arms the append-path crash points (``before-write`` / ``torn-write`` /
``after-write``), raising
:class:`~repro.faults.harness.SimulatedCrash` exactly where ``kill -9``
could land.  The recovery tests drive all three.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.harness import HarnessChaos, SimulatedCrash

#: journal on-disk format version (recorded in every line's payload
#: envelope is overkill; a mismatched segment is simply unreadable by
#: CRC or shape and reported as corrupt)
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: job record types, in lifecycle order
ACCEPTED, STARTED, RESOLVED = "accepted", "started", "resolved"


def _segment_index(path: Path) -> int:
    return int(path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (durability of create/delete/rename)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:                                    # pragma: no cover
        return
    try:
        os.fsync(fd)
    except OSError:                                    # pragma: no cover
        pass
    finally:
        os.close(fd)


@dataclass
class JournalEntry:
    """Replay state of one journaled job."""

    key: str
    spec: Dict[str, object]
    client: str = "anon"
    status: str = ACCEPTED          #: accepted | started | <resolved status>
    resolved: bool = False
    error_type: Optional[str] = None
    #: trace identity of the accepting request (None when tracing was
    #: off) — replay re-admits under the same trace_id so a recovered
    #: job's spans join the original request's trace
    trace_id: Optional[str] = None


@dataclass
class JournalReplay:
    """What :meth:`JobJournal.recover` found on disk."""

    #: accepted-but-unresolved jobs, in acceptance order (key -> entry)
    unresolved: Dict[str, JournalEntry] = field(default_factory=dict)
    #: resolved jobs (key -> final status)
    resolved: Dict[str, str] = field(default_factory=dict)
    records: int = 0                #: well-formed records scanned
    torn: int = 0                   #: trailing torn/partial records dropped
    corrupt: int = 0                #: mid-file lines failing the checksum
    segments: int = 0               #: segment files scanned


class JobJournal:
    """Append-only, checksummed, fsync'd job journal with rotation.

    Not thread-safe by design: the service appends from its event loop
    only.  ``fsync=False`` trades durability for speed in tests.
    """

    def __init__(self, root: str | Path, segment_max_records: int = 256,
                 fsync: bool = True, compact_segments: int = 4,
                 chaos: Optional[HarnessChaos] = None):
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        if compact_segments < 1:
            raise ValueError("compact_segments must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_records = segment_max_records
        self.fsync = fsync
        self.compact_segments = compact_segments
        self.chaos = chaos
        self._fh = None
        self._seq = 0               #: monotonically increasing record id
        self._segment_index = 0
        self._segment_records = 0
        #: live replay state, kept current so rotation can compact
        self._entries: Dict[str, JournalEntry] = {}
        # counters for /metrics
        self.appended = 0
        self.rotations = 0
        self.compactions = 0
        self.torn_dropped = 0
        self.corrupt_records = 0

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------
    def _segments(self) -> List[Path]:
        return sorted(self.root.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"),
                      key=_segment_index)

    def _segment_path(self, index: int) -> Path:
        return self.root / f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"

    def _open_segment(self, index: int) -> None:
        self._close_fh()
        self._segment_index = index
        self._segment_records = 0
        self._fh = open(self._segment_path(index), "ab")
        _fsync_dir(self.root)

    def _close_fh(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> JournalReplay:
        """Scan all segments, rebuild job state, truncate any torn tail,
        compact, and open the journal for appending.

        Idempotent: recovering an already-clean journal changes nothing
        but the compaction layout.
        """
        replay = JournalReplay()
        segments = self._segments()
        replay.segments = len(segments)
        for position, path in enumerate(segments):
            last = position == len(segments) - 1
            self._scan_segment(path, last, replay)
        self._entries = dict(replay.unresolved)
        self._seq = replay.records
        self.torn_dropped += replay.torn
        self.corrupt_records += replay.corrupt
        # Compact on every recovery: the live set is typically tiny
        # compared to the record stream, and starting from one dense
        # segment keeps restart-after-restart bounded.
        if segments:
            self._compact()
        else:
            self._open_segment(1)
        return replay

    def _scan_segment(self, path: Path, last: bool,
                      replay: JournalReplay) -> None:
        raw = path.read_bytes()
        good_bytes = 0
        for line in raw.split(b"\n"):
            if not line:
                good_bytes += 1          # the newline itself
                continue
            record = self._decode(line)
            if record is None:
                # Torn tail (no trailing newline after a partial write)
                # or checksum breakage.  In the last segment's final
                # position this is the expected kill -9 signature; any
                # other location is corruption.  Either way nothing
                # after it can be trusted — stop scanning this segment.
                if last and raw.endswith(line):
                    replay.torn += 1
                    self._truncate(path, good_bytes)
                else:
                    replay.corrupt += 1
                return
            good_bytes += len(line) + 1
            replay.records += 1
            self._apply(record, replay)

    @staticmethod
    def _decode(line: bytes) -> Optional[Dict[str, object]]:
        head, sep, body = line.partition(b" ")
        if not sep:
            return None
        try:
            if int(head.decode("ascii"), 16) != zlib.crc32(body):
                return None
            record = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    @staticmethod
    def _apply(record: Dict[str, object], replay: JournalReplay) -> None:
        kind, key = record.get("type"), record.get("key")
        if not isinstance(key, str):
            return
        if kind == ACCEPTED:
            if key not in replay.unresolved:
                # A re-acceptance after an earlier resolution re-opens
                # the key: the latest record wins, in stream order.
                replay.resolved.pop(key, None)
                trace_id = record.get("trace_id")
                replay.unresolved[key] = JournalEntry(
                    key=key, spec=record.get("spec") or {},
                    client=str(record.get("client", "anon")),
                    trace_id=str(trace_id) if trace_id else None)
        elif kind == STARTED:
            entry = replay.unresolved.get(key)
            if entry is not None:
                entry.status = STARTED
        elif kind == RESOLVED:
            entry = replay.unresolved.pop(key, None)
            status = str(record.get("status", "done"))
            replay.resolved[key] = status
            if entry is not None:
                entry.resolved = True
                entry.status = status
        # unknown record types: skip (forward compatibility)

    def _truncate(self, path: Path, good_bytes: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(good_bytes)
            if self.fsync:
                os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def accepted(self, key: str, spec: Dict[str, object],
                 client: str = "anon",
                 trace_id: Optional[str] = None) -> None:
        """Write-ahead record: call *before* enqueuing the job.

        ``trace_id`` is recorded only when tracing supplied one, so an
        untraced service's journal stays byte-identical to the
        pre-tracing format.
        """
        record = {"type": ACCEPTED, "key": key, "spec": spec,
                  "client": client}
        if trace_id is not None:
            record["trace_id"] = trace_id
        self._append(record)
        self._entries[key] = JournalEntry(key=key, spec=spec, client=client,
                                          trace_id=trace_id)
        self._maybe_rotate()

    def started(self, key: str) -> None:
        self._append({"type": STARTED, "key": key})
        entry = self._entries.get(key)
        if entry is not None:
            entry.status = STARTED
        self._maybe_rotate()

    def resolved(self, key: str, status: str = "done",
                 error_type: Optional[str] = None) -> None:
        record = {"type": RESOLVED, "key": key, "status": status}
        if error_type is not None:
            record["error"] = error_type
        self._append(record)
        self._entries.pop(key, None)
        self._maybe_rotate()

    def _append(self, record: Dict[str, object]) -> None:
        if self._fh is None:
            self.recover()
        self._seq += 1
        record["seq"] = self._seq
        body = json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode()
        line = b"%08x %s\n" % (zlib.crc32(body), body)
        token = f"{self._seq}:{record.get('type')}:{record.get('key')}"
        chaos = self.chaos
        if chaos is not None and chaos.journal_crash("before-write", token):
            raise SimulatedCrash(f"journal crash before writing {token}")
        if chaos is not None and chaos.journal_crash("torn-write", token):
            # Half the line reaches the disk; no newline, broken CRC —
            # exactly what a power cut mid-write leaves behind.
            self._fh.write(line[:max(1, len(line) // 2)])
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            raise SimulatedCrash(f"journal crash mid-write of {token}")
        self._fh.write(line)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += 1
        self._segment_records += 1
        if chaos is not None and chaos.journal_crash("after-write", token):
            # The record is durable but the caller never hears back.
            raise SimulatedCrash(f"journal crash after writing {token}")

    # ------------------------------------------------------------------
    # Rotation and compaction
    # ------------------------------------------------------------------
    def _maybe_rotate(self) -> None:
        """Rotate after the caller's live-entry bookkeeping is current.

        Deliberately *not* inside :meth:`_append`: compaction rewrites
        ``self._entries``, so rotating between the append and the
        caller's entry update would compact a stale live set and delete
        the segment holding the record that was just written.
        """
        if self._segment_records >= self.segment_max_records:
            self._rotate()

    def _rotate(self) -> None:
        self.rotations += 1
        if len(self._segments()) >= self.compact_segments:
            self._compact()
        else:
            self._open_segment(self._segment_index + 1)

    def _compact(self) -> None:
        """Rewrite the live (unresolved) jobs into one fresh segment and
        delete every older one.  Crash-safe ordering: the new segment is
        complete and fsync'd before any old segment is removed, so a
        crash mid-compaction leaves duplicates (harmless — replay
        dedups on key), never losses."""
        self.compactions += 1
        old = self._segments()
        self._open_segment(_segment_index(old[-1]) + 1 if old else 1)
        for entry in self._entries.values():
            self._seq += 1
            record = {"type": ACCEPTED, "key": entry.key,
                      "spec": entry.spec, "client": entry.client,
                      "seq": self._seq, "compacted": True}
            if entry.trace_id is not None:
                record["trace_id"] = entry.trace_id
            body = json.dumps(record, sort_keys=True,
                              separators=(",", ":")).encode()
            self._fh.write(b"%08x %s\n" % (zlib.crc32(body), body))
            self._segment_records += 1
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        for path in old:
            path.unlink(missing_ok=True)
        _fsync_dir(self.root)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._close_fh()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def live(self) -> int:
        """Unresolved jobs currently tracked."""
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters for the serving layer's ``/metrics`` re-export."""
        return {"appended": self.appended, "rotations": self.rotations,
                "compactions": self.compactions, "live": self.live,
                "segments": len(self._segments()),
                "torn_dropped": self.torn_dropped,
                "corrupt_records": self.corrupt_records}

    def __repr__(self) -> str:
        return (f"<JobJournal {self.root} live={self.live} "
                f"appended={self.appended}>")
