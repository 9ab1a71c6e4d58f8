"""Black-box flight recorder: fixed-cost binary ring buffers + crash dumps.

Production engines keep an always-on event journal that survives crashes.
This module provides one: every :class:`~repro.core.engine.ParulelEngine`
owns a :class:`FlightRecorder` (default-enabled, ``--no-flight-recorder``
to opt out) holding one bounded ring per process — the engine writes cycle
boundaries, phase durations, per-rule firings, redaction verdicts,
conflict-set churn, checkpoint writes and fault/recovery events into
its own ring, while each match worker writes rule-level lifecycle records
into a POSIX shared-memory ring the *parent* created and keeps mapped, so
the records survive a worker SIGKILL.

Records are fixed 48-byte packed structs (see :data:`RECORD`). The writer
publishes a monotonically increasing sequence number in the ring header
*after* each record write; the decoder cross-checks the per-slot sequence
against the expected value, so torn writes (a writer killed mid-record)
are detected and skipped rather than decoded as garbage. When the ring
wraps, the oldest records are evicted — the journal is a sliding window,
never an unbounded log.

Segment lifecycle reuses the columnar WM store's machinery: names embed
the owner pid (``pfr<pid:08x>p<hex>``) in the same token format
:func:`repro.wm.columnar.parse_owner_pid` understands, so ``parulel
janitor`` reclaims orphaned recorder segments exactly like orphaned WM
segments, and a pid-guarded :func:`weakref.finalize` unlinks them when the
owning recorder is garbage collected without an explicit ``close()``.
That machinery is imported where a worker ring is created or attached, so
an engine with in-process matching never loads the columnar store.

On any abnormal exit the engine calls :meth:`FlightRecorder.dump`, which
writes a self-contained ``*.blackbox`` file: a JSON header (reason,
config, seed material, best-effort git state, and the rule/string
manifest needed to decode numeric codes) followed by the raw bytes of
every ring. :mod:`repro.obs.blackbox` decodes these into merged causal
timelines, skew analytics and recording diffs.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import tempfile
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.wm.columnar import _Seg

__all__ = [
    "BLACKBOX_MAGIC",
    "EV_ATTACH",
    "EV_CHECKPOINT",
    "EV_CHURN",
    "EV_CYCLE",
    "EV_DUMP",
    "EV_FAULT",
    "EV_FIRE",
    "EV_HALT",
    "EV_MATCH_REPLY",
    "EV_MATCH_REQ",
    "EV_PHASE",
    "EV_REDACT",
    "EV_RULE_BEGIN",
    "EV_RULE_END",
    "EV_WORKER_EXIT",
    "EV_WORKER_START",
    "EV_VECTOR_SCAN",
    "FLIGHT_PREFIX",
    "KIND_NAMES",
    "PHASE_CODES",
    "PHASE_NAMES",
    "DEATH_KINDS",
    "FlightRecorder",
    "FlightRing",
    "default_blackbox_path",
    "flight_owner_pid",
]

# -- record / header layout ---------------------------------------------------

#: One packed event record: seq u64, ts_ns u64 (``time.perf_counter_ns`` —
#: one monotonic base shared by parent and forked workers, so merged
#: timelines interleave correctly), payload a/b i64, cycle u32, kind u16,
#: code u16 (rule id, phase id or interned string id depending on kind),
#: site i16, 6 pad bytes.
RECORD = struct.Struct("<QQqqIHHh6x")
RECORD_SIZE = RECORD.size  # 48

#: Ring header: magic, version, capacity (records), site i32, owner pid,
#: published seq u64, padded to 64 bytes so records start cache-aligned.
HEADER = struct.Struct("<8sIIiIQ32x")
HEADER_SIZE = HEADER.size  # 64
_RING_MAGIC = b"PARULFR1"
_SEQ_OFFSET = 24  # offset of the u64 published-seq field inside HEADER
_SEQ = struct.Struct("<Q")

RING_VERSION = 1
DEFAULT_CAPACITY = 4096
MIN_CAPACITY = 16

# -- event kinds --------------------------------------------------------------

EV_CYCLE = 1  # cycle boundary: a=fired, b=conflict-set size (unfired)
EV_PHASE = 2  # phase complete: code=phase id, a=duration ns
EV_FIRE = 3  # one rule's batch of firings evaluated: code=rule id, a=batch eval ns, b=firings
EV_REDACT = 4  # redaction verdict: a=candidates, b=redacted
# Conflict-set churn at collect: a=fired entries a matcher re-discovered
# and the engine dropped (0 on TREAT outside restore and unblock),
# b=candidates.
EV_CHURN = 5
EV_CHECKPOINT = 6  # checkpoint written: code 0=full, 1=delta
EV_FAULT = 7  # fault / recovery event: code=interned kind, a=site
# Kinds 8 and 9 are retired, not free: dumps written before the runtime
# race sanitizer was removed hold them, and they decode as ``kind#8`` /
# ``kind#9``. Never reuse them.
EV_HALT = 10  # engine halted
EV_DUMP = 11  # blackbox dump about to be written: code=interned reason
EV_WORKER_START = 20  # worker process up: a=pid
EV_WORKER_EXIT = 21  # worker saw "stop"
EV_MATCH_REQ = 22  # match request received: a=deltas shipped (-1: shm refresh)
EV_RULE_BEGIN = 23  # about to match one rule: code=rule id
EV_RULE_END = 24  # rule matched: code=rule id, a=instantiations found
EV_MATCH_REPLY = 25  # reply sent: a=summaries returned
EV_ATTACH = 26  # worker attached to a shared store/ring
EV_VECTOR_SCAN = 27  # vectorized scan batch: a=rows scanned, b=WMEs materialized, code=fallback probes (clamped)

KIND_NAMES: Dict[int, str] = {
    EV_CYCLE: "cycle",
    EV_PHASE: "phase",
    EV_FIRE: "fire",
    EV_REDACT: "redact",
    EV_CHURN: "churn",
    EV_CHECKPOINT: "checkpoint",
    EV_FAULT: "fault",
    EV_HALT: "halt",
    EV_DUMP: "dump",
    EV_WORKER_START: "worker-start",
    EV_WORKER_EXIT: "worker-exit",
    EV_MATCH_REQ: "match-req",
    EV_RULE_BEGIN: "rule-begin",
    EV_RULE_END: "rule-end",
    EV_MATCH_REPLY: "match-reply",
    EV_ATTACH: "attach",
    EV_VECTOR_SCAN: "vector-scan",
}

#: Engine phase ids used as ``code`` on :data:`EV_PHASE` records.
PHASE_NAMES: Tuple[str, ...] = ("match", "redact", "act", "merge")
PHASE_CODES: Dict[str, int] = {name: i for i, name in enumerate(PHASE_NAMES)}

#: Fault kinds that mean a worker died (or was declared dead) — seeing one
#: of these in a cycle's drained fault events triggers a crash dump even
#: though the engine itself keeps running (degraded or respawned).
DEATH_KINDS = frozenset({"kill", "wedge", "respawn"})

#: Segment-name prefix for recorder rings; the token body matches the
#: columnar store's ``<pid:08x>p<hex>`` format so the janitor's owner-pid
#: parsing works unchanged.
FLIGHT_PREFIX = "pfr"

BLACKBOX_MAGIC = b"PBBX0001"

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _clamp_i64(value: int) -> int:
    return _I64_MIN if value < _I64_MIN else (_I64_MAX if value > _I64_MAX else value)


def flight_owner_pid(name: str) -> Optional[int]:
    """Owner pid embedded in a flight-recorder segment name, or ``None``."""
    from repro.wm.columnar import parse_owner_pid

    return parse_owner_pid(name, prefix=FLIGHT_PREFIX)


def default_blackbox_path() -> str:
    """Fallback dump location when the engine config names none: pid-keyed
    under the temp dir, so repeated failures in one process overwrite one
    bounded file instead of accumulating."""
    return os.path.join(tempfile.gettempdir(), f"parulel-{os.getpid()}.blackbox")


def _flight_token() -> str:
    return (
        f"{FLIGHT_PREFIX}{os.getpid() & 0xFFFFFFFF:08x}p{os.urandom(4).hex()}"
    )


# -- the ring -----------------------------------------------------------------


class FlightRing:
    """One bounded event ring over a shared-memory segment, or — not
    ``shared``, or shared memory unavailable — over an anonymous mapping:
    same layout, pages untouched until written, no name another process
    could attach by.

    Writers append under a lock (the threaded match pool writes from many
    threads); the published header sequence makes reads from *other*
    processes safe without one: a decoder sees either the pre- or
    post-publish sequence, and any slot whose stored sequence disagrees
    with the expected one is reported as torn instead of decoded.
    """

    __slots__ = ("_buf", "_cap", "_lock", "_seg", "_seq", "name", "owned", "site")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        site: int = -1,
        shared: bool = True,
    ) -> None:
        capacity = max(int(capacity), MIN_CAPACITY)
        size = HEADER_SIZE + capacity * RECORD_SIZE
        self._seg: Optional[_Seg] = None
        if shared:
            try:
                from repro.wm.columnar import _Seg

                self._seg = _Seg(_flight_token(), size=size, create=True)
            except Exception:  # pragma: no cover - /dev/shm unavailable
                self._seg = None
        self._buf = self._seg.buf if self._seg is not None else mmap.mmap(-1, size)
        self._cap = capacity
        self._seq = 0
        self._lock = threading.Lock()
        self.name: Optional[str] = self._seg.name if self._seg is not None else None
        self.owned = True
        self.site = site
        HEADER.pack_into(
            self._buf, 0, _RING_MAGIC, RING_VERSION, capacity,
            site, os.getpid() & 0xFFFFFFFF, 0,
        )

    @classmethod
    def attach(cls, name: str) -> "FlightRing":
        """Map an existing ring by segment name (worker side). The attached
        ring continues the creator's sequence, so a respawned worker keeps
        appending where its predecessor stopped."""
        from repro.wm.columnar import _Seg

        ring = cls.__new__(cls)
        ring._seg = _Seg(name)
        ring._buf = ring._seg.buf
        magic, version, cap, site, _pid, seq = HEADER.unpack_from(ring._buf, 0)
        if magic != _RING_MAGIC or version != RING_VERSION:
            ring._seg.close()
            raise ValueError(f"segment {name!r} is not a flight ring")
        ring._cap = cap
        ring._seq = seq
        ring._lock = threading.Lock()
        ring.name = name
        ring.owned = False
        ring.site = site
        return ring

    @property
    def shared(self) -> bool:
        return self._seg is not None

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def seq(self) -> int:
        return self._seq

    def append(
        self,
        kind: int,
        cycle: int = 0,
        code: int = 0,
        a: int = 0,
        b: int = 0,
        site: Optional[int] = None,
    ) -> None:
        """Write one record and publish it. Fixed cost: one pack into a
        preallocated slot plus the header-sequence store."""
        with self._lock:
            seq = self._seq
            RECORD.pack_into(
                self._buf,
                HEADER_SIZE + (seq % self._cap) * RECORD_SIZE,
                seq,
                time.perf_counter_ns(),
                _clamp_i64(a),
                _clamp_i64(b),
                cycle & 0xFFFFFFFF,
                kind & 0xFFFF,
                code & 0xFFFF,
                self.site if site is None else site,
            )
            self._seq = seq + 1
            _SEQ.pack_into(self._buf, _SEQ_OFFSET, self._seq)

    def snapshot(self) -> bytes:
        """The raw ring bytes (header + slots), for dumps and decoding.
        Safe to call on a ring another process is writing: torn slots are
        caught by the decoder's sequence check."""
        return bytes(self._buf)

    def close(self) -> None:
        """Release the mapping; the creating side also unlinks the name.
        (Rings owned by a :class:`FlightRecorder` are normally torn down
        by its finalizer instead — double unlink is harmless, ``_Seg``
        swallows the FileNotFoundError and fixes the tracker entry.)"""
        if self._seg is not None:
            try:
                self._seg.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
            if self.owned:
                try:
                    self._seg.unlink()
                except Exception:  # pragma: no cover - teardown best-effort
                    pass
            self._seg = None
            self._buf = b""


def decode_ring(raw: bytes) -> Dict[str, Any]:
    """Decode one ring's raw bytes into records plus loss accounting.

    Returns ``{"site", "capacity", "seq", "dropped", "torn", "records"}``
    where each record is a dict with seq/ts_ns/cycle/kind/code/site/a/b.
    ``dropped`` counts records evicted by wraparound; ``torn`` counts slots
    whose stored sequence disagreed with the expected one (a writer died
    mid-record or the snapshot raced the writer) — those are skipped.
    """
    if len(raw) < HEADER_SIZE:
        raise ValueError("flight ring truncated: no header")
    magic, version, cap, site, pid, seq = HEADER.unpack_from(raw, 0)
    if magic != _RING_MAGIC:
        raise ValueError("flight ring header magic mismatch")
    if version != RING_VERSION:
        raise ValueError(f"flight ring version {version} unsupported")
    if len(raw) < HEADER_SIZE + cap * RECORD_SIZE:
        raise ValueError("flight ring truncated: slot area incomplete")
    count = min(seq, cap)
    first = seq - count
    records: List[Dict[str, int]] = []
    torn = 0
    for expect in range(first, seq):
        off = HEADER_SIZE + (expect % cap) * RECORD_SIZE
        rseq, ts_ns, a, b, cycle, kind, code, rsite = RECORD.unpack_from(raw, off)
        if rseq != expect:
            torn += 1
            continue
        records.append(
            {
                "seq": rseq,
                "ts_ns": ts_ns,
                "cycle": cycle,
                "kind": kind,
                "code": code,
                "site": rsite,
                "a": a,
                "b": b,
            }
        )
    return {
        "site": site,
        "pid": pid,
        "capacity": cap,
        "seq": seq,
        "dropped": first,
        "torn": torn,
        "records": records,
    }


# -- the recorder -------------------------------------------------------------


def _git_state() -> Dict[str, str]:
    """Best-effort HEAD sha/ref read straight from ``.git`` (no subprocess);
    empty dict when not in a git checkout."""
    d = os.getcwd()
    for _ in range(16):
        git = os.path.join(d, ".git")
        if os.path.isdir(git):
            try:
                with open(os.path.join(git, "HEAD")) as fh:
                    head = fh.read().strip()
            except OSError:
                return {}
            state = {"head": head}
            if head.startswith("ref: "):
                ref = head[5:]
                try:
                    with open(os.path.join(git, ref)) as fh:
                        state["sha"] = fh.read().strip()
                except OSError:
                    pass
            else:
                state["sha"] = head
            return state
        parent = os.path.dirname(d)
        if parent == d:
            break
        d = parent
    return {}


class FlightRecorder:
    """Owns the engine's main ring plus one shared ring per worker site,
    the rule/string manifest needed to decode them, and the dump writer.

    The parent creates worker rings up front (names embed the *parent*
    pid, so the janitor keeps them while the engine lives and reclaims
    them if the whole parent is SIGKILLed) and keeps them mapped; workers
    attach by name and write. A killed worker therefore loses nothing —
    the parent snapshots its ring straight out of shared memory.

    The main ring is written and read by this process only, so it is not
    a segment: creating one starts the stdlib resource tracker — a second
    interpreter that boots while the engine runs its first cycles, on the
    same CPU as often as not. An engine with in-process matching therefore
    starts no helper process.
    """

    def __init__(
        self,
        rule_names: Sequence[str] = (),
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.origin_ns = time.perf_counter_ns()
        self.created_unix = time.time()
        self._rule_ids: Dict[str, int] = {
            name: i for i, name in enumerate(rule_names) if i < 0xFFFF
        }
        self._rules: List[str] = list(rule_names)[:0xFFFF]
        self._strings: List[str] = ["?"]
        self._string_ids: Dict[str, int] = {"?": 0}
        self._capacity = max(int(capacity), MIN_CAPACITY)
        self.ring = FlightRing(self._capacity, site=-1, shared=False)
        self._worker_rings: Dict[int, FlightRing] = {}
        self._segs: Dict[str, _Seg] = {}
        #: Set with the first worker ring (:meth:`create_worker_ring`).
        self._finalizer: Optional[weakref.finalize] = None
        self.enabled = True

    # -- manifest ---------------------------------------------------------

    def rule_id(self, name: str) -> int:
        rid = self._rule_ids.get(name)
        if rid is None:
            if len(self._rules) >= 0xFFFF:
                return 0
            rid = len(self._rules)
            self._rules.append(name)
            self._rule_ids[name] = rid
        return rid

    def intern(self, text: str) -> int:
        """Intern a short string (fault kind, dump reason) to a u16 code."""
        sid = self._string_ids.get(text)
        if sid is None:
            if len(self._strings) >= 0xFFFF:
                return 0
            sid = len(self._strings)
            self._strings.append(text)
            self._string_ids[text] = sid
        return sid

    def manifest(self) -> Dict[str, Any]:
        return {
            "rules": list(self._rules),
            "strings": list(self._strings),
            "phases": list(PHASE_NAMES),
            "kinds": {str(num): name for num, name in KIND_NAMES.items()},
        }

    # -- recording --------------------------------------------------------

    def record(
        self,
        kind: int,
        cycle: int = 0,
        code: int = 0,
        a: int = 0,
        b: int = 0,
        site: int = -1,
    ) -> None:
        self.ring.append(kind, cycle, code, a, b, site=site)

    def record_fault(self, kind: str, site: Optional[int], cycle: int) -> None:
        """Fault injection or recovery action (respawn, degrade), by kind name."""
        s = site if isinstance(site, int) else -1
        self.record(EV_FAULT, cycle, code=self.intern(kind), a=s, site=s)

    # -- worker rings -----------------------------------------------------

    def create_worker_ring(self, site: int) -> Optional[str]:
        """Create (or reuse) the shared ring for one worker site and return
        its segment name, or ``None`` when shared memory is unavailable —
        workers then simply run unrecorded."""
        ring = self._worker_rings.get(site)
        if ring is None:
            ring = FlightRing(self._capacity, site=site, shared=True)
            if not ring.shared:
                return None
            if self._finalizer is None:
                from repro.wm.columnar import _cleanup_segments

                # Janitor-of-last-resort: unlink the worker rings' segments
                # when the recorder is dropped without close(), but never
                # from a forked child.
                self._finalizer = weakref.finalize(
                    self, _cleanup_segments, os.getpid(), self._segs
                )
            self._worker_rings[site] = ring
            self._segs[ring.name] = ring._seg  # type: ignore[index]
        return ring.name

    def worker_spec(self, site: int, rule_names: Sequence[str]) -> Optional[Tuple[str, Dict[str, int]]]:
        """The ``(segment name, rule-id map)`` shipped to one worker at
        spawn, or ``None`` when the site has no shared ring."""
        name = self.create_worker_ring(site)
        if name is None:
            return None
        return name, {rn: self.rule_id(rn) for rn in rule_names}

    # -- dumping ----------------------------------------------------------

    def dump(
        self,
        path: str,
        reason: str = "manual",
        info: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Write a self-contained ``*.blackbox`` post-mortem file.

        Layout: magic, u64 JSON-header length, JSON header (reason,
        manifest, environment, ring index), then each ring's raw bytes
        back to back. Atomic via rename so a crash during the dump never
        leaves a half-written file at the target path.
        """
        self.record(EV_DUMP, code=self.intern(reason[:200]))
        rings = [self.ring] + [
            self._worker_rings[s] for s in sorted(self._worker_rings)
        ]
        blobs = [r.snapshot() for r in rings]
        header: Dict[str, Any] = {
            "version": 1,
            "reason": reason,
            "created_unix": time.time(),
            "origin_ns": self.origin_ns,
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "python": sys.version.split()[0],
            "git": _git_state(),
            "manifest": self.manifest(),
            "rings": [
                {"site": r.site, "name": r.name, "length": len(blob)}
                for r, blob in zip(rings, blobs)
            ],
        }
        if info:
            header["info"] = dict(info)
        import json  # only a dump writes JSON: a clean run never loads it

        payload = json.dumps(header, default=repr).encode("utf-8")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(BLACKBOX_MAGIC)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
        return path

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release and unlink every owned segment (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()
        self._worker_rings.clear()
        self.ring._seg = None
        self.ring._buf = b""
        self.enabled = False


class NullFlightRecorder:
    """Disabled stand-in mirroring the NULL_TRACER/NULL_METRICS idiom for
    call sites that prefer a null object over an ``is not None`` guard."""

    enabled = False

    def record(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def record_fault(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


NULL_FLIGHTREC = NullFlightRecorder()
