"""Columnar working memory on POSIX shared memory.

:class:`ColumnarWorkingMemory` is a drop-in :class:`~repro.wm.memory.WorkingMemory`
whose authoritative storage is *struct-of-arrays*: per class, one shared
timestamp column, one liveness column, and one value column per attribute,
all living in named POSIX shared-memory segments owned by the parent
process. A small append-only **delta journal** (also a shared segment)
records every assert/retract as a fixed 16-byte ``(op, class, row)``
record.

Why: the process-parallel match backend used to ship pickled WM deltas to
every worker every cycle — at million-WME scale the priming delta alone is
tens of megabytes *per worker*. With the columnar store a worker
**attaches** the segments once (a name lookup + mmap), scans the liveness
column to prime its alpha memories, and thereafter refreshes from the shared
journal; the per-cycle pipe message shrinks to a few dozen bytes of
cursors (see ``benchmarks/wm_microbench.py`` for the measured ratio).

Layout (all names prefixed by the store's random token)::

    {tok}j{gen}            journal: 16-byte records ``<IIQ`` (op, class, row)
    {tok}h{gen}            heap: ``u32`` length-prefixed UTF-8 blobs
    {tok}c{cid}g{gen}t     class ``cid`` timestamps: ``int64[cap]``
    {tok}c{cid}g{gen}l     class ``cid`` liveness:   ``u8[cap]``
    {tok}c{cid}g{gen}a{i}  class ``cid`` attr column ``i``:
                           ``int64 payload[cap]`` then ``u8 tag[cap]``

Value slots are a tag byte plus a 64-bit payload: ints inline (arbitrary
precision overflows to the heap as decimal text), floats as IEEE-754 bit
patterns, symbols as heap offsets (interned once per distinct string —
equality probes compare offsets for free). Tag 0 means *absent*, so a
freshly zeroed column reads as "attribute never assigned", which is what
lets new attribute columns appear mid-run without rewriting old rows.

Design rules that keep cross-process readers trivial:

- **Rows are append-only.** A retract flips liveness to 0; the row's
  content is never reused. Journal records therefore stay valid for
  lagging readers and respawned workers forever.
- **Growth is re-generation.** When a class (or the heap, or the journal)
  outgrows its segment, the parent allocates a doubled segment under the
  next generation name, copies, and unlinks the old name. Attached readers
  keep their (still-mapped) old generation until the next cycle message
  tells them the new generation; they then re-attach by name. Unlink only
  removes the name — existing mappings stay readable.
- **The parent is the only writer**, and engines never mutate working
  memory while a match is in flight, so readers need no locks: every
  refresh happens against a quiescent store, bounded by the explicit
  ``(journal length, heap length)`` cursors in the cycle message.
- **Crash cleanup** is layered: ``close()`` unlinks everything; a
  ``weakref.finalize`` guard (pid-checked, so forked workers cannot
  destroy the parent's segments) unlinks on garbage collection or
  interpreter exit; and if the process dies uncleanly, the stdlib
  ``resource_tracker`` unlinks the leaked names. As the last layer, the
  store's token embeds the owner pid (``pwm<pid:08x>p<random>``), so the
  shm janitor (:mod:`repro.resilience.janitor` — run by
  ``scripts/check.sh`` and ``parulel janitor``) can reclaim segments
  whose owner died by SIGKILL without touching live ones.

The dict-backed parent index (class buckets of live WME objects) is kept
alongside the columns: the parent needs real :class:`~repro.wm.wme.WME`
objects for listeners, conflict sets and queries anyway, so queries,
listener semantics, timestamp allocation and ``dump_records()`` round-trips
are *byte-identical* to the dict store by construction — the property suite
in ``tests/wm/test_columnar.py`` asserts it operation by operation.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import struct
import weakref
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkingMemoryError
from repro.lang.ast import Value
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import NIL, WME

__all__ = [
    "ColumnarWorkingMemory",
    "ColumnarReader",
    "SEGMENT_PREFIX",
    "parse_owner_pid",
]

#: Every segment name starts with this; the resilience janitor (and the
#: check.sh gate) sweeps leaked ones whose owner is gone.
SEGMENT_PREFIX = "pwm"


def parse_owner_pid(name: str, prefix: str = SEGMENT_PREFIX) -> Optional[int]:
    """The owner pid embedded in a segment name, or ``None`` for a foreign
    name (one this format did not produce — the janitor never touches
    those). Tokens are ``<prefix><pid:08x>p<random hex>``; the literal
    ``p`` separator cannot collide with the pid-less names of old stores,
    whose 9th body character is a segment-kind letter (``j``/``h``/``c``)."""
    if not name.startswith(prefix):
        return None
    body = name[len(prefix):]
    if len(body) < 9 or body[8] != "p":
        return None
    try:
        return int(body[:8], 16)
    except ValueError:
        return None

# -- value slot encoding ------------------------------------------------------

_ABSENT, _INT, _FLOAT, _SYM, _BIG, _BOOL = 0, 1, 2, 3, 4, 5
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Journal record: op (0=add, 1=remove), class id, row index.
_JREC = struct.Struct("<IIQ")
JOURNAL_RECORD_SIZE = _JREC.size  # 16

_OP_ADD, _OP_REMOVE = 0, 1

#: Initial capacities (rows / bytes); every exhaustion doubles.
_INITIAL_ROWS = 1024
_INITIAL_HEAP = 1 << 16
_INITIAL_JOURNAL_RECORDS = 4096


class _Seg:
    """One POSIX shared-memory segment plus the memoryviews carved from it.

    Opened with ``_posixshmem.shm_open`` + ``os.ftruncate`` + ``mmap``
    rather than the stdlib's ``SharedMemory`` class, whose module imports
    :mod:`secrets` (and through it ``hashlib`` and OpenSSL's libcrypto) to
    generate names this store always chooses itself. The resource-tracker
    protocol is the stdlib's: ``register`` on create and on attach,
    ``unregister`` after an unlink. The shm descriptor is closed as soon as
    the mapping exists (``mmap`` keeps its own duplicate, which
    :meth:`close` — or collection — releases with the mapping).

    Tracks derived views so :meth:`close` can release them first —
    ``mmap.close`` refuses while exported views are alive.
    """

    __slots__ = ("name", "size", "_mmap", "buf", "_views")

    def __init__(self, name: str, size: int = 0, create: bool = False) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        except OSError:
            if create:
                _posixshmem.shm_unlink("/" + name)
            raise
        finally:
            os.close(fd)
        resource_tracker.register("/" + name, "shared_memory")
        self.name = name
        self.size = size
        self.buf = memoryview(self._mmap)
        self._views: List[memoryview] = []

    def view(self, start: int, stop: int, fmt: Optional[str] = None) -> memoryview:
        mv = self.buf[start:stop]
        if fmt is not None:
            mv = mv.cast(fmt)
        self._views.append(mv)
        return mv

    def close(self) -> None:
        for mv in self._views:
            mv.release()
        self._views.clear()
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        try:
            _posixshmem.shm_unlink("/" + self.name)
        except FileNotFoundError:
            # Already swept externally (janitor, chaos fault). Drop the
            # stale tracker entry anyway, or the resource tracker warns
            # (and re-unlinks the missing name) at interpreter exit.
            pass
        resource_tracker.unregister("/" + self.name, "shared_memory")


def _encode_value(intern: Callable[[str], int], val: Value) -> Tuple[int, int]:
    """``(tag, int64 payload)`` for one attribute value."""
    if isinstance(val, bool):  # before int: bool is an int subclass
        return _BOOL, int(val)
    if isinstance(val, int):
        if _I64_MIN <= val <= _I64_MAX:
            return _INT, val
        return _BIG, intern(str(val))
    if isinstance(val, float):
        return _FLOAT, struct.unpack("<q", struct.pack("<d", val))[0]
    if isinstance(val, str):
        return _SYM, intern(val)
    raise WorkingMemoryError(
        f"columnar store cannot encode attribute value {val!r} "
        f"(symbols, ints and floats only)"
    )


def _decode_value(resolve: Callable[[int], str], tag: int, payload: int) -> Value:
    if tag == _INT:
        return payload
    if tag == _SYM:
        return resolve(payload)
    if tag == _FLOAT:
        return struct.unpack("<d", struct.pack("<q", payload))[0]
    if tag == _BOOL:
        return bool(payload)
    if tag == _BIG:
        return int(resolve(payload))
    raise WorkingMemoryError(f"corrupt column slot: tag {tag}")


def _cleanup_segments(owner_pid: int, segs: Dict[str, _Seg]) -> None:
    """Finalizer: unlink every still-live segment — but only in the process
    that created them (a forked worker inherits the finalizer and must NOT
    tear the parent's store down when it exits)."""
    if os.getpid() != owner_pid:
        return
    for seg in segs.values():
        try:
            seg.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        seg.unlink()
    segs.clear()


# -- parent-side tables -------------------------------------------------------


class _ColumnTable:
    """Parent-side writer for one class's columns."""

    __slots__ = (
        "store", "cid", "name", "gen", "cap", "rows",
        "attr_order", "col_of", "seg_t", "seg_l", "seg_cols",
        "ts_col", "live_col", "payload_cols", "tag_cols", "row_by_ts",
    )

    def __init__(self, store: "ColumnarWorkingMemory", cid: int, name: str) -> None:
        self.store = store
        self.cid = cid
        self.name = name
        self.gen = 0
        self.cap = store.initial_capacity
        self.rows = 0
        #: Attribute names in column order (column i ↔ attr_order[i]).
        self.attr_order: List[str] = []
        #: Attribute name -> column index (the inverse of ``attr_order``).
        self.col_of: Dict[str, int] = {}
        self.seg_cols: List[_Seg] = []
        self.payload_cols: List[memoryview] = []
        self.tag_cols: List[memoryview] = []
        #: Live timestamp -> row, for O(1) retract.
        self.row_by_ts: Dict[int, int] = {}
        self.seg_t, self.ts_col = self._new_ts_seg(self.gen, self.cap)
        self.seg_l, self.live_col = self._new_live_seg(self.gen, self.cap)

    # segment builders ------------------------------------------------------

    def _seg_name(self, gen: int, suffix: str) -> str:
        return f"{self.store.token}c{self.cid}g{gen}{suffix}"

    def _new_ts_seg(self, gen: int, cap: int) -> Tuple[_Seg, memoryview]:
        seg = self.store._create_seg(self._seg_name(gen, "t"), cap * 8)
        return seg, seg.view(0, cap * 8, "q")

    def _new_live_seg(self, gen: int, cap: int) -> Tuple[_Seg, memoryview]:
        seg = self.store._create_seg(self._seg_name(gen, "l"), cap)
        return seg, seg.view(0, cap)

    def _new_attr_seg(
        self, gen: int, cap: int, idx: int
    ) -> Tuple[_Seg, memoryview, memoryview]:
        seg = self.store._create_seg(self._seg_name(gen, f"a{idx}"), cap * 9)
        return seg, seg.view(0, cap * 8, "q"), seg.view(cap * 8, cap * 9)

    # writes ----------------------------------------------------------------

    def add_column(self, attr: str) -> int:
        idx = len(self.attr_order)
        self.attr_order.append(attr)
        self.col_of[attr] = idx
        seg, payload, tags = self._new_attr_seg(self.gen, self.cap, idx)
        self.seg_cols.append(seg)
        self.payload_cols.append(payload)
        self.tag_cols.append(tags)
        self.store._mark_dirty(self.cid)
        return idx

    def grow(self) -> None:
        """Double capacity under the next generation; copy, unlink old."""
        old_gen, old_cap = self.gen, self.cap
        self.gen += 1
        self.cap = old_cap * 2

        seg_t, ts_col = self._new_ts_seg(self.gen, self.cap)
        seg_t.buf[: old_cap * 8] = self.seg_t.buf[: old_cap * 8]
        seg_l, live_col = self._new_live_seg(self.gen, self.cap)
        seg_l.buf[:old_cap] = self.seg_l.buf[:old_cap]
        new_cols: List[Tuple[_Seg, memoryview, memoryview]] = []
        for idx, old_seg in enumerate(self.seg_cols):
            seg, payload, tags = self._new_attr_seg(self.gen, self.cap, idx)
            seg.buf[: old_cap * 8] = old_seg.buf[: old_cap * 8]
            tag_off = self.cap * 8
            seg.buf[tag_off : tag_off + old_cap] = old_seg.buf[
                old_cap * 8 : old_cap * 9
            ]
            new_cols.append((seg, payload, tags))

        self.store._drop_seg(self.seg_t)
        self.store._drop_seg(self.seg_l)
        for old_seg in self.seg_cols:
            self.store._drop_seg(old_seg)
        self.seg_t, self.ts_col = seg_t, ts_col
        self.seg_l, self.live_col = seg_l, live_col
        self.seg_cols = [seg for seg, _, _ in new_cols]
        self.payload_cols = [p for _, p, _ in new_cols]
        self.tag_cols = [t for _, _, t in new_cols]
        self.store._mark_dirty(self.cid)
        del old_gen  # name unlinked above; nothing else references it

    def append(self, wme: WME) -> int:
        if self.rows == self.cap:
            self.grow()
        row = self.rows
        self.rows = row + 1
        self.ts_col[row] = wme.timestamp
        self.live_col[row] = 1
        col_of = self.col_of
        intern = self.store._intern
        for attr, val in wme.items():
            idx = col_of.get(attr)
            if idx is None:
                idx = self.add_column(attr)
            tag, payload = _encode_value(intern, val)
            self.payload_cols[idx][row] = payload
            self.tag_cols[idx][row] = tag
        self.row_by_ts[wme.timestamp] = row
        return row

    def retract(self, timestamp: int) -> int:
        row = self.row_by_ts.pop(timestamp)
        self.live_col[row] = 0
        return row

    def spec(self) -> Tuple:
        """Structural record shipped to readers:
        ``(cid, name, gen, cap, attrs, rows)``."""
        return (
            self.cid,
            self.name,
            self.gen,
            self.cap,
            tuple(self.attr_order),
            self.rows,
        )


class ColumnarWorkingMemory(WorkingMemory):
    """The :class:`WorkingMemory` API over shared columnar pages.

    Observably identical to the dict store (same listeners, timestamps,
    iteration order, ``dump_records`` bytes); additionally exposes the
    shared-attach protocol the process match pool uses:

    - :meth:`attach_spec` — full structural snapshot for a (re)spawned
      worker's :class:`ColumnarReader`;
    - :meth:`cycle_info` — per-cycle cursors plus the structural records
      that changed since the last call (usually none).
    """

    is_shared = True

    def __init__(
        self,
        templates: Optional[TemplateRegistry] = None,
        initial_capacity: int = _INITIAL_ROWS,
    ) -> None:
        super().__init__(templates)
        if initial_capacity < 1:
            raise WorkingMemoryError("initial_capacity must be >= 1")
        self.initial_capacity = initial_capacity
        # The owner pid rides in the token so the shm janitor can prove a
        # segment orphaned (owner dead) without a /proc-wide maps scan.
        self.token = (
            f"{SEGMENT_PREFIX}{os.getpid() & 0xFFFFFFFF:08x}p{os.urandom(4).hex()}"
        )
        self._segs: Dict[str, _Seg] = {}
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, self._owner_pid, self._segs
        )
        self._tables: Dict[str, _ColumnTable] = {}
        self._tables_by_id: List[_ColumnTable] = []
        self._dirty: Dict[int, None] = {}  # ordered set of dirty class ids

        # String heap (interned symbols / big ints).
        self._heap_gen = 0
        self._heap_cap = _INITIAL_HEAP
        self._heap_used = 0
        self._heap_seg = self._create_seg(
            f"{self.token}h{self._heap_gen}", self._heap_cap
        )
        self._interned: Dict[str, int] = {}

        # Delta journal.
        self._journal_gen = 0
        self._journal_cap = _INITIAL_JOURNAL_RECORDS
        self._journal_len = 0
        self._journal_seg = self._create_seg(
            f"{self.token}j{self._journal_gen}",
            self._journal_cap * JOURNAL_RECORD_SIZE,
        )
        self._closed = False

    # -- segment bookkeeping -------------------------------------------------

    def _create_seg(self, name: str, size: int) -> _Seg:
        seg = _Seg(name, size=size, create=True)
        self._segs[name] = seg
        return seg

    def _drop_seg(self, seg: _Seg) -> None:
        self._segs.pop(seg.name, None)
        seg.close()
        seg.unlink()

    def _mark_dirty(self, cid: int) -> None:
        self._dirty[cid] = None

    # -- heap ----------------------------------------------------------------

    def _intern(self, text: str) -> int:
        off = self._interned.get(text)
        if off is not None:
            return off
        raw = text.encode("utf-8")
        need = 4 + len(raw)
        while self._heap_used + need > self._heap_cap:
            self._grow_heap(need)
        off = self._heap_used
        buf = self._heap_seg.buf
        struct.pack_into("<I", buf, off, len(raw))
        buf[off + 4 : off + 4 + len(raw)] = raw
        self._heap_used = off + need
        self._interned[text] = off
        return off

    def _grow_heap(self, need: int) -> None:
        new_cap = self._heap_cap * 2
        while new_cap < self._heap_used + need:
            new_cap *= 2
        self._heap_gen += 1
        new_seg = self._create_seg(f"{self.token}h{self._heap_gen}", new_cap)
        new_seg.buf[: self._heap_used] = self._heap_seg.buf[: self._heap_used]
        self._drop_seg(self._heap_seg)
        self._heap_seg = new_seg
        self._heap_cap = new_cap

    # -- journal -------------------------------------------------------------

    def _journal_append(self, op: int, cid: int, row: int) -> None:
        if self._journal_len == self._journal_cap:
            self._grow_journal()
        _JREC.pack_into(
            self._journal_seg.buf,
            self._journal_len * JOURNAL_RECORD_SIZE,
            op,
            cid,
            row,
        )
        self._journal_len += 1

    def _grow_journal(self) -> None:
        new_cap = self._journal_cap * 2
        self._journal_gen += 1
        new_seg = self._create_seg(
            f"{self.token}j{self._journal_gen}", new_cap * JOURNAL_RECORD_SIZE
        )
        used = self._journal_len * JOURNAL_RECORD_SIZE
        new_seg.buf[:used] = self._journal_seg.buf[:used]
        self._drop_seg(self._journal_seg)
        self._journal_seg = new_seg
        self._journal_cap = new_cap

    # -- WorkingMemory overrides ---------------------------------------------

    def _table(self, class_name: str) -> _ColumnTable:
        table = self._tables.get(class_name)
        if table is None:
            cid = len(self._tables_by_id)
            table = _ColumnTable(self, cid, class_name)
            self._tables[class_name] = table
            self._tables_by_id.append(table)
            self._mark_dirty(cid)
        return table

    def _insert(self, wmes: Sequence[WME]) -> None:
        # Duplicate detection happens in super()._insert; probe the whole
        # batch first so a rejected insert leaves no orphan row behind.
        by_class = self._by_class
        for wme in wmes:
            bucket = by_class.get(wme.class_name)
            if bucket is not None and wme in bucket:
                raise WorkingMemoryError(f"duplicate WME {wme!r}")
        for wme in wmes:
            table = self._table(wme.class_name)
            row = table.append(wme)
            self._journal_append(_OP_ADD, table.cid, row)
        super()._insert(wmes)

    def remove_batch(self, wmes: Sequence[WME]) -> None:
        # The columns retract the same prefix the buckets will: up to the
        # first absent WME, on which super() raises.
        by_class = self._by_class
        for wme in wmes:
            bucket = by_class.get(wme.class_name)
            if bucket is None or wme not in bucket:
                break
            table = self._tables[wme.class_name]
            row = table.retract(wme.timestamp)
            self._journal_append(_OP_REMOVE, table.cid, row)
        super().remove_batch(wmes)

    # -- shared-attach protocol ----------------------------------------------

    def attach_spec(self) -> Tuple:
        """Complete structural snapshot: everything a fresh reader needs to
        attach and build a replica, including the journal cursor to resume
        from. Must be taken while the store is quiescent (the match phase)."""
        return (
            self.token,
            (self._journal_gen, self._journal_len),
            (self._heap_gen, self._heap_used),
            tuple(table.spec() for table in self._tables_by_id),
        )

    def cycle_info(self) -> Tuple:
        """Per-cycle refresh cursors plus drained structural changes:
        ``((jgen, jlen), (hgen, hused), changed-class specs)``. A few dozen
        bytes in steady state — the whole point of the columnar store."""
        dirty = tuple(self._tables_by_id[cid].spec() for cid in self._dirty)
        self._dirty.clear()
        return (
            (self._journal_gen, self._journal_len),
            (self._heap_gen, self._heap_used),
            dirty,
        )

    def refresh_info(self) -> Tuple:
        """Like :meth:`cycle_info` but without draining structural changes —
        for catching up a worker that just attached via a full
        :meth:`attach_spec` (the spec already carries all structure)."""
        return (
            (self._journal_gen, self._journal_len),
            (self._heap_gen, self._heap_used),
            (),
        )

    @property
    def journal_len(self) -> int:
        return self._journal_len

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Live segment names (tests and leak checks)."""
        return tuple(self._segs)

    @property
    def shared_bytes(self) -> int:
        """Total bytes currently allocated in shared segments."""
        return sum(seg.size for seg in self._segs.values())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release and unlink every shared segment (idempotent). Only the
        owning process may close; forked children inherit the object but
        their ``close`` is a no-op."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        self._finalizer.detach()
        for table in self._tables_by_id:
            table.ts_col = table.live_col = None  # drop cast views
            table.payload_cols = []
            table.tag_cols = []
        for seg in list(self._segs.values()):
            seg.close()
            seg.unlink()
        self._segs.clear()


# -- worker-side reader -------------------------------------------------------


class _ReaderTable:
    """Worker-side view of one class's columns."""

    __slots__ = (
        "token", "cid", "name", "gen", "cap", "attr_order",
        "segs", "ts_col", "live_col", "payload_cols", "tag_cols",
        "wme_by_row", "rows_known", "_col_of",
    )

    def __init__(self, token: str, spec: Tuple) -> None:
        self.token = token
        self.segs: List[_Seg] = []
        self.wme_by_row: Dict[int, WME] = {}
        #: Row high-water mark as of the last structural spec / journal
        #: record seen — the range a column scan may read without racing
        #: past the parent's cursors.
        self.rows_known = 0
        self._mount(spec)

    def _mount(self, spec: Tuple) -> None:
        cid, name, gen, cap, attrs, rows = spec
        self.cid, self.name, self.gen, self.cap = cid, name, gen, cap
        self.attr_order = list(attrs)
        self._col_of = {a: i for i, a in enumerate(attrs)}
        if rows > self.rows_known:
            self.rows_known = rows
        base = f"{self.token}c{cid}g{gen}"
        # Mount all-or-nothing: close whatever mapped if a later segment
        # is gone (unlinked mid-run), so no exported views leak. self.segs
        # is only replaced on success (refresh_structure keeps the old
        # mounts when a re-mount fails).
        opened: List[_Seg] = []
        payload_cols: List = []
        tag_cols: List = []
        try:
            seg_t = _Seg(f"{base}t")
            opened.append(seg_t)
            seg_l = _Seg(f"{base}l")
            opened.append(seg_l)
            ts_col = seg_t.view(0, cap * 8, "q")
            live_col = seg_l.view(0, cap)
            for idx in range(len(self.attr_order)):
                seg = _Seg(f"{base}a{idx}")
                opened.append(seg)
                payload_cols.append(seg.view(0, cap * 8, "q"))
                tag_cols.append(seg.view(cap * 8, cap * 9))
        except Exception:
            for seg in opened:
                seg.close()
            raise
        self.ts_col = ts_col
        self.live_col = live_col
        self.payload_cols = payload_cols
        self.tag_cols = tag_cols
        self.segs = opened

    def refresh_structure(self, spec: Tuple) -> None:
        """Re-attach after growth or new columns (row→WME map survives)."""
        _cid, _name, gen, cap, attrs, _rows = spec
        if gen == self.gen and len(attrs) == len(self.attr_order):
            return
        old_segs = self.segs
        self._mount(spec)
        for seg in old_segs:
            seg.close()

    def materialize(self, resolve: Callable[[int], str], row: int) -> WME:
        attrs: Dict[str, Value] = {}
        for idx, attr in enumerate(self.attr_order):
            tag = self.tag_cols[idx][row]
            if tag == _ABSENT:
                continue
            attrs[attr] = _decode_value(resolve, tag, self.payload_cols[idx][row])
        return WME(self.name, attrs, self.ts_col[row])

    def col_of(self, attr: str) -> Optional[int]:
        """Column index of ``attr``, or ``None`` when no row ever set it
        (reads as absent). Resolved at call time — columns can appear
        mid-run."""
        return self._col_of.get(attr)

    def cell(self, resolve: Callable[[int], str], row: int, attr: str) -> Value:
        """Decode one attribute of one row without building the WME
        (``"nil"`` for absent — the same reading ``WME.get`` gives)."""
        idx = self._col_of.get(attr)
        if idx is None:
            return NIL
        tag = self.tag_cols[idx][row]
        if tag == _ABSENT:
            return NIL
        return _decode_value(resolve, tag, self.payload_cols[idx][row])

    def close(self) -> None:
        for seg in self.segs:
            seg.close()
        self.segs = []


class ColumnarReader:
    """A worker's attachment to a :class:`ColumnarWorkingMemory`.

    Construction mounts the columns as of the attach spec: per class, rows
    below :attr:`_ReaderTable.rows_known` are readable, row order is
    timestamp order (exactly the bucket order a delta-built replica would
    have) and the liveness column says which still exist.
    :meth:`refresh_raw` advances over the shared journal to the cursors in
    the parent's cycle message. Nothing is materialized by either; callers
    (:class:`~repro.match.alphaindex.ColumnVectorCache`) decode rows on
    demand through :meth:`_ReaderTable.materialize` / ``cell``.
    """

    def __init__(self, spec: Tuple) -> None:
        token, journal, heap, class_specs = spec
        self.token = token
        self._journal_gen, self._cursor = journal
        self._heap_gen, self._heap_used = heap
        self._strings: Dict[int, str] = {}
        #: Reverse intern map (text -> heap offset), filled by the
        #: incremental heap walk. Heap offsets are stable across heap
        #: generations (growth copies the used prefix verbatim), so the
        #: walk cursor and both maps survive re-generation.
        self._offsets: Dict[str, int] = {}
        self._heap_walked = 0
        self._nil_off: Optional[int] = None
        self._tables: Dict[int, _ReaderTable] = {}
        self._cid_by_name: Dict[str, int] = {
            cspec[1]: cspec[0] for cspec in class_specs
        }
        # Attach all-or-nothing: if any segment is gone (e.g. unlinked by
        # a fault mid-run), release whatever did map before re-raising —
        # a half-attached reader abandoned un-closed would leak exported
        # views into interpreter shutdown.
        self._heap_seg = _Seg(f"{token}h{self._heap_gen}")
        try:
            self._journal_seg = _Seg(f"{token}j{self._journal_gen}")
            try:
                for cspec in class_specs:
                    self._tables[cspec[0]] = _ReaderTable(token, cspec)
            except Exception:
                for table in self._tables.values():
                    table.close()
                self._journal_seg.close()
                raise
        except Exception:
            self._heap_seg.close()
            raise

    # -- heap ----------------------------------------------------------------

    def _resolve(self, off: int) -> str:
        text = self._strings.get(off)
        if text is None:
            buf = self._heap_seg.buf
            (length,) = struct.unpack_from("<I", buf, off)
            text = bytes(buf[off + 4 : off + 4 + length]).decode("utf-8")
            self._strings[off] = text
        return text

    def ensure_interned(self) -> None:
        """Walk the heap suffix appended since the last walk, filling both
        the forward (offset -> text) and reverse (text -> offset) maps.

        The heap is append-only and offsets never move across generations,
        so a single sequential cursor covers it; the walk is O(new bytes)
        and a no-op in steady state.
        """
        off, used = self._heap_walked, self._heap_used
        if off >= used:
            return
        buf = self._heap_seg.buf
        strings, offsets = self._strings, self._offsets
        while off < used:
            (length,) = struct.unpack_from("<I", buf, off)
            text = bytes(buf[off + 4 : off + 4 + length]).decode("utf-8")
            strings[off] = text
            offsets[text] = off
            off += 4 + length
        self._heap_walked = off
        self._nil_off = offsets.get(NIL)

    def offset_of(self, text: str) -> Optional[int]:
        """Heap offset of an interned string, or ``None`` if the parent
        never interned it — which proves no stored symbol/bigint equals
        it (the definitive-miss half of the packed-probe protocol)."""
        self.ensure_interned()
        return self._offsets.get(text)

    def nil_offset(self) -> Optional[int]:
        """Offset of the interned ``"nil"`` symbol, if any — stored
        ``nil`` symbols and absent slots must canonicalize to one key."""
        self.ensure_interned()
        return self._nil_off

    # -- structure -----------------------------------------------------------

    def table(self, cid: int) -> Optional[_ReaderTable]:
        return self._tables.get(cid)

    def cid_of(self, class_name: str) -> Optional[int]:
        return self._cid_by_name.get(class_name)

    def _refresh_structure(self, info: Tuple) -> Tuple[int, int]:
        """Re-mount the heap/journal/tables the cursors and dirty specs
        call for. Returns ``(journal stop, start)`` for the record loop."""
        (jgen, jlen), (hgen, hused), dirty = info
        if hgen != self._heap_gen:
            self._heap_seg.close()
            self._heap_seg = _Seg(f"{self.token}h{hgen}")
            self._heap_gen = hgen
            self._strings.clear()
        self._heap_used = hused
        for cspec in dirty:
            cid = cspec[0]
            table = self._tables.get(cid)
            if table is None:
                self._tables[cid] = _ReaderTable(self.token, cspec)
                self._cid_by_name[cspec[1]] = cid
            else:
                table.refresh_structure(cspec)
                if cspec[5] > table.rows_known:
                    table.rows_known = cspec[5]
        if jgen != self._journal_gen:
            self._journal_seg.close()
            self._journal_seg = _Seg(f"{self.token}j{jgen}")
            self._journal_gen = jgen
        start, self._cursor = self._cursor, jlen
        return jlen, start

    # -- protocol ------------------------------------------------------------

    def refresh_raw(
        self,
        info: Tuple,
        on_record: Callable[[bool, int, int], None],
    ) -> int:
        """Apply journal records up to the message's cursors *without
        materializing anything*: ``on_record(added, cid, row)`` per record,
        row high-water marks updated; returns the number of records
        applied. WME construction is deferred until a probe actually needs
        the row (:class:`~repro.match.alphaindex.ColumnVectorCache`)."""
        jlen, start = self._refresh_structure(info)
        applied = 0
        buf = self._journal_seg.buf
        tables = self._tables
        for i in range(start, jlen):
            op, cid, row = _JREC.unpack_from(buf, i * JOURNAL_RECORD_SIZE)
            if op == _OP_ADD:
                table = tables[cid]
                if row >= table.rows_known:
                    table.rows_known = row + 1
            on_record(op == _OP_ADD, cid, row)
            applied += 1
        return applied

    @property
    def cursor(self) -> int:
        return self._cursor

    def close(self) -> None:
        for table in self._tables.values():
            table.close()
        self._tables.clear()
        self._heap_seg.close()
        self._journal_seg.close()
