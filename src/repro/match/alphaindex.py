"""The alpha layer: where a CE's candidate WMEs come from and how they are
probed.

One protocol, two implementations, chosen by the kind of store:

*read side* — ``source.memory(ce)`` returns the alpha memory for the CE's
    alpha key: ``probe(attrs, values)`` (the WMEs whose attributes equal
    ``values``), ``probe_exists(attrs, values)`` (bucket non-emptiness,
    nothing materialized), ``__iter__`` and ``__len__``. This is all the
    join enumerator (:mod:`repro.match.join`) uses.
*write side* — ``source.watch(ces, sink)`` primes a memory per CE and from
    then on reports each alpha-passing change, memory already updated:
    ``sink.alpha_added(alpha key, wmes)`` (a batch, in timestamp order) and
    ``sink.alpha_removed(alpha keys, wme)``. This is what feeds TREAT's batched joins.

:class:`AlphaCache`
    over a :class:`~repro.wm.memory.WorkingMemory` (either store, read as
    WME objects): :class:`IndexedMemory` per alpha key, kept current from a
    WM listener. Every in-process matcher and pool, and process workers fed
    pickled deltas.
:class:`ColumnVectorCache`
    over a :class:`~repro.wm.columnar.ColumnarReader`: row-id memories
    evaluated on the shared columns, advanced from the shared journal.
    Process workers attached to a columnar store.

Order is the load-bearing invariant: memories are fed in timestamp order
(working-memory replay and listener order, ascending rows), buckets
preserve insertion order, so probing yields exactly the subsequence a full
scan would. That is what keeps the indexed enumeration byte-identical to
the nested-loop reference and the two implementations to each other — the
differential and conformance tests enforce it.
"""

from __future__ import annotations

import struct
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.match.compile import (
    AlphaKey,
    CompiledCE,
    alpha_test_passes,
    value_hash,
    value_predicate,
)
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import NIL, WME

__all__ = [
    "IndexedMemory",
    "AlphaCache",
    "ColumnProbeIndex",
    "ColumnMemory",
    "ColumnVectorCache",
]

#: An index key: the probed attribute names, in probe order.
IndexAttrs = Tuple[str, ...]


class IndexedMemory:
    """Insertion-ordered WME set with lazily-built hash indexes.

    Each index maps an attribute tuple to ``values-tuple -> holder``, where
    the holder is the WME itself while its key has one member and an
    insertion-ordered dict of them from the second member on (removals
    that leave one member put the lone WME back). Most keys of a selective
    index hold one WME, so most need no bucket at all. Indexes are built on
    first probe of that attribute tuple and maintained incrementally
    afterwards; a probe returns the same subsequence a scan of
    :attr:`wmes` would.

    Thread note: concurrent lazy builds (threaded pool) each construct a
    complete local index before installing it, so readers only ever see a
    finished index; duplicate builds produce identical contents and the
    last install wins.
    """

    __slots__ = ("wmes", "_indexes")

    def __init__(self) -> None:
        #: Ordered set of member WMEs (values unused — membership + order).
        self.wmes: Dict[WME, None] = {}
        self._indexes: Dict[IndexAttrs, Dict[Tuple, _Holder]] = {}

    def add(self, wme: WME) -> None:
        wmes = self.wmes
        size = len(wmes)
        wmes[wme] = None
        if len(wmes) == size:
            return  # already a member
        for attrs, index in self._indexes.items():
            _hold(index, tuple(wme.get(a) for a in attrs), wme)

    def bulk_add(self, wmes: Sequence[WME]) -> None:
        """Add many distinct WMEs at once, preserving their order.

        One C-level dict update enters them as members — all of a fresh
        memory's priming over a large class bucket, which is what makes
        attaching a million-WME store tolerable — and each built index
        takes the batch in one loop of its own.
        """
        members = self.wmes
        if members and self._indexes:
            wmes = [w for w in wmes if w not in members]
        members.update(dict.fromkeys(wmes))
        for attrs, index in self._indexes.items():
            if len(attrs) == 1:
                attr = attrs[0]
                for wme in wmes:
                    _hold(index, (wme.get(attr),), wme)
            else:
                for wme in wmes:
                    _hold(index, tuple([wme.get(a) for a in attrs]), wme)

    def remove(self, wme: WME) -> bool:
        """Drop ``wme``; returns whether it was a member."""
        if wme not in self.wmes:
            return False
        del self.wmes[wme]
        for attrs, index in self._indexes.items():
            key = tuple(wme.get(a) for a in attrs)
            held = index[key]
            if type(held) is not dict:
                del index[key]  # the lone member is this WME
                continue
            del held[wme]
            if len(held) == 1:
                index[key] = next(iter(held))
        return True

    def _index_for(self, attrs: IndexAttrs) -> Dict[Tuple, _Holder]:
        index = self._indexes.get(attrs)
        if index is None:
            index = {}
            for wme in self.wmes:
                _hold(index, tuple(wme.get(a) for a in attrs), wme)
            self._indexes[attrs] = index
        return index

    def probe(self, attrs: IndexAttrs, values: Tuple) -> Sequence[WME]:
        """WMEs whose ``attrs`` equal ``values``, in insertion order."""
        held = self._index_for(attrs).get(values)
        if held is None:
            return ()
        return tuple(held) if type(held) is dict else (held,)

    def probe_exists(self, attrs: IndexAttrs, values: Tuple) -> bool:
        """Whether any member has ``attrs`` equal to ``values``, without
        materializing them — the negated-CE existence check when no
        residual tests remain (a key is deleted with its last member)."""
        return self._index_for(attrs).get(values) is not None

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    def __contains__(self, wme: WME) -> bool:
        return wme in self.wmes

    def __len__(self) -> int:
        return len(self.wmes)

    def __iter__(self) -> Iterator[WME]:
        return iter(self.wmes)


#: What an :class:`IndexedMemory` index holds under one key: the lone
#: member, or an insertion-ordered dict of two or more.
_Holder = Union[WME, Dict[WME, None]]


def _hold(index: Dict[Tuple, _Holder], key: Tuple, wme: WME) -> None:
    """Add ``wme`` (not yet held) under ``key``, after the key's members."""
    held = index.get(key)
    if held is None:
        index[key] = wme
    elif type(held) is dict:
        held[wme] = None
    else:
        index[key] = {held: None, wme: None}


class AlphaCache:
    """Shared alpha memories over a working memory, lazily primed.

    ``memory(ce)`` returns the :class:`IndexedMemory` for the CE's alpha
    key, building it from the current WM contents on first request (in
    timestamp order). Afterwards the cache must be kept current — either
    by calling :meth:`apply` from the owner's own WM listener (the naive
    and TREAT matchers do, so a matcher costs one listener) or by
    :meth:`attach`-ing the cache's own listener (the match pools do).

    ``alpha_tests`` are bumped once per WME per alpha pattern at prime time
    and on each relevant add — not per enumeration request — and carry no
    per-rule attribution: the memories are shared across rules, so there is
    no single rule to charge (see :mod:`repro.match.stats`).
    """

    def __init__(self, wm: WorkingMemory, stats: Optional[MatchStats] = None) -> None:
        self.wm = wm
        self.stats = stats
        self._mems: Dict[AlphaKey, IndexedMemory] = {}
        self._keys_by_class: Dict[str, List[AlphaKey]] = {}
        self._attached = False
        #: Delta sink set by :meth:`watch`.
        self._sink = None

    # -- enumerator protocol -------------------------------------------------

    def memory(self, ce: CompiledCE) -> IndexedMemory:
        key = ce.alpha_key
        mem = self._mems.get(key)
        if mem is None:
            mem = IndexedMemory()
            bucket = self.wm.by_class(ce.class_name)
            if self.stats is not None:
                self.stats.bump("alpha_tests", n=len(bucket))
            if ce.alpha_conds:
                bucket = [w for w in bucket if alpha_test_passes(ce.alpha_conds, w)]
            # One bulk add: for an unconditional pattern (the common case
            # for scale workloads) the memory is the class bucket verbatim.
            mem.bulk_add(bucket)
            self._mems[key] = mem
            self._keys_by_class.setdefault(ce.class_name, []).append(key)
        return mem

    # -- maintenance ---------------------------------------------------------

    def watch(self, ces: Sequence[CompiledCE], sink) -> None:
        """Prime a memory for every CE now and from then on report each
        WM batch that changes one: ``sink.alpha_added(alpha key, wmes)``
        per memory entered (the batch's WMEs that entered it, in order),
        ``sink.alpha_removed(alpha keys, wme)`` once per WME for the
        memories it left."""
        self._sink = sink
        for ce in ces:
            self.memory(ce)

    def apply(self, wmes: Sequence[WME], added: bool) -> None:
        """Incorporate one batch of WM events into every already-primed
        memory: per alpha key, the batch is filtered once and added in one
        call; retractions go one WME at a time.

        Memories not yet primed pick the WMEs up at prime time instead.
        The sink hears of the memories a batch entered in the order a WME
        at a time would have told it — by the first WME to enter each,
        then by the key's place among its class's keys.
        """
        keys_by_class, mems = self._keys_by_class, self._mems
        sink = self._sink
        if not added:
            for wme in wmes:
                keys = keys_by_class.get(wme.class_name)
                if keys:
                    left = [key for key in keys if mems[key].remove(wme)]
                    if left and sink is not None:
                        sink.alpha_removed(left, wme)
            return
        stats = self.stats
        entered = []
        start = 0
        for class_name, run in groupby(wmes, attrgetter("class_name")):
            run = list(run)
            keys = keys_by_class.get(class_name)
            if keys:
                for pos, key in enumerate(keys):
                    if stats is not None:
                        stats.bump("alpha_tests", n=len(run))
                    conds = key[1]
                    passing = (
                        [w for w in run if alpha_test_passes(conds, w)]
                        if conds
                        else run
                    )
                    if passing:
                        mems[key].bulk_add(passing)
                        if sink is not None:
                            first = start if passing is run else start + run.index(passing[0])
                            entered.append((first, pos, key, passing))
            start += len(run)
        if len(entered) > 1:
            # (first WME to enter, key position): the order one WME at
            # a time would have made the calls in.
            entered.sort(key=itemgetter(0, 1))
        for _first, _pos, key, passing in entered:
            sink.alpha_added(key, passing)

    def _listener(self, wmes: Sequence[WME], added: bool) -> None:
        self.apply(wmes, added)

    def attach(self) -> None:
        """Subscribe to the working memory's add/remove events."""
        if not self._attached:
            self.wm.add_listener(self._listener)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.wm.remove_listener(self._listener)
            self._attached = False


# ---------------------------------------------------------------------------
# Column-native alpha source (the vectorized probe kernel)
# ---------------------------------------------------------------------------
#
# The classes below are the second implementation: alpha memories held
# as *row ids* over a :class:`~repro.wm.columnar.ColumnarReader`'s shared
# ``(tag, payload)`` int64 columns, with WME objects built lazily — only for
# rows a probe or full scan actually surfaces. The columnar module is
# imported lazily so the default dict-backed path never touches shared
# memory.
#
# Keying scheme: every storable value canonicalizes to one packed integer
# ``(kind << 64) | (payload & 0xFFFF..FF)`` chosen so that two stored cells
# (or a probe value and a stored cell) get equal keys exactly when Python
# ``==`` unifies them:
#
# - absent slots and the ``nil`` symbol share ``_KEY_NIL`` (``WME.get``
#   reads both as ``"nil"``);
# - bools and in-range ints share ``_K_INT`` (``True == 1``), and integral
#   floats in int64 range collapse into it too (``2.0 == 2``, and
#   ``-0.0`` lands on ``_K_INT|0`` with ``0.0``);
# - symbols/bigints key on their heap offset (the parent interns each text
#   once, so offset equality is text equality);
# - remaining floats key on their IEEE bits (equal non-integral finite
#   floats are bit-identical).
#
# Two escape hatches keep exotic values exact rather than fast: a stored
# cell with no faithful key (NaN, an integral float beyond int64 that may
# equal a stored bigint) goes to the index's *fallback rows*, re-checked by
# decoded ``==`` on every probe; a probe value with no packed key (a symbol
# the parent never interned — proof no stored symbol equals it — NaN, or an
# out-of-range integral) skips the bucket but still filters the fallback
# rows. Both are counted (``parulel_vector_probe_fallback_total``).

_U64 = (1 << 64) - 1
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_INF = float("inf")

#: Packed key kinds (bits 64+). ``_KEY_NIL`` is the whole key for absent.
_KEY_NIL = 0
_K_INT = 1 << 64
_K_FLOAT = 2 << 64
_K_SYM = 3 << 64
_K_BIG = 4 << 64

#: What an absent cell (and the ``nil`` symbol) hashes to in a site condition.
_NIL_HASH = value_hash(NIL)

#: Most cell hashes a :class:`ColumnVectorCache` remembers.
_HASH_MEMO = 1 << 16

# Columnar tag constants, loaded on first ColumnVectorCache construction
# (lazy import — see module note above).
_TAGS_LOADED = False
_T_ABSENT = _T_INT = _T_FLOAT = _T_SYM = _T_BIG = _T_BOOL = -1


def _load_columnar_tags() -> None:
    global _TAGS_LOADED, _T_ABSENT, _T_INT, _T_FLOAT, _T_SYM, _T_BIG, _T_BOOL
    if _TAGS_LOADED:
        return
    from repro.wm import columnar as _c

    _T_ABSENT, _T_INT, _T_FLOAT, _T_SYM, _T_BIG, _T_BOOL = (
        _c._ABSENT, _c._INT, _c._FLOAT, _c._SYM, _c._BIG, _c._BOOL,
    )
    _TAGS_LOADED = True


def _canon_cell(tag: int, payload: int, nil_off: Optional[int]) -> Optional[int]:
    """Packed key for one stored ``(tag, payload)`` cell, or ``None`` when
    the cell has no faithful key and its row must go to the fallback list."""
    if tag == _T_ABSENT:
        return _KEY_NIL
    if tag == _T_INT or tag == _T_BOOL:
        return _K_INT | (payload & _U64)
    if tag == _T_SYM:
        if payload == nil_off:
            return _KEY_NIL
        return _K_SYM | payload
    if tag == _T_BIG:
        return _K_BIG | payload
    # _T_FLOAT
    f = struct.unpack("<d", struct.pack("<q", payload))[0]
    if f != f:
        return None  # NaN: leave == semantics to the decoded fallback path
    if f == _INF or f == -_INF:
        return _K_FLOAT | (payload & _U64)
    i = int(f)
    if i == f:
        if _I64_MIN <= i <= _I64_MAX:
            return _K_INT | (i & _U64)
        return None  # integral beyond int64 — may equal a stored bigint
    return _K_FLOAT | (payload & _U64)


def _canon_probe(value, reader) -> Optional[int]:
    """Packed key for a probe value, or ``None`` when no packed bucket can
    match it (fallback rows are still filtered by decoded equality)."""
    if isinstance(value, bool):
        return _K_INT | int(value)
    if isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            return _K_INT | (value & _U64)
        off = reader.offset_of(str(value))
        return None if off is None else _K_BIG | off
    if isinstance(value, float):
        if value != value:
            return None  # NaN
        if value == _INF or value == -_INF:
            bits = struct.unpack("<Q", struct.pack("<d", value))[0]
            return _K_FLOAT | bits
        i = int(value)
        if i == value:
            if _I64_MIN <= i <= _I64_MAX:
                return _K_INT | (i & _U64)
            off = reader.offset_of(str(i))
            return None if off is None else _K_BIG | off
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        return _K_FLOAT | bits
    if isinstance(value, str):
        if value == NIL:
            return _KEY_NIL
        off = reader.offset_of(value)
        return None if off is None else _K_SYM | off
    return None


class ColumnProbeIndex:
    """Hash index over packed column keys for one attribute tuple of one
    :class:`ColumnMemory` — the column-native analogue of one
    :class:`IndexedMemory` index.

    Buckets map a packed key (one int, or a tuple of them for multi-attr
    probes) to an ascending member-row list; ascending rows = timestamp
    order = the object path's bucket order. Rows whose key is inexact live
    in :attr:`fallback` and are filtered by decoded ``==`` on every probe;
    a probe whose own key is unpacked skips the buckets but still scans the
    fallback list, and hits from both are merged back into row order.
    """

    __slots__ = ("mem", "attrs", "buckets", "fallback")

    def __init__(self, mem: "ColumnMemory", attrs: IndexAttrs) -> None:
        self.mem = mem
        self.attrs = attrs
        self.buckets: Dict[object, List[int]] = {}
        self.fallback: List[int] = []
        for row in mem.rows:
            self.insert(row)

    def _row_key(self, row: int):
        """Packed key of a member row, or ``None`` for a fallback row.
        Columns are re-fetched per call — memoryviews do not survive the
        table's re-mount on growth, so nothing here may be cached."""
        table = self.mem.table
        nil_off = self.mem.cache.reader.nil_offset()
        keys = []
        for attr in self.attrs:
            idx = table.col_of(attr)
            if idx is None:
                key = _KEY_NIL
            else:
                key = _canon_cell(
                    table.tag_cols[idx][row], table.payload_cols[idx][row], nil_off
                )
                if key is None:
                    return None
            keys.append(key)
        return keys[0] if len(keys) == 1 else tuple(keys)

    def insert(self, row: int) -> None:
        key = self._row_key(row)
        if key is None:
            self.fallback.append(row)
            return
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [row]
        else:
            bucket.append(row)

    def remove(self, row: int) -> None:
        key = self._row_key(row)  # rows are immutable: same key as insert
        if key is None:
            self.fallback.remove(row)
            return
        bucket = self.buckets.get(key)
        if bucket is not None:
            bucket.remove(row)
            if not bucket:
                del self.buckets[key]

    def probe_rows(self, values: Tuple) -> Sequence[int]:
        """Member rows whose attributes equal ``values``, ascending.
        Callers must not mutate the result (it may alias a bucket)."""
        cache = self.mem.cache
        reader = cache.reader
        keys = []
        unpacked = False
        for value in values:
            key = _canon_probe(value, reader)
            if key is None:
                unpacked = True
                break
            keys.append(key)
        packed: Sequence[int] = ()
        if not unpacked:
            packed = self.buckets.get(
                keys[0] if len(keys) == 1 else tuple(keys), ()
            )
        if not unpacked and not self.fallback:
            return packed
        cache.fallback_probes += 1
        table = self.mem.table
        resolve = reader._resolve
        hits: List[int] = []
        for row in self.fallback:
            for attr, value in zip(self.attrs, values):
                if table.cell(resolve, row, attr) != value:
                    break
            else:
                hits.append(row)
        if not hits:
            return packed
        if not packed:
            return hits
        merged: List[int] = []
        i = j = 0
        while i < len(packed) and j < len(hits):
            if packed[i] < hits[j]:
                merged.append(packed[i])
                i += 1
            else:
                merged.append(hits[j])
                j += 1
        merged.extend(packed[i:])
        merged.extend(hits[j:])
        return merged


class ColumnMemory:
    """One alpha memory evaluated directly over a reader table's columns.

    Members are row ids (an insertion-ordered dict used as an ordered set;
    per-class row order is timestamp order, so iteration and probe results
    match the object path's bucket order exactly). Alpha conditions are
    checked cell-by-cell (:meth:`~repro.wm.columnar._ReaderTable.cell`
    decodes one slot, no WME built); full iteration and probe survivors
    materialize through the cache's per-row memo.
    """

    __slots__ = ("cache", "table", "key", "alpha_conds", "rows", "_indexes")

    def __init__(self, cache: "ColumnVectorCache", table, key: AlphaKey) -> None:
        self.cache = cache
        self.table = table
        self.key = key
        alpha_conds = self.alpha_conds = key[1]
        self._indexes: Dict[IndexAttrs, ColumnProbeIndex] = {}
        live = table.live_col
        known = table.rows_known
        rows = [row for row in range(known) if live[row]]
        others = alpha_conds
        for cond in alpha_conds:
            if cond[0] == "site":
                # The condition a split memory has, usually alone: one
                # pass over the key column instead of a test per row.
                rows = cache.site_rows(table, rows, *cond[1:])
                others = tuple(c for c in alpha_conds if c is not cond)
        if others:
            ok = self._alpha_ok
            rows = [row for row in rows if ok(row)]
        self.rows: Dict[int, None] = dict.fromkeys(rows)
        cache.scanned_rows += known

    def _alpha_ok(self, row: int) -> bool:
        """``alpha_test_passes`` evaluated on cells instead of a WME."""
        table = self.table
        resolve = self.cache.reader._resolve
        for cond in self.alpha_conds:
            kind = cond[0]
            if kind == "const":
                _k, attr, op, value = cond
                if not value_predicate(op, table.cell(resolve, row, attr), value):
                    return False
            elif kind == "in":
                _k, attr, alternatives = cond
                if table.cell(resolve, row, attr) not in alternatives:
                    return False
            elif kind == "site":
                _k, attr, k, s = cond
                if not self.cache.site_rows(table, (row,), attr, k, s):
                    return False
            else:  # 'intra'
                _k, attr, op, other = cond
                if not value_predicate(
                    op,
                    table.cell(resolve, row, attr),
                    table.cell(resolve, row, other),
                ):
                    return False
        return True

    # -- maintenance (journal replay) ---------------------------------------

    def on_add(self, row: int) -> bool:
        """Returns whether the row passed the alpha conditions."""
        self.cache.scanned_rows += 1
        if self.alpha_conds and not self._alpha_ok(row):
            return False
        self.rows[row] = None
        for index in self._indexes.values():
            index.insert(row)
        return True

    def on_remove(self, row: int) -> None:
        if row not in self.rows:
            return
        del self.rows[row]
        for index in self._indexes.values():
            index.remove(row)

    # -- enumerator protocol -------------------------------------------------

    def _index_for(self, attrs: IndexAttrs) -> ColumnProbeIndex:
        index = self._indexes.get(attrs)
        if index is None:
            index = self._indexes[attrs] = ColumnProbeIndex(self, attrs)
        return index

    def probe(self, attrs: IndexAttrs, values: Tuple) -> Sequence[WME]:
        cache = self.cache
        cache.probes += 1
        rows = self._index_for(attrs).probe_rows(values)
        if not rows:
            return ()
        wme_at = cache.wme_at
        table = self.table
        return tuple(wme_at(table, row) for row in rows)

    def probe_exists(self, attrs: IndexAttrs, values: Tuple) -> bool:
        """Bucket non-emptiness — no row decoded, no WME built."""
        self.cache.probes += 1
        return bool(self._index_for(attrs).probe_rows(values))

    def __contains__(self, row: int) -> bool:
        return row in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[WME]:
        cache = self.cache
        table = self.table
        return (cache.wme_at(table, row) for row in self.rows)


class _EmptyColumnMemory:
    """Stand-in for a class no row was ever asserted for (no table yet).
    Never cached — the real memory is built once the class appears in a
    structural spec on the next refresh."""

    __slots__ = ()

    def probe(self, attrs: IndexAttrs, values: Tuple) -> Sequence[WME]:
        return ()

    def probe_exists(self, attrs: IndexAttrs, values: Tuple) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[WME]:
        return iter(())


_EMPTY_COLUMN_MEMORY = _EmptyColumnMemory()


class ColumnVectorCache:
    """Worker-side alpha source evaluated directly over shared columns.

    What a columnar worker attaches through: :meth:`refresh` advances the
    journal cursor without materializing (``refresh_raw``), memories scan
    the liveness and value columns, probes hash packed ``(tag, payload)``
    keys, and WME objects are built lazily — memoized per row in the
    table's ``wme_by_row`` — only for rows a probe or full scan surfaces.

    Byte-identical conflict sets by construction: per-class row order is
    timestamp order, packed keys collapse exactly the values Python ``==``
    unifies (see the keying note above), and everything else falls back to
    decoded comparison. Reads assume the parent is quiescent up to the row
    high-water marks carried by the specs/journal.
    """

    def __init__(self, reader) -> None:
        _load_columnar_tags()
        self.reader = reader
        self._mems: Dict[AlphaKey, ColumnMemory] = {}
        self._mems_by_cid: Dict[int, List[ColumnMemory]] = {}
        #: Delta sink set by :meth:`watch` (a TREAT matcher): told of every
        #: alpha-passing add and remove instead of re-enumerating.
        self._sink = None
        #: Watched patterns whose class has no table yet (alpha key -> a
        #: CE with it); adopted at the end of the :meth:`refresh` that
        #: brings the class's structural spec.
        self._unmounted: Dict[AlphaKey, CompiledCE] = {}
        #: Work counters, cumulative per process; the pool ships per-cycle
        #: deltas back through the observability payload.
        self.scanned_rows = 0
        self.materialized = 0
        self.fallback_probes = 0
        self.probes = 0
        #: :func:`~repro.match.compile.value_hash` of the cells met in site
        #: conditions, by packed key: an int or bool by its payload, a
        #: symbol by ``_K_SYM | heap offset``. An offset names one text
        #: only within this reader's store, so the memo is this cache's
        #: alone. Cleared when it outgrows :data:`_HASH_MEMO`.
        self._hashes: Dict[int, int] = {}

    # -- enumerator protocol -------------------------------------------------

    def memory(self, ce: CompiledCE):
        mem = self._mems.get(ce.alpha_key)
        if mem is None:
            if ce.alpha_key in self._unmounted:
                # A watched class whose table arrived with the refresh now
                # replaying: its rows' journal records are being skipped,
                # so it stays empty — to a join a retraction forces
                # mid-journal too — until the refresh adopts it and tells
                # the sink of every member. A memory built here would read
                # the columns' *final* state and never be reported.
                return _EMPTY_COLUMN_MEMORY
            mem = self._mount(ce)
        return mem

    def _mount(self, ce: CompiledCE):
        cid = self.reader.cid_of(ce.class_name)
        if cid is None:
            return _EMPTY_COLUMN_MEMORY
        mem = ColumnMemory(self, self.reader.table(cid), ce.alpha_key)
        self._mems[ce.alpha_key] = mem
        self._mems_by_cid.setdefault(cid, []).append(mem)
        return mem

    # -- maintenance ---------------------------------------------------------

    def watch(self, ces: Sequence[CompiledCE], sink) -> None:
        """Prime a memory for every CE now — or, for a class with no table
        yet, in the refresh that first mentions it — and from then on
        report deltas instead of waiting to be re-enumerated:
        ``sink.alpha_added(alpha key, wmes)`` for the rows entering a
        memory, ``sink.alpha_removed(alpha keys, wme)`` for each row
        leaving some. Only those rows are materialized."""
        self._sink = sink
        for ce in ces:
            if ce.alpha_key not in self._mems and (
                self._mount(ce) is _EMPTY_COLUMN_MEMORY
            ):
                self._unmounted[ce.alpha_key] = ce

    def refresh(self, info: Tuple) -> int:
        """Apply a cycle's journal records to every primed memory; returns
        the number of records applied. Without a :meth:`watch` sink no WME
        is built here."""
        applied = self.reader.refresh_raw(info, self._on_record)
        if self._unmounted:
            self._adopt_new_classes()
        return applied

    def _adopt_new_classes(self) -> None:
        """Prime watched memories whose class just appeared. The records
        that built the class were skipped (no memory to apply them to), so
        every member row is new to the sink."""
        waiting, self._unmounted = self._unmounted, {}
        for key, ce in waiting.items():
            mem = self._mount(ce)
            if mem is _EMPTY_COLUMN_MEMORY:
                self._unmounted[key] = ce
            else:
                if len(mem):
                    self._sink.alpha_added(mem.key, tuple(mem))

    def _on_record(self, added: bool, cid: int, row: int) -> None:
        mems = self._mems_by_cid.get(cid)
        sink = self._sink
        if added:
            if mems:
                for mem in mems:
                    if mem.on_add(row) and sink is not None:
                        sink.alpha_added(mem.key, (self.wme_at(mem.table, row),))
            return
        table = self.reader.table(cid)
        left = None
        if sink is not None and mems:
            left = [mem.key for mem in mems if row in mem.rows]
            if left:
                # Rows keep their cells after the liveness flip, so the
                # retracted WME can still be built for the sink.
                wme = self.wme_at(table, row)
        if table is not None:
            table.wme_by_row.pop(row, None)  # rows never recycle; drop memo
        if mems:
            for mem in mems:
                mem.on_remove(row)
        if left:
            sink.alpha_removed(left, wme)

    def site_rows(
        self, table, rows: Sequence[int], attr: Optional[str], k: int, s: int
    ) -> List[int]:
        """The ``rows`` that pass the site condition ``('site', attr, k,
        s)`` — whose cell at ``attr`` (``None``: whose timestamp) has
        :func:`~repro.match.compile.value_residue` ``s`` of ``k`` — in one
        pass over the column, an int or symbol cell's hash looked up by its
        packed key."""
        if attr is None:
            ts = table.ts_col
            return [row for row in rows if value_hash(ts[row]) % k == s]
        idx = table.col_of(attr)
        if idx is None:
            return list(rows) if _NIL_HASH % k == s else []
        tags = table.tag_cols[idx]
        payloads = table.payload_cols[idx]
        known = self._hashes.get
        cell_hash = self.cell_hash
        out = []
        for row in rows:
            tag = tags[row]
            if tag == _T_INT:
                h = known(payloads[row])
            elif tag == _T_SYM:
                h = known(_K_SYM | payloads[row])
            else:
                h = None
            if h is None:
                h = cell_hash(table, row, attr)
            if h % k == s:
                out.append(row)
        return out

    def cell_hash(self, table, row: int, attr: str) -> int:
        """:func:`~repro.match.compile.value_hash` of one cell, from its
        ``(tag, payload)`` pair and memoized by packed key: an int or bool
        hashes its payload, a symbol its text (decoded once per heap
        offset), absent is ``nil``. Only floats and big ints are decoded
        per cell."""
        idx = table.col_of(attr)
        if idx is None:
            return _NIL_HASH
        tag = table.tag_cols[idx][row]
        payload = table.payload_cols[idx][row]
        if tag == _T_INT or tag == _T_BOOL:
            key = payload
        elif tag == _T_SYM:
            key = _K_SYM | payload
        elif tag == _T_ABSENT:
            return _NIL_HASH
        else:
            return value_hash(table.cell(self.reader._resolve, row, attr))
        hashes = self._hashes
        h = hashes.get(key)
        if h is None:
            if len(hashes) >= _HASH_MEMO:
                hashes.clear()
            value = self.reader._resolve(payload) if tag == _T_SYM else payload
            h = hashes[key] = value_hash(value)
        return h

    # -- lazy materialization ------------------------------------------------

    def wme_at(self, table, row: int) -> WME:
        """The row's WME, built on first need and memoized (probes that
        surface the same row across cycles decode it once)."""
        wme = table.wme_by_row.get(row)
        if wme is None:
            wme = table.materialize(self.reader._resolve, row)
            table.wme_by_row[row] = wme
            self.materialized += 1
        return wme

    def counters(self) -> Dict[str, int]:
        return {
            "scanned": self.scanned_rows,
            "materialized": self.materialized,
            "fallback": self.fallback_probes,
            "probes": self.probes,
        }
