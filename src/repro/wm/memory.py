"""The indexed working-memory store.

:class:`WorkingMemory` owns the timestamp counter and keeps WMEs indexed by
class name, in timestamp order. It notifies registered listeners (match
engines) of every batch of asserts and of retracts — one call per batch; a
single :meth:`~WorkingMemory.make` or :meth:`~WorkingMemory.remove` is a
batch of one — which is how the matchers stay incremental.

Design notes (hpc-parallel guide: measure, index, avoid copies):

- the per-class index is a dict of insertion-ordered dicts used as ordered
  sets — O(1) add/remove while preserving timestamp order for deterministic
  iteration;
- listeners receive the *same* WME objects stored in the index; WMEs are
  immutable so sharing is safe across engines and (simulated) sites;
- ``snapshot()`` is O(n) but only taken by tooling, never inside the match
  loop.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import WorkingMemoryError
from repro.lang.ast import Value
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["WorkingMemory", "WMDelta", "DeltaRecorder"]

#: Listener signature: ``callback(wmes, added)`` — a batch of WMEs, in
#: timestamp order for asserts and retraction order for retracts; ``added``
#: is True for asserts and False for retracts.
Listener = Callable[[Sequence[WME], bool], None]


class WorkingMemory:
    """Timestamped, class-indexed store of WMEs."""

    def __init__(self, templates: Optional[TemplateRegistry] = None) -> None:
        self._by_class: Dict[str, Dict[WME, None]] = {}
        self._count = 0
        self._next_timestamp = 1
        self._listeners: List[Listener] = []
        self.templates = templates or TemplateRegistry()

    # -- listeners -----------------------------------------------------------

    def add_listener(self, listener: Listener) -> None:
        """Register a match engine (or tracer) for add/remove notifications."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    # -- mutation --------------------------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value) -> WME:
        """Assert a new WME and return it.

        Attributes come from the ``attrs`` mapping and/or keyword arguments
        (keywords use ``_`` for ``-``, as in the builder DSL).
        """
        merged: Mapping[str, Value]
        if kw:
            merged = dict(attrs or {})
            for key, val in kw.items():
                merged[key.replace("_", "-")] = val
        else:
            # The WME copies the values out, so the caller's mapping can be
            # read in place.
            merged = attrs if attrs is not None else {}
        self.templates.validate(class_name, merged)
        wme = WME(class_name, merged, self._next_timestamp)
        self._next_timestamp += 1
        self._insert((wme,))
        return wme

    def make_batch(
        self, makes: Sequence[Tuple[str, Mapping[str, Value]]]
    ) -> List[WME]:
        """Assert ``(class, attrs)`` pairs as one batch, in order, with
        consecutive fresh timestamps; listeners hear of them in one call.
        Nothing is asserted when one of them fails validation."""
        validate = self.templates.validate
        ts = self._next_timestamp
        wmes = []
        for class_name, attrs in makes:
            validate(class_name, attrs)
            wmes.append(WME(class_name, attrs, ts))
            ts += 1
        self._next_timestamp = ts
        self._insert(wmes)
        return wmes

    def add(self, wme: WME) -> None:
        """Assert a pre-built WME (timestamp must be fresh).

        Used by engines that construct WMEs themselves via
        :meth:`allocate_timestamp`.
        """
        self.add_batch((wme,))

    def add_batch(self, wmes: Sequence[WME]) -> None:
        """Assert distinct pre-built WMEs (fresh timestamps) as one batch:
        replicas replaying a shipped delta, a checkpoint reload."""
        if wmes:
            last = max(wme.timestamp for wme in wmes)
            if last >= self._next_timestamp:
                self._next_timestamp = last + 1
            self._insert(wmes)

    def allocate_timestamp(self) -> int:
        """Reserve the next timestamp (engines building WMEs directly)."""
        ts = self._next_timestamp
        self._next_timestamp += 1
        return ts

    def _insert(self, wmes: Sequence[WME]) -> None:
        """Enter ``wmes`` into the buckets and tell the listeners in one
        call. Raises on the first duplicate, after entering (and
        reporting) the ones before it."""
        by_class = self._by_class
        done = 0
        try:
            for wme in wmes:
                bucket = by_class.get(wme.class_name)
                if bucket is None:
                    bucket = by_class[wme.class_name] = {}
                elif wme in bucket:
                    raise WorkingMemoryError(f"duplicate WME {wme!r}")
                bucket[wme] = None
                done += 1
        finally:
            if done:
                self._count += done
                added = wmes if done == len(wmes) else wmes[:done]
                for listener in self._listeners:
                    listener(added, True)

    def remove(self, wme: WME) -> None:
        """Retract a WME; raises if it is not present."""
        self.remove_batch((wme,))

    def remove_batch(self, wmes: Sequence[WME]) -> None:
        """Retract distinct WMEs as one batch; listeners hear of them in
        one call. Raises on the first absent one, after retracting (and
        reporting) the ones before it."""
        by_class = self._by_class
        done = 0
        try:
            for wme in wmes:
                bucket = by_class.get(wme.class_name)
                if bucket is None or wme not in bucket:
                    raise WorkingMemoryError(f"cannot remove absent WME {wme!r}")
                del bucket[wme]
                done += 1
        finally:
            if done:
                self._count -= done
                gone = wmes if done == len(wmes) else wmes[:done]
                for listener in self._listeners:
                    listener(gone, False)

    def discard(self, wme: WME) -> bool:
        """Retract if present; return whether anything was removed."""
        if wme not in self:
            return False
        self.remove_batch((wme,))
        return True

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, wme: WME) -> bool:
        bucket = self._by_class.get(wme.class_name)
        return bucket is not None and wme in bucket

    def __iter__(self) -> Iterator[WME]:
        """All WMEs, grouped by class, each class in timestamp order."""
        for bucket in self._by_class.values():
            yield from bucket

    def by_class(self, class_name: str) -> Tuple[WME, ...]:
        """All live WMEs of one class, in timestamp order."""
        bucket = self._by_class.get(class_name)
        return tuple(bucket) if bucket else ()

    def count_class(self, class_name: str) -> int:
        bucket = self._by_class.get(class_name)
        return len(bucket) if bucket else 0

    def find(
        self, class_name: str, where: Optional[Mapping[str, Value]] = None, **kw: Value
    ) -> Tuple[WME, ...]:
        """Convenience query: WMEs of a class whose attributes equal the
        given values. Linear in the class bucket; for tests and tooling."""
        wanted: Dict[str, Value] = dict(where or {})
        for key, val in kw.items():
            wanted[key.replace("_", "-")] = val
        out = []
        for wme in self.by_class(class_name):
            if all(wme.get(a) == v for a, v in wanted.items()):
                out.append(wme)
        return tuple(out)

    def snapshot(self) -> Tuple[WME, ...]:
        """All live WMEs in global timestamp order (tooling only)."""
        return tuple(sorted(self, key=lambda w: w.timestamp))

    @property
    def latest_timestamp(self) -> int:
        """The most recently allocated timestamp (0 if none yet)."""
        return self._next_timestamp - 1

    # -- checkpointable state ---------------------------------------------------

    def dump_records(self) -> Tuple[List["WMERecord"], int]:
        """Serializable state: ``(records, next_timestamp)``.

        Unlike :mod:`repro.wm.io`'s facts text, records keep their
        timestamps — reloading reproduces the store *byte-identically*,
        which engine checkpoint/resume (and replica rebuilds) require.
        ``next_timestamp`` is carried separately because retractions can
        leave the counter past every live element.
        """
        records = [
            (w.class_name, w.attributes, w.timestamp) for w in self.snapshot()
        ]
        return records, self._next_timestamp

    def load_records(
        self, records: Iterable["WMERecord"], next_timestamp: Optional[int] = None
    ) -> None:
        """Re-assert dumped records (store must be empty), restoring the
        exact timestamps; then restore the allocation counter."""
        if self._count:
            raise WorkingMemoryError(
                "load_records needs an empty working memory"
            )
        self.add_batch(
            [WME(class_name, dict(attrs), ts) for class_name, attrs, ts in records]
        )
        if next_timestamp is not None:
            if next_timestamp <= self.latest_timestamp:
                raise WorkingMemoryError(
                    f"next_timestamp {next_timestamp} is not past the latest "
                    f"live timestamp {self.latest_timestamp}"
                )
            self._next_timestamp = next_timestamp


# ---------------------------------------------------------------------------
# Delta export (serializable change logs for out-of-process replicas)
# ---------------------------------------------------------------------------

#: Wire form of one asserted WME: ``(class_name, attrs, timestamp)``.
#: Attribute values are symbols/ints/floats, so the record is picklable
#: without carrying :class:`WME`'s derived caches across the wire.
WMERecord = Tuple[str, Dict[str, Value], int]


class WMDelta(NamedTuple):
    """Net change to a working memory over an observation window.

    ``adds`` are live WMEs asserted in the window (in timestamp order);
    ``removes`` are the timestamps of pre-window WMEs retracted in the
    window. Timestamps are unique for the lifetime of a store, so they
    identify WMEs across replicas. Add/remove pairs that cancel inside the
    window are compacted away, which makes the application order "removes,
    then adds" always safe.
    """

    adds: Tuple[WME, ...]
    removes: Tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.adds and not self.removes

    def wire(self) -> Tuple[Tuple[WMERecord, ...], Tuple[int, ...]]:
        """Picklable form: records instead of WME objects."""
        return (
            tuple((w.class_name, w.attributes, w.timestamp) for w in self.adds),
            self.removes,
        )

    @staticmethod
    def apply_wire(
        wm: "WorkingMemory",
        by_timestamp: Dict[int, WME],
        wire: Tuple[Tuple[WMERecord, ...], Tuple[int, ...]],
    ) -> None:
        """Replay a wire delta into a replica store.

        ``by_timestamp`` is the replica's timestamp index, updated in
        place — removes resolve through it and adds register in it.
        """
        adds, removes = wire
        if removes:
            wm.remove_batch([by_timestamp.pop(ts) for ts in removes])
        if adds:
            wmes = [WME(class_name, attrs, ts) for class_name, attrs, ts in adds]
            wm.add_batch(wmes)
            by_timestamp.update([(wme.timestamp, wme) for wme in wmes])


class DeltaRecorder:
    """Accumulates a working memory's changes as compacted deltas.

    Attach once; every :meth:`drain` returns the net :class:`WMDelta` since
    the previous drain (the first drain covers the pre-attach contents when
    ``prime`` is true, so a replica built empty and fed every drain in
    order converges to the live store). Used by the process-parallel match
    backend to ship WM deltas instead of whole memories.
    """

    def __init__(self, wm: "WorkingMemory", prime: bool = True) -> None:
        self.wm = wm
        self._adds: Dict[int, WME] = {}
        self._removes: List[int] = []
        if prime:
            for wme in wm.snapshot():
                self._adds[wme.timestamp] = wme
        wm.add_listener(self._on_event)
        self._attached = True

    def _on_event(self, wmes: Sequence[WME], added: bool) -> None:
        adds = self._adds
        if added:
            for wme in wmes:
                adds[wme.timestamp] = wme
            return
        for wme in wmes:
            if wme.timestamp in adds:
                # Added and removed within the window: net zero, ship nothing.
                del adds[wme.timestamp]
            else:
                self._removes.append(wme.timestamp)

    def drain(self) -> WMDelta:
        """The net delta since the last drain; resets the window."""
        delta = WMDelta(tuple(self._adds.values()), tuple(self._removes))
        self._adds = {}
        self._removes = []
        return delta

    def detach(self) -> None:
        if self._attached:
            self.wm.remove_listener(self._on_event)
            self._attached = False
