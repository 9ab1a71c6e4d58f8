"""Property tests: the columnar store is observationally identical to the
dict store, and its shared-memory machinery (growth, journal, reader
attach/refresh, cleanup) is sound.

The equivalence suite drives both stores through identical randomized
scripts and asserts every observable agrees after every operation —
contents, order, counts, timestamps, listener event sequences, and
``dump_records`` round-trips. That is the contract that lets
``EngineConfig(wm_backend="columnar")`` claim byte-identical runs.
"""

import glob

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import WorkingMemoryError
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory

CLASSES = ["alpha", "beta", "gamma"]
ATTRS = ["k", "m", "tag"]
#: Every encodable value shape: symbols, small/big ints, floats, bools.
VALUES = [0, 1, -7, 2**70, 1.5, -0.0, True, False, "sym", "oth-er", ""]

#: Script steps the equivalence suite replays into both stores.
step_strategy = st.one_of(
    st.tuples(
        st.just("make"),
        st.sampled_from(CLASSES),
        st.lists(
            st.tuples(st.sampled_from(ATTRS), st.sampled_from(VALUES)),
            max_size=3,
        ),
    ),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(st.just("discard"), st.integers(0, 10_000)),
)


def observables(wm):
    return {
        "len": len(wm),
        "iter": [repr(w) for w in wm],
        "by_class": {c: [repr(w) for w in wm.by_class(c)] for c in CLASSES},
        "counts": {c: wm.count_class(c) for c in CLASSES},
        "latest": wm.latest_timestamp,
        "records": wm.dump_records(),
    }


class TestEquivalence:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=st.lists(step_strategy, min_size=1, max_size=30))
    def test_matches_dict_store_at_every_step(self, script):
        # Tiny initial capacity so realistic scripts cross growth
        # boundaries (rows, journal) many times.
        col = ColumnarWorkingMemory(initial_capacity=2)
        ref = WorkingMemory()
        col_events, ref_events = [], []
        col.add_listener(lambda w, a: col_events.append((repr(w), a)))
        ref.add_listener(lambda w, a: ref_events.append((repr(w), a)))
        live_col, live_ref = [], []
        try:
            for step in script:
                if step[0] == "make":
                    _, cls, pairs = step
                    attrs = dict(pairs)
                    live_col.append(col.make(cls, attrs))
                    live_ref.append(ref.make(cls, attrs))
                elif step[0] == "remove" and live_ref:
                    idx = step[1] % len(live_ref)
                    col.remove(live_col.pop(idx))
                    ref.remove(live_ref.pop(idx))
                elif step[0] == "discard" and live_ref:
                    idx = step[1] % len(live_ref)
                    assert col.discard(live_col.pop(idx)) == ref.discard(
                        live_ref.pop(idx)
                    )
                assert observables(col) == observables(ref)
                assert col_events == ref_events
        finally:
            col.close()

    def test_dump_records_round_trip_byte_identical(self):
        col = ColumnarWorkingMemory()
        try:
            a = col.make("alpha", k=1, m="x")
            col.make("beta", k=2.5)
            col.remove(a)
            col.make("alpha", k=3)
            records, next_ts = col.dump_records()
            reloaded = ColumnarWorkingMemory()
            try:
                reloaded.load_records(records, next_ts)
                assert reloaded.dump_records() == (records, next_ts)
            finally:
                reloaded.close()
        finally:
            col.close()

    def test_duplicate_insert_leaves_no_orphan_row(self):
        col = ColumnarWorkingMemory()
        try:
            wme = col.make("alpha", k=1)
            journal_before = col.journal_len
            with pytest.raises(WorkingMemoryError):
                col.add(wme)
            assert col.journal_len == journal_before
            assert len(col) == 1
        finally:
            col.close()

    def test_remove_absent_raises_without_journal_entry(self):
        col = ColumnarWorkingMemory()
        try:
            wme = col.make("alpha", k=1)
            col.remove(wme)
            journal_before = col.journal_len
            with pytest.raises(WorkingMemoryError):
                col.remove(wme)
            assert col.journal_len == journal_before
        finally:
            col.close()

    def test_unencodable_value_rejected(self):
        col = ColumnarWorkingMemory()
        try:
            with pytest.raises(WorkingMemoryError):
                col.make("alpha", k=(1, 2))
        finally:
            col.close()


class TestReader:
    """In-process reader against a live store: a replica built from the
    liveness snapshot and kept current from the journal, through the
    reader's only surface — mounted columns, ``refresh_raw`` and
    ``materialize``."""

    def replica(self, reader, classes=CLASSES):
        """Dict-store replica of what ``reader`` can see, plus the
        ``refresh_raw`` callback that keeps it current."""
        wm = WorkingMemory()
        resolve = reader._resolve
        by_row = {}
        for name in classes:
            cid = reader.cid_of(name)
            if cid is None:
                continue
            table = reader.table(cid)
            for row in range(table.rows_known):
                if table.live_col[row]:  # dead rows are never decoded
                    by_row[cid, row] = wme = table.materialize(resolve, row)
                    wm.add(wme)

        def on_record(added, cid, row):
            if added:
                by_row[cid, row] = wme = reader.table(cid).materialize(resolve, row)
                wm.add(wme)
            else:
                wm.remove(by_row.pop((cid, row)))

        return wm, on_record

    def test_attach_builds_identical_replica(self):
        col = ColumnarWorkingMemory(initial_capacity=2)
        try:
            for i in range(20):
                col.make("alpha", k=i, m=f"s{i % 3}")
            col.remove(col.by_class("alpha")[3])
            reader = ColumnarReader(col.attach_spec())
            rep, _on_record = self.replica(reader)
            assert len(rep) == len(col) == 19
            assert observables(rep) == observables(col)
            reader.close()
        finally:
            col.close()

    def test_refresh_tracks_churn_growth_and_new_classes(self):
        col = ColumnarWorkingMemory(initial_capacity=2)
        try:
            col.make("alpha", k=1)
            reader = ColumnarReader(col.attach_spec())
            rep, on_record = self.replica(reader)
            for cycle in range(6):
                # Each cycle: churn, force growth, add a brand-new class
                # and a brand-new attribute mid-run.
                for i in range(10):
                    col.make("alpha", k=i, m=f"sym{cycle}")
                victims = col.by_class("alpha")[::3]
                for w in victims:
                    col.remove(w)
                col.make(f"late{cycle}", tag=cycle)
                reader.refresh_raw(col.cycle_info(), on_record)
                assert rep.dump_records()[0] == col.dump_records()[0]
            reader.close()
        finally:
            col.close()

    def test_refresh_is_cursor_bounded(self):
        col = ColumnarWorkingMemory()
        try:
            col.make("alpha", k=1)
            reader = ColumnarReader(col.attach_spec())
            rep, on_record = self.replica(reader)
            info = col.cycle_info()
            # Mutations after the cursor snapshot must not be applied.
            col.make("alpha", k=2)
            applied = reader.refresh_raw(info, on_record)
            assert applied == 0
            assert len(rep) == 1
            reader.close()
        finally:
            col.close()


class TestRawReader:
    """The non-materializing reader surface the column-scan probe kernel
    is built on: ``refresh_raw`` and the intern-map queries
    (``offset_of``/``nil_offset``) that back packed probe keys."""

    def test_refresh_raw_advances_without_materializing(self):
        col = ColumnarWorkingMemory(initial_capacity=2)
        try:
            col.make("alpha", k=0)  # pre-attach: snapshot, not journal
            reader = ColumnarReader(col.attach_spec())
            for i in range(10):  # forces row + journal growth
                col.make("alpha", k=i, m=f"s{i}")
            col.remove(col.by_class("alpha")[2])
            col.make("late", tag=1)
            records = []
            n = reader.refresh_raw(
                col.cycle_info(),
                lambda added, cid, row: records.append((added, cid, row)),
            )
            assert n == len(records) == 12
            assert sum(1 for added, _c, _r in records if added) == 11
            for cid in {cid for _a, cid, _r in records}:
                table = reader.table(cid)
                assert table.wme_by_row == {}  # nothing decoded
                assert table.rows_known > max(
                    row for _a, c, row in records if c == cid
                )
            reader.close()
        finally:
            col.close()

    def test_refresh_raw_is_cursor_bounded(self):
        col = ColumnarWorkingMemory()
        try:
            col.make("alpha", k=1)
            reader = ColumnarReader(col.attach_spec())
            info = col.cycle_info()
            col.make("alpha", k=2)  # after the cursor snapshot
            applied = reader.refresh_raw(info, lambda *_: None)
            assert applied == 0
            reader.close()
        finally:
            col.close()

    def test_offset_of_tracks_the_heap_across_refresh(self):
        col = ColumnarWorkingMemory()
        try:
            col.make("alpha", k="sym", m=2**70)
            reader = ColumnarReader(col.attach_spec())
            off = reader.offset_of("sym")
            assert off is not None and reader._resolve(off) == "sym"
            assert reader.offset_of(str(2**70)) is not None
            assert reader.offset_of("never-interned") is None
            # A symbol interned after attach is invisible (its row is too)
            # until a refresh advances the heap cursor — the packed-probe
            # "definitive miss" protocol depends on exactly this.
            col.make("alpha", k="late-sym")
            assert reader.offset_of("late-sym") is None
            reader.refresh_raw(col.cycle_info(), lambda *_: None)
            assert reader.offset_of("late-sym") is not None
            reader.close()
        finally:
            col.close()

    def test_nil_offset_matches_interned_nil(self):
        col = ColumnarWorkingMemory()
        try:
            col.make("alpha", k="nil", m=1)
            reader = ColumnarReader(col.attach_spec())
            off = reader.nil_offset()
            assert off is not None and reader._resolve(off) == "nil"
            reader.close()
        finally:
            col.close()


class TestLifecycle:
    def test_close_unlinks_all_segments(self):
        col = ColumnarWorkingMemory()
        col.make("alpha", k=1, m="x")
        names = col.segment_names
        assert names
        col.close()
        for name in names:
            assert not glob.glob(f"/dev/shm/{name}")

    def test_close_idempotent(self):
        col = ColumnarWorkingMemory()
        col.make("alpha", k=1)
        col.close()
        col.close()

    def test_growth_unlinks_old_generations(self):
        col = ColumnarWorkingMemory(initial_capacity=2)
        try:
            for i in range(50):
                col.make("alpha", k=i)
            # Only the newest generation's segments may exist on disk.
            live = set(col.segment_names)
            on_disk = {
                name.rsplit("/", 1)[-1]
                for name in glob.glob(f"/dev/shm/{col.token}*")
            }
            assert on_disk == live
        finally:
            col.close()
        # And close() then removes that newest generation too.
        assert not glob.glob(f"/dev/shm/{col.token}*")
