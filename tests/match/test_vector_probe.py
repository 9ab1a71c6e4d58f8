"""Unit tests for the column-native vectorized probe kernel.

:class:`~repro.match.alphaindex.ColumnVectorCache` must be observationally
identical to ``AlphaCache`` over WME objects while building WME objects
only for rows a probe or full scan actually surfaces. The classes below
pin the packed-key canonicalization (the keying note in
``alphaindex.py``), the fallback protocol for values with no faithful key,
the lazy-materialization accounting, and journal-driven maintenance.
The protocol conformance and the randomized column-vs-dict differential
live in ``tests/match/test_alpha_source.py``; the process-pool and
engine-level identity checks in ``tests/parallel/test_process_columnar.py``.
"""

import contextlib

from repro.lang.parser import parse_program
from repro.match.alphaindex import (
    _KEY_NIL,
    ColumnVectorCache,
    _canon_cell,
    _canon_probe,
    _load_columnar_tags,
)
from repro.match.compile import compile_rules
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory


@contextlib.contextmanager
def attached(col):
    """Reader over the store's current snapshot; closes both on exit."""
    reader = ColumnarReader(col.attach_spec())
    try:
        yield reader
    finally:
        reader.close()
        col.close()


def _ce(src, i=0):
    """The ``i``-th CE of the single rule in ``src``, compiled."""
    return compile_rules(parse_program(src).rules)[0].ces[i]


ITEM_CE = "(p r (item ^k <k>) --> (halt))"


class TestProbeCanon:
    """``_canon_probe``: the probe-side half of the packed-key protocol."""

    def test_cross_type_equalities_share_keys(self):
        col = ColumnarWorkingMemory()
        with attached(col) as reader:
            assert _canon_probe(True, reader) == _canon_probe(1, reader)
            assert _canon_probe(False, reader) == _canon_probe(0, reader)
            assert _canon_probe(2.0, reader) == _canon_probe(2, reader)
            assert _canon_probe(-7.0, reader) == _canon_probe(-7, reader)
            assert _canon_probe(-0.0, reader) == _canon_probe(0, reader)
            assert _canon_probe("nil", reader) == _KEY_NIL

    def test_unkeyable_probes_are_definitive_misses(self):
        col = ColumnarWorkingMemory()
        col.make("item", k="seen")
        with attached(col) as reader:
            assert _canon_probe("seen", reader) is not None
            # A symbol the parent never interned cannot equal any stored
            # symbol; same for a bigint with no interned decimal text.
            assert _canon_probe("never-stored", reader) is None
            assert _canon_probe(2**70, reader) is None
            assert _canon_probe(float("nan"), reader) is None
            assert _canon_probe((1, 2), reader) is None

    def test_bigint_and_equal_integral_float_share_a_key(self):
        col = ColumnarWorkingMemory()
        col.make("item", k=10**20)
        with attached(col) as reader:
            key = _canon_probe(10**20, reader)
            assert key is not None
            assert _canon_probe(1e20, reader) == key


class TestCellCanon:
    """Stored-cell keys agree with probe keys exactly when Python ``==``
    unifies the values — the soundness/completeness bar for the packed
    path, with fallback covering every unkeyable case."""

    STORED = [
        0, 1, -7, (1 << 63) - 1, -(1 << 63),  # int64 extremes
        2**70, -(2**70), 10**20,              # bigints (interned text)
        1.5, -1.5, 2.0, -0.0, 0.1, 1e20,      # floats incl. integral ones
        float("inf"), float("-inf"), float("nan"),
        True, False,
        "sym", "", "nil", str(2**70),         # symbols, incl. bigint text
    ]
    PROBES = STORED + ["never-stored", 2**71, 1e21, (1, 2)]

    def test_packed_keys_track_python_equality(self):
        col = ColumnarWorkingMemory()
        for val in self.STORED:
            col.make("item", k=val)
        with attached(col) as reader:
            _load_columnar_tags()  # normally done by ColumnVectorCache
            table = reader.table(reader.cid_of("item"))
            idx = table.col_of("k")
            nil_off = reader.nil_offset()
            for row in range(table.rows_known):
                cell_key = _canon_cell(
                    table.tag_cols[idx][row],
                    table.payload_cols[idx][row],
                    nil_off,
                )
                decoded = table.cell(reader._resolve, row, "k")
                for probe in self.PROBES:
                    probe_key = _canon_probe(probe, reader)
                    equal = decoded == probe
                    if cell_key is not None and probe_key is not None:
                        assert (cell_key == probe_key) == equal, (
                            f"stored {decoded!r} vs probe {probe!r}: "
                            f"packed keys disagree with =="
                        )
                    elif equal:
                        # Any equality involving an unkeyable side must put
                        # the *row* on the fallback list (re-checked by
                        # decoded == on every probe); an unkeyable probe
                        # against a packed row would be a silent miss.
                        assert cell_key is None, (
                            f"stored {decoded!r} == probe {probe!r} but the "
                            f"row is packed and the probe is unkeyable"
                        )


class TestLazyMaterialization:
    def test_probe_materializes_only_surfaced_rows_once(self):
        col = ColumnarWorkingMemory()
        for i in range(10):
            col.make("item", k=i % 2)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            assert len(mem) == 10
            assert vcache.materialized == 0  # priming decodes nothing
            hits = mem.probe(("k",), (1,))
            assert [w.get("k") for w in hits] == [1] * 5
            assert vcache.materialized == 5
            assert mem.probe(("k",), (1,)) == hits
            assert vcache.materialized == 5  # memoized per row

    def test_probe_exists_decodes_nothing(self):
        col = ColumnarWorkingMemory()
        for i in range(6):
            col.make("item", k=i)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            assert mem.probe_exists(("k",), (3,))
            assert not mem.probe_exists(("k",), (99,))
            assert vcache.materialized == 0

    def test_alpha_conditions_filter_on_cells_not_wmes(self):
        col = ColumnarWorkingMemory()
        for i in range(6):
            col.make("item", k=i % 3, m=i)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce("(p r (item ^k 1 ^m <m>) --> (halt))"))
            assert len(mem) == 2
            assert vcache.materialized == 0
            assert sorted(w.get("m") for w in mem) == [1, 4]

    def test_iteration_yields_timestamp_order(self):
        col = ColumnarWorkingMemory()
        wmes = [col.make("item", k=i) for i in range(5)]
        col.remove(wmes[2])
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            got = [w.timestamp for w in mem]
            want = [w.timestamp for w in wmes if w is not wmes[2]]
            assert got == want


class TestFallbackProtocol:
    def test_packed_and_fallback_hits_merge_in_row_order(self):
        col = ColumnarWorkingMemory()
        a = col.make("item", k=10**20)   # bigint row: packed
        col.make("item", k="noise")
        b = col.make("item", k=1e20)     # integral float > int64: fallback
        c = col.make("item", k=10**20)   # packed again
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            for probe in (10**20, 1e20):
                hits = mem.probe(("k",), (probe,))
                assert [w.timestamp for w in hits] == [
                    a.timestamp, b.timestamp, c.timestamp
                ]
            assert vcache.fallback_probes >= 2

    def test_unkeyable_probe_scans_only_the_fallback_rows(self):
        col = ColumnarWorkingMemory()
        col.make("item", k=1)
        col.make("item", k=float("nan"))  # fallback row; == nothing
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            before = vcache.fallback_probes
            assert mem.probe(("k",), ("never-stored",)) == ()
            assert mem.probe(("k",), (float("nan"),)) == ()
            assert vcache.fallback_probes == before + 2
            assert vcache.materialized == 0

    def test_absent_and_nil_symbol_share_a_bucket(self):
        col = ColumnarWorkingMemory()
        col.make("item", m=1)            # k absent
        col.make("item", k="nil", m=2)   # k explicitly nil
        col.make("item", k=5, m=3)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            hits = mem.probe(("k",), ("nil",))
            assert [w.get("m") for w in hits] == [1, 2]


class TestMaintenance:
    def test_refresh_maintains_rows_indexes_and_memo(self):
        col = ColumnarWorkingMemory()
        w1 = col.make("item", k=1)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            mem = vcache.memory(_ce(ITEM_CE))
            assert [w.timestamp for w in mem.probe(("k",), (1,))] == [
                w1.timestamp
            ]
            col.remove(w1)
            w2 = col.make("item", k=1)
            col.make("item", k=2)
            vcache.refresh(col.cycle_info())
            assert [w.timestamp for w in mem.probe(("k",), (1,))] == [
                w2.timestamp
            ]
            assert len(mem) == 2

    def test_unknown_class_is_empty_until_refresh_mounts_it(self):
        col = ColumnarWorkingMemory()
        col.make("item", k=1)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            late_ce = _ce("(p r (late ^k <k>) --> (halt))")
            empty = vcache.memory(late_ce)
            assert len(empty) == 0
            assert not empty.probe_exists(("k",), (9,))
            assert empty.probe(("k",), (9,)) == ()
            col.make("late", k=9)
            vcache.refresh(col.cycle_info())
            real = vcache.memory(late_ce)
            assert len(real) == 1
            assert real.probe_exists(("k",), (9,))

    def test_growth_remount_keeps_indexes_valid(self):
        # Tiny capacity: adds force row/journal growth, re-mounting the
        # shared columns under the live index (nothing may cache a
        # memoryview across refreshes).
        col = ColumnarWorkingMemory(initial_capacity=2)
        seed = col.make("item", k=0)
        with attached(col) as reader:
            vcache = ColumnVectorCache(reader)
            ce = _ce(ITEM_CE)
            mem = vcache.memory(ce)
            mem.probe(("k",), (0,))  # force the index to exist early
            live = [seed]
            for cycle in range(5):
                for i in range(8):
                    live.append(col.make("item", k=i % 3))
                for w in live[::4]:
                    col.remove(w)
                live = [w for i, w in enumerate(live) if i % 4]
                vcache.refresh(col.cycle_info())
                assert vcache.memory(ce) is mem  # cached, not rebuilt
                want = sorted(
                    w.timestamp for w in live if w.get("k") == 1
                )
                got = [w.timestamp for w in mem.probe(("k",), (1,))]
                assert got == want
