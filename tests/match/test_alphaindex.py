"""Unit tests for the indexed alpha-memory layer."""

import gc
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang.builder import ProgramBuilder, v
from repro.match.alphaindex import AlphaCache, IndexedMemory
from repro.match.compile import compile_rule
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME
from tests.match.dict_bucket_memory import DictBucketMemory


def _wmes(*attrs_list):
    return [
        WME("item", attrs, ts + 1) for ts, attrs in enumerate(attrs_list)
    ]


class TestIndexedMemory:
    def test_insertion_order_preserved(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1}, {"k": 2}, {"k": 1})
        for w in wmes:
            mem.add(w)
        assert list(mem) == wmes
        assert len(mem) == 3

    def test_probe_returns_ordered_bucket(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1, "m": 0}, {"k": 2, "m": 0}, {"k": 1, "m": 1})
        for w in wmes:
            mem.add(w)
        bucket = mem.probe(("k",), (1,))
        assert list(bucket) == [wmes[0], wmes[2]]
        assert mem.probe(("k",), (9,)) == ()

    def test_probe_compound_key(self):
        mem = IndexedMemory()
        wmes = _wmes({"k": 1, "m": 0}, {"k": 1, "m": 1}, {"k": 1, "m": 0})
        for w in wmes:
            mem.add(w)
        assert list(mem.probe(("k", "m"), (1, 0))) == [wmes[0], wmes[2]]

    def test_index_maintained_after_build(self):
        mem = IndexedMemory()
        first, second, third = _wmes({"k": 1}, {"k": 1}, {"k": 1})
        mem.add(first)
        assert list(mem.probe(("k",), (1,))) == [first]  # builds the index
        mem.add(second)
        mem.add(third)
        assert mem.remove(second)
        assert list(mem.probe(("k",), (1,))) == [first, third]
        assert mem.index_count == 1

    def test_remove_unknown_is_noop(self):
        mem = IndexedMemory()
        (only,) = _wmes({"k": 1})
        assert not mem.remove(only)
        mem.add(only)
        assert only in mem
        assert mem.remove(only)
        assert only not in mem
        assert mem.probe(("k",), (1,)) == ()


def _one_ce_rule():
    pb = ProgramBuilder()
    pb.rule("r").ce("item", k=v("x")).halt()
    return compile_rule(pb.build(analyze=False).rules[0], plan=False)


class TestAlphaCache:
    def test_lazy_prime_in_timestamp_order(self):
        wm = WorkingMemory()
        wmes = [wm.make("item", {"k": i % 2}) for i in range(4)]
        cache = AlphaCache(wm)
        ce = _one_ce_rule().ces[0]
        mem = cache.memory(ce)
        assert list(mem) == wmes
        assert cache.memory(ce) is mem  # cached, not re-primed

    def test_listener_keeps_memory_current(self):
        wm = WorkingMemory()
        cache = AlphaCache(wm)
        ce = _one_ce_rule().ces[0]
        mem = cache.memory(ce)
        assert len(mem) == 0
        a = wm.make("item", {"k": 1})
        b = wm.make("item", {"k": 2})
        cache.attach()
        # Pre-attach WMEs were primed lazily? No — memory was primed while
        # empty, and apply() only runs once attached: feed them explicitly.
        cache.apply([a, b], True)
        c = wm.make("item", {"k": 3})  # via listener
        assert list(mem) == [a, b, c]
        wm.remove(b)
        assert list(mem) == [a, c]
        cache.detach()
        wm.make("item", {"k": 4})
        assert len(mem) == 2  # detached: no longer maintained

    def test_unprimed_classes_ignored_by_apply(self):
        wm = WorkingMemory()
        cache = AlphaCache(wm)
        other = wm.make("other", {"k": 1})
        cache.apply([other], True)  # no primed memory for 'other': no-op
        ce = _one_ce_rule().ces[0]
        assert len(cache.memory(ce)) == 0

    def test_alpha_tests_counted_globally_only(self):
        wm = WorkingMemory()
        for i in range(3):
            wm.make("item", {"k": i})
        stats = MatchStats()
        cache = AlphaCache(wm, stats)
        cache.memory(_one_ce_rule().ces[0])
        assert stats.totals["alpha_tests"] == 3
        assert all(
            bucket.get("alpha_tests", 0) == 0
            for bucket in stats.per_rule.values()
        )


# -- lone-WME holders against the dict-bucket reference -------------------------

_NAN = float("nan")
#: Key values that share a dict slot (``1 == 1.0 == True``), a shared NaN
#: (a tuple holding it equals itself, by identity) and fresh NaNs (equal
#: to nothing). An attribute left out reads as NIL.
_KEY_VALUES = st.one_of(
    st.sampled_from([1, 1.0, True, 0, False, "a", "b", _NAN]),
    st.builds(float, st.just("nan")),
)
_POOL = st.lists(
    st.fixed_dictionaries({}, optional={"k": _KEY_VALUES, "m": _KEY_VALUES}),
    min_size=1,
    max_size=8,
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "build"]), st.integers(0, 7)),
    max_size=40,
)
_INDEX_ATTRS = [("k",), ("m",), ("k", "m")]


def _ids(wmes):
    return [id(w) for w in wmes]


def _same(mem, ref, built, pool):
    """``mem`` answers like ``ref`` for every index in ``built``, probed
    with every key in ``pool`` and two keys no WME has; and no key of
    ``mem`` keeps a bucket for fewer than two members."""
    assert len(mem) == len(ref)
    assert _ids(mem) == _ids(ref)
    for attrs in built:
        probes = [tuple(w.get(a) for a in attrs) for w in pool]
        probes += [(2,) * len(attrs), (float("nan"),) * len(attrs)]
        for values in probes:
            assert _ids(mem.probe(attrs, values)) == _ids(ref.probe(attrs, values))
            assert mem.probe_exists(attrs, values) == ref.probe_exists(attrs, values)
    for index in mem._indexes.values():
        for held in index.values():
            assert type(held) is not dict or len(held) > 1


@settings(max_examples=300, deadline=None)
@given(_POOL, _OPS, st.randoms(use_true_random=False))
def test_indexed_memory_matches_the_dict_bucket_reference(pool, ops, rnd):
    wmes = [WME("item", attrs, ts) for ts, attrs in enumerate(pool, 1)]
    mem, ref = IndexedMemory(), DictBucketMemory()
    built = []
    for op, i in ops:
        wme = wmes[i % len(wmes)]
        if op == "add":  # a second add of a member is a no-op in both
            mem.add(wme)
            ref.add(wme)
        elif op == "remove":
            assert mem.remove(wme) == ref.remove(wme)
        elif _INDEX_ATTRS[i % 3] not in built:
            built.append(_INDEX_ATTRS[i % 3])  # built now, kept from here on
        _same(mem, ref, built, wmes)
    # Indexes not built yet are built after the adds; then drain the
    # members one at a time, through one member per key down to none.
    _same(mem, ref, _INDEX_ATTRS, wmes)
    left = list(ref)
    rnd.shuffle(left)
    for wme in left:
        assert mem.remove(wme) and ref.remove(wme)
        _same(mem, ref, _INDEX_ATTRS, wmes)
    assert all(not index for index in mem._indexes.values())


N_RATCHET = 20_000
#: Traced bytes a unique-key index adds per WME on Python 3.11: 302 with a
#: bucket dict per key (``DictBucketMemory``'s layout), 78 with each lone
#: WME held directly (its key tuple plus its share of the index dict).
MAX_INDEX_BYTES_PER_WME = 120


def test_a_unique_key_index_keeps_no_bucket_per_wme():
    wmes = [WME("item", {"k": i, "m": 0}, i + 1) for i in range(N_RATCHET)]
    mem = IndexedMemory()
    mem.bulk_add(wmes)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert mem.probe(("k",), (7,)) == (wmes[7],)  # builds the index
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_wme = (after - before) / N_RATCHET
    assert per_wme <= MAX_INDEX_BYTES_PER_WME, f"{per_wme:.0f} B per WME"
