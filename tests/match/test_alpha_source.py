"""Conformance of the alpha-source protocol (``repro.match.alphaindex``).

Every source the join enumerator can be handed must read the same: for the
CE's alpha key, ``source.memory(ce)`` iterates, counts and probes exactly
the alpha-passing WMEs of the store in timestamp order, whatever mix of
values the facts carry and however they churn. The two sources with a
write side (``watch``) must also report exactly the alpha-passing adds and
removes. Checked against a filtered scan of the store, over:

- ``AlphaCache`` on a dict working memory,
- ``ColumnVectorCache`` on a ``ColumnarReader`` of a columnar store,
- redaction's ``_PhaseSource`` (phase-local ``instantiation`` memories in
  front of an ``AlphaCache`` for every other class; read side only — a
  phase has no deltas to push).
"""

import random

import pytest

from repro.core.redaction import _PhaseSource
from repro.lang.analysis import INSTANTIATION_CLASS
from repro.lang.parser import parse_program
from repro.match.alphaindex import AlphaCache, ColumnVectorCache, IndexedMemory
from repro.match.compile import alpha_test_passes, compile_rules
from repro.match.join import enumerate_matches
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

from .test_indexing_differential import N_PROGRAMS, _random_program, _random_script

#: Alpha patterns under test: unconditional, constant tests on a number
#: (which ``1`` / ``1.0`` / ``True`` all pass), on a symbol and on ``nil``
#: (which an absent attribute passes too), a predicate, an intra-WME test —
#: and two over ``late``, a class first asserted long after ``watch``.
CES = compile_rules(
    parse_program(
        f"""
        (p r (a ^k <x>) (a ^k 1) (a ^k sym) (a ^m nil) (a ^m > 0)
             (b ^k <y> ^m <y>) ({INSTANTIATION_CLASS} ^k <z>)
             ({INSTANTIATION_CLASS} ^k 1) (late ^k <w>) (late ^k 1)
         --> (halt))
        """
    ).rules
)[0].ces

CLASSES = ["a", "b", INSTANTIATION_CLASS]
PROBE_ATTRS = [("k",), ("m",), ("k", "m"), ("never-set",)]


def value(rng):
    """One attribute value (``None`` = leave the attribute absent). Every
    NaN is a fresh object, as two WMEs' NaNs are."""
    pick = rng.choice(
        [1, 1.0, True, 0, -7, 1.5, "nan", 2**70, float(2**70), "sym", "nil", None]
    )
    return float("nan") if pick == "nan" else pick


def probe_value(rng):
    """Probe values also include ones no fact ever carries."""
    if rng.random() < 0.2:
        return rng.choice(["never-interned", 3**50, 2.5, False])
    pick = value(rng)
    return "nil" if pick is None else pick


class DictHarness:
    """``AlphaCache`` over a dict store, kept current by its own listener."""

    def __init__(self, ces):
        self.wm = WorkingMemory()
        self.source = AlphaCache(self.wm)
        self.source.attach()

    def add(self, cls, attrs):
        return self.wm.make(cls, attrs)

    def remove(self, wme):
        self.wm.remove(wme)

    def sync(self):
        pass

    def stored(self, cls):
        return self.wm.by_class(cls)

    def close(self):
        self.source.detach()


class ColumnHarness(DictHarness):
    """``ColumnVectorCache`` over a reader of a columnar store, advanced
    from the shared journal on ``sync``."""

    def __init__(self, ces):
        self.wm = ColumnarWorkingMemory(initial_capacity=2)
        self.reader = ColumnarReader(self.wm.attach_spec())
        self.source = ColumnVectorCache(self.reader)

    def sync(self):
        self.source.refresh(self.wm.cycle_info())

    def close(self):
        self.reader.close()
        self.wm.close()


class PhaseHarness(DictHarness):
    """``_PhaseSource``: ``instantiation`` WMEs never enter the store —
    they are filed into one phase-local memory per alpha key, the way
    ``MetaLevel.redact`` files a phase's reifications."""

    def __init__(self, ces):
        super().__init__(ces)
        self.cache = self.source
        self.phase = {}
        self.reified = {
            ce.alpha_key: IndexedMemory()
            for ce in ces
            if ce.class_name == INSTANTIATION_CLASS
        }
        self.source = _PhaseSource(self.reified, self.cache)

    def add(self, cls, attrs):
        if cls != INSTANTIATION_CLASS:
            return super().add(cls, attrs)
        wme = WME(cls, attrs, self.wm.allocate_timestamp())
        self.phase[wme] = None
        for key, mem in self.reified.items():
            if alpha_test_passes(key[1], wme):
                mem.add(wme)
        return wme

    def remove(self, wme):
        if wme.class_name != INSTANTIATION_CLASS:
            return super().remove(wme)
        del self.phase[wme]
        for mem in self.reified.values():
            mem.remove(wme)

    def stored(self, cls):
        if cls == INSTANTIATION_CLASS:
            return list(self.phase)
        return super().stored(cls)

    def close(self):
        self.cache.detach()


def scan(harness, ce):
    """The reference: the store's WMEs of the CE's class that pass its
    alpha conditions, in timestamp order."""
    return [
        w
        for w in sorted(harness.stored(ce.class_name), key=lambda w: w.timestamp)
        if alpha_test_passes(ce.alpha_conds, w)
    ]


def stamps(wmes):
    return [w.timestamp for w in wmes]


def churn(rng, harness, live, classes):
    """One add (or, a third of the time once warm, one remove)."""
    if live and rng.random() < 0.35:
        wme = live.pop(rng.randrange(len(live)))
        harness.remove(wme)
        return "remove", wme
    attrs = {a: val for a in ("k", "m") if (val := value(rng)) is not None}
    wme = harness.add(rng.choice(classes), attrs)
    live.append(wme)
    return "add", wme


@pytest.fixture(params=[DictHarness, ColumnHarness, PhaseHarness])
def harness(request):
    h = request.param(CES)
    try:
        yield h
    finally:
        h.close()


@pytest.mark.parametrize("seed", range(8))
def test_memories_read_as_a_filtered_timestamp_order_scan(harness, seed):
    rng = random.Random(9000 + seed)
    live = []
    for step in range(90):
        # ``late`` joins the class pool two thirds of the way through: its
        # memories were requested (and empty) long before its first fact.
        churn(rng, harness, live, CLASSES + ["late"] * (step >= 60))
        if rng.random() < 0.6:
            continue  # several events per sync, like a cycle's delta
        harness.sync()
        for ce in CES:
            want = scan(harness, ce)
            mem = harness.source.memory(ce)
            assert stamps(mem) == stamps(want), (seed, step, ce.alpha_key)
            assert len(mem) == len(want)
            for attrs in PROBE_ATTRS:
                values = tuple(probe_value(rng) for _ in attrs)
                hits = [
                    w
                    for w in want
                    if all(w.get(a) == val for a, val in zip(attrs, values))
                ]
                assert stamps(mem.probe(attrs, values)) == stamps(hits), (
                    seed, step, ce.alpha_key, attrs, values,
                )
                assert mem.probe_exists(attrs, values) == bool(hits)


class RecordingSink:
    def __init__(self):
        self.events = []

    def alpha_added(self, key, wmes):
        assert wmes
        self.events.extend(("add", key, wme.timestamp) for wme in wmes)

    def alpha_removed(self, keys, wme):
        assert len(set(keys)) == len(keys)
        self.events.extend(("remove", key, wme.timestamp) for key in keys)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("make_harness", [DictHarness, ColumnHarness])
def test_watch_reports_exactly_the_alpha_passing_deltas(make_harness, seed):
    rng = random.Random(9500 + seed)
    harness = make_harness(CES)
    try:
        live = []
        for _ in range(10):  # watch a populated store: priming is silent
            churn(rng, harness, live, CLASSES)
        harness.sync()
        sink = RecordingSink()
        harness.source.watch(CES, sink)
        assert sink.events == []
        keys = list(dict.fromkeys(ce.alpha_key for ce in CES))
        for step in range(80):
            op, wme = churn(rng, harness, live, CLASSES + ["late"] * (step >= 40))
            harness.sync()
            want = [
                (op, key, wme.timestamp)
                for key in keys
                if key[0] == wme.class_name and alpha_test_passes(key[1], wme)
            ]
            assert sorted(sink.events, key=repr) == sorted(want, key=repr), (
                seed, step, op, wme,
            )
            sink.events.clear()
        # The memories the deltas described are the ones the read side sees.
        for ce in CES:
            assert stamps(harness.source.memory(ce)) == stamps(scan(harness, ce))
    finally:
        harness.close()


#: Value pool for the random-program axis: symbols, bigints, negative ints,
#: floats (integral and not), bools and nil — spanning the packed-key
#: kinds and both fallback triggers (see ``alphaindex.py``'s keying note).
VEC_VALUES = [0, 1, -7, 2**70, 2.0, 1.5, "sym", "oth-er", "nil", True]

RULE = compile_rules(
    parse_program("(p r (a ^k <k>) (b ^k <k> ^m <v>) -(c ^k <k>) --> (halt))").rules
)[0]


def test_an_empty_memory_hides_the_class(harness):
    """A class the source holds nothing of — never asserted at all, for
    the column cache not even a table — yields no candidate: a positive CE
    over it kills the join, a negated CE over it blocks nothing."""
    for k in (1, 2):
        harness.add("a", {"k": k})
    harness.sync()
    assert list(enumerate_matches(RULE, None, alpha_source=harness.source)) == []
    b1 = harness.add("b", {"k": 1, "m": "x"})
    harness.sync()
    found = list(enumerate_matches(RULE, None, alpha_source=harness.source))
    assert [i.key[1] for i in found] == [(1, b1.timestamp, 0)]
    harness.add("c", {"k": 1})
    harness.sync()
    assert list(enumerate_matches(RULE, None, alpha_source=harness.source)) == []


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_enumeration_identical_over_dict_and_column_sources(seed):
    """Random programs under a churn-heavy script: after every step each
    rule's ordered conflict set over the column cache (lazy, packed-key
    probes) equals the one over the dict cache (WME objects), and the
    nested-loop reference scan of the same memories."""
    rng = random.Random(7000 + seed)
    compiled = compile_rules(_random_program(rng, VEC_VALUES).rules)
    script = _random_script(rng, 24, VEC_VALUES)
    harnesses = [DictHarness(()), ColumnHarness(())]
    try:
        live = []
        for step in script:
            if step[0] == "add":
                _tag, cls, k, mval = step
                live.append([h.add(cls, {"k": k, "m": mval}) for h in harnesses])
            elif live:
                for h, wme in zip(harnesses, live.pop(step[1] % len(live))):
                    h.remove(wme)
            else:
                continue
            images = []
            for h in harnesses:
                h.sync()
                images.append(
                    [
                        (i.key, sorted(i.env.items()))
                        for cr in compiled
                        for i in enumerate_matches(cr, None, alpha_source=h.source)
                    ]
                )
            images.append(
                [
                    (i.key, sorted(i.env.items()))
                    for cr in compiled
                    for i in enumerate_matches(
                        cr, None, alpha_source=harnesses[0].source, indexed=False
                    )
                ]
            )
            assert images[0] == images[1] == images[2], (
                f"seed {seed}: sources diverge after {step}"
            )
    finally:
        for h in harnesses:
            h.close()


def test_a_class_first_seen_in_a_refresh_that_also_retracts():
    """A retraction makes TREAT flush mid-journal. A watched class whose
    first rows arrive in that same refresh must stay empty to that flush
    (its records are being skipped) and be reported whole afterwards —
    a memory built mid-journal would show the new rows to the pending
    batches only, and the older WMEs would never be joined with them."""
    from repro.match.treat import TreatMatcher

    rules = parse_program("(p r (b ^k <x>) (a ^k <x>) --> (halt))").rules
    wm = ColumnarWorkingMemory(initial_capacity=2)
    reader = ColumnarReader(wm.attach_spec())
    try:
        cache = ColumnVectorCache(reader)
        matcher = TreatMatcher(rules, WorkingMemory(), alpha=cache)
        old, doomed = wm.make("b", k=1), wm.make("b", k=1)
        cache.refresh(wm.cycle_info())
        assert matcher.instantiations() == []
        new = wm.make("b", k=1)
        first_a = wm.make("a", k=1)
        wm.remove(doomed)
        cache.refresh(wm.cycle_info())
        assert sorted(i.key[1] for i in matcher.instantiations()) == [
            (old.timestamp, first_a.timestamp),
            (new.timestamp, first_a.timestamp),
        ]
    finally:
        reader.close()
        wm.close()
