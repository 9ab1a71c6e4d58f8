"""Alpha-level copy-and-constrain: ``compile_rules(rules, site=(k, s))``.

The process pool gives site ``s`` of ``k`` every rule, with every CE that
shares the rule's split variable also requiring ``('site', attr, k, s)`` —
the value at ``attr`` has :func:`value_residue` ``s`` — and a rule with no
shared variable keyed on one positive CE's timestamp instead. What that has
to guarantee, over the generated programs the indexing differential
already builds:

- the split variable is the one in the most negated CEs, then in the most
  CEs, the earliest bound on ties; every CE carrying it is keyed, in
  ``ces``, ``plan`` and every seeded plan alike, and two compilations from
  the same ``(k, s)`` (a worker's and the parent's fallback) are equal
  piece for piece; ``k == 1`` compiles what no site at all compiles;
- the residue contract: equal values share a residue (``1`` / ``1.0`` /
  ``True``, ``0`` / ``-0.0``, big ints and the floats equal to them,
  ``nil`` and absent), in every process whatever its hash seed, NaN has a
  fixed one, and a column cell hashes as the value it decodes to;
- the ``k`` constrained enumerations of a rule are pairwise disjoint and
  their union is the unconstrained enumeration, over ``AlphaCache`` and
  ``ColumnVectorCache`` alike, at every step of a churn-heavy script;
- the same holds for the *retained* sets of ``k`` set-oriented TREAT
  matchers fed incrementally, through removes and negated-CE unblocking.
"""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.ast import ConjunctiveTest, PredicateTest, VariableTest
from repro.lang.parser import parse_program
from repro.match.alphaindex import ColumnVectorCache
from repro.match.compile import (
    alpha_test_passes,
    compile_rule,
    compile_rules,
    split_keys,
    value_hash,
    value_residue,
)
from repro.match.join import enumerate_matches
from repro.match.treat import TreatMatcher
from repro.wm.columnar import ColumnarReader, ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

from .test_alpha_source import ColumnHarness, DictHarness
from .test_indexing_differential import (
    N_PROGRAMS,
    _mixed,
    _negation_program,
    _random_program,
    _random_script,
)

KS = (2, 3)


def site_conds(ce):
    return [cond for cond in ce.alpha_conds if cond[0] == "site"]


def keys(insts):
    return [i.key for i in insts]


def eq_occurrences(rule):
    """var -> {CE index: first attribute it occurs at with ``=``}, in
    order of first occurrence — read from the rule's source tests, not
    from the compiler."""
    out = {}
    for idx, ce in enumerate(rule.conditions):
        for attr, test in ce.tests:
            atoms = test.tests if isinstance(test, ConjunctiveTest) else (test,)
            for atom in atoms:
                if isinstance(atom, VariableTest):
                    var = atom.name
                elif (
                    isinstance(atom, PredicateTest)
                    and atom.predicate == "="
                    and isinstance(atom.operand, VariableTest)
                ):
                    var = atom.operand.name
                else:
                    continue
                out.setdefault(var, {}).setdefault(idx, attr)
    return out


class TestCompilation:
    def programs(self):
        for seed in range(N_PROGRAMS):
            rng = random.Random(1000 + seed)
            yield _random_program(rng)
            yield _negation_program(rng)

    def test_the_split_variable_keys_every_ce_it_occurs_in_in_every_plan_alike(self):
        planned = seeded = negated_keyed = by_timestamp = 0
        for program in self.programs():
            for rule in program.rules:
                plain = compile_rule(rule)
                occurs = eq_occurrences(rule)
                best, best_score = None, (0, 1)
                for at in occurs.values():
                    score = (
                        sum(rule.conditions[i].negated for i in at),
                        len(at),
                    )
                    if score > best_score:
                        best, best_score = at, score
                if best is None:
                    widest = min(
                        (ce for ce in plain.ces if not ce.negated),
                        key=lambda ce: (len(ce.alpha_conds), ce.index),
                    )
                    want_keys = {widest.index: None}
                    by_timestamp += 1
                else:
                    want_keys = best
                    negated_keyed += any(rule.conditions[i].negated for i in best)
                assert split_keys(plain.ces) == want_keys, rule.name
                for k in KS:
                    for s in range(k):
                        cr = compile_rule(rule, site=(k, s))
                        views = [cr.ces]
                        if cr.plan is not None:
                            views.append(cr.plan.ces)
                            planned += 1
                        for plan in cr.seeded_plans:
                            if plan is not None:
                                views.append(plan.ces)
                                seeded += 1
                        for ces in views:
                            for ce in ces:
                                want = (
                                    [("site", want_keys[ce.index], k, s)]
                                    if ce.index in want_keys
                                    else []
                                )
                                assert site_conds(ce) == want
                                # Everything but those conditions is what
                                # the plain compilation has.
                                assert (
                                    tuple(c for c in ce.alpha_conds if c[0] != "site")
                                    == plain.ces[ce.index].alpha_conds
                                )
        # The sweep reaches the plans, keyed negated CEs and timestamp splits.
        assert planned > 50 and seeded > 50
        assert negated_keyed > 50 and by_timestamp > 10

    def test_negated_ces_count_before_positive_ones(self):
        (rule,) = parse_program(
            "(p r (a ^k <x> ^m <y>) (b ^m <y>) (c ^m <y>) -(n ^k <x>)"
            " --> (halt))"
        ).rules
        assert split_keys(compile_rule(rule).ces) == {0: "k", 3: "k"}
        (rule,) = parse_program(
            "(p r (a ^k <x> ^m <y>) (b ^m <y>) (c ^k <x>) --> (halt))"
        ).rules
        assert split_keys(compile_rule(rule).ces) == {0: "k", 2: "k"}

    def test_same_site_compiles_equal_and_one_site_is_no_site(self):
        for program in self.programs():
            plain = compile_rules(program.rules)
            assert compile_rules(program.rules, site=None) == plain
            one = compile_rules(program.rules, site=(1, 0))
            for a, b in zip(one, plain):
                # ``plan`` and ``seeded_plans`` are excluded from equality.
                assert (a, a.plan, a.seeded_plans) == (b, b.plan, b.seeded_plans)
            for k in KS:
                for s in range(k):
                    worker = compile_rules(program.rules, site=(k, s))
                    parent = compile_rules(program.rules, site=(k, s))
                    for a, b in zip(worker, parent):
                        assert (a, a.plan, a.seeded_plans) == (
                            b, b.plan, b.seeded_plans,
                        )

    def test_site_out_of_range_is_refused(self):
        rule = next(iter(self.programs())).rules[0]
        for site in ((2, 2), (3, -1)):
            with pytest.raises(ValueError, match="site"):
                compile_rule(rule, site=site)


#: Values that ``==`` unifies, grouped: each group must share one hash.
EQUAL_GROUPS = [
    [1, 1.0, True],
    [0, -0.0, 0.0, False],
    [2**70, float(2**70)],
    [2**100, float(2**100)],
    [-(2**63), float(-(2**63))],
    [-1, -1.0],
    ["été", "".join(["é", "t", "é"])],
]

#: A spread of values whose hashes every process must agree on, as source
#: text both sides evaluate.
CROSS_PROCESS_VALUES = (
    "[0, 1, -1, -2, 7, 2**31, 2**32, 2**61 - 1, 2**61, 2**70, -(2**70), 1.5,"
    " -0.0, 1e300, float('inf'), float('-inf'), float('nan'), True, False,"
    " 'nil', 'a', 'n12', 'été', '日本語', '\\U0001f600', '']"
)


class TestSiteResidue:
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_equal_values_share_a_residue(self, k):
        for group in EQUAL_GROUPS:
            assert all(a == group[0] for a in group)
            assert len({value_residue(v, k) for v in group}) == 1, group

    @given(st.integers())
    @settings(max_examples=300, deadline=None)
    def test_an_int_hashes_as_the_float_and_bool_equal_to_it(self, n):
        try:
            f = float(n)
        except OverflowError:
            f = math.inf
        if f == n:
            assert value_hash(f) == value_hash(n)
        if n in (0, 1):
            assert value_hash(bool(n)) == value_hash(n)

    @given(st.floats(allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_an_integral_float_hashes_as_its_int(self, f):
        if math.isfinite(f) and f == int(f):
            assert value_hash(f) == value_hash(int(f))

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_a_symbol_hashes_as_its_utf8_bytes(self, text):
        # Two equal strings built apart: no identity for a hash to lean on.
        assert value_hash(text) == value_hash("".join(list(text)))
        assert 0 <= value_hash(text) < 2**32

    def test_nan_has_a_fixed_residue(self):
        a, b = float("nan"), float("inf") - float("inf")
        assert a is not b
        assert value_hash(a) == value_hash(b)
        assert {value_residue(a, k) for k in (2, 3)} == {
            value_residue(b, k) for k in (2, 3)
        }

    def test_residues_are_the_same_in_every_process(self):
        """``hash()`` of a string is seeded per interpreter; the residue
        must not be."""
        script = (
            "from repro.match.compile import value_hash\n"
            f"print([value_hash(v) for v in {CROSS_PROCESS_VALUES}])\n"
        )
        here = [value_hash(v) for v in eval(CROSS_PROCESS_VALUES)]
        for seed in ("0", "12345", "random"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.strip() == str(here), seed

    def test_every_timestamp_has_exactly_one_site(self):
        for k in (1, 2, 3, 4, 7):
            for ts in list(range(1, 500)) + [2**31 - 1, 2**32, 2**40 + 3]:
                residue = value_residue(ts, k)
                assert 0 <= residue < k
                passing = [
                    s
                    for s in range(k)
                    if alpha_test_passes(
                        (("site", None, k, s),), WME("a", {}, ts)
                    )
                ]
                assert passing == [residue]

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 8, 13, 21, 34, 100])
    def test_arithmetic_progressions_reach_every_site(self, k, stride):
        """A cycle that makes (or modifies) a fixed number of WMEs gives a
        class's new WMEs timestamps in an arithmetic progression, and
        generated keys are often consecutive ints; no stride may starve a
        site or hand one everything."""
        for base in (1, 12_001, 1_000_003):
            counts = [0] * k
            for i in range(120):
                counts[value_residue(base + i * stride, k)] += 1
            assert min(counts) >= 120 / k / 2, (base, counts)
            assert max(counts) <= 120 / k * 1.6, (base, counts)

    def test_column_cells_hash_as_their_values(self):
        """The column kernel hashes cells from their packed form (ints from
        the payload, symbols once per heap offset): it must agree with the
        decoded value's hash on every kind of cell, absent included."""
        rng = random.Random(7)
        pool = [
            1, 1.0, True, False, 0, -0.0, -7, 1.5, 2**70, float(2**70),
            float("nan"), "sym", "nil", "été", "日本", None,
        ]
        wm = ColumnarWorkingMemory(initial_capacity=2)
        reader = None
        try:
            wmes = []
            for _ in range(200):
                attrs = {}
                for attr in ("k", "m"):
                    pick = rng.choice(pool)
                    if pick is not None:
                        attrs[attr] = pick
                wmes.append(wm.make("a", attrs))
            reader = ColumnarReader(wm.attach_spec())
            cache = ColumnVectorCache(reader)
            table = reader.table(reader.cid_of("a"))
            for _ in range(2):  # the second pass reads the symbol memo
                for row, wme in enumerate(wmes):
                    for attr in ("k", "m", "never-set"):
                        assert cache.cell_hash(table, row, attr) == value_hash(
                            wme.get(attr)
                        ), (row, attr, wme)
        finally:
            if reader is not None:
                reader.close()
            wm.close()


@pytest.mark.parametrize("make_harness", [DictHarness, ColumnHarness])
@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 2))
def test_constrained_enumerations_partition_the_unconstrained(make_harness, seed):
    rng = random.Random(1000 + seed)
    program = _random_program(rng)
    script = _random_script(rng)
    plain = compile_rules(program.rules)
    shares = {
        k: [compile_rules(program.rules, site=(k, s)) for s in range(k)] for k in KS
    }
    harness = make_harness(())
    try:
        live = []
        for step in script:
            if step[0] == "add":
                _tag, cls, kval, mval = step
                live.append(harness.add(cls, {"k": kval, "m": mval}))
            elif live:
                harness.remove(live.pop(step[1] % len(live)))
            else:
                continue
            harness.sync()
            for pos, cr in enumerate(plain):
                full = keys(enumerate_matches(cr, None, alpha_source=harness.source))
                for k in KS:
                    parts = [
                        keys(
                            enumerate_matches(
                                share[pos], None, alpha_source=harness.source
                            )
                        )
                        for share in shares[k]
                    ]
                    union = [key for part in parts for key in part]
                    assert len(set(union)) == len(union), (seed, step, cr.name, k)
                    assert sorted(union) == sorted(full), (seed, step, cr.name, k)
                    for part in parts:  # each share keeps the rule's order
                        assert part == [key for key in full if key in set(part)]
    finally:
        harness.close()


class ColumnMatchers:
    """One set-oriented TREAT matcher per share (and one unconstrained),
    each over its own reader of one columnar store — what ``k`` attached
    workers hold."""

    def __init__(self, rules, sites):
        self.wm = ColumnarWorkingMemory(initial_capacity=2)
        self.readers, self.caches, self.matchers = [], [], []
        for site in sites:
            reader = ColumnarReader(self.wm.attach_spec())
            cache = ColumnVectorCache(reader)
            self.readers.append(reader)
            self.caches.append(cache)
            self.matchers.append(
                TreatMatcher(rules, WorkingMemory(), alpha=cache, site=site)
            )

    def instantiations(self):
        info = self.wm.cycle_info()
        for cache in self.caches:
            cache.refresh(info)
        return [m.instantiations() for m in self.matchers]

    def close(self):
        for reader in self.readers:
            reader.close()
        self.wm.close()


class DictMatchers:
    def __init__(self, rules, sites):
        self.wm = WorkingMemory()
        self.matchers = [TreatMatcher(rules, self.wm, site=site) for site in sites]

    def instantiations(self):
        return [m.instantiations() for m in self.matchers]

    def close(self):
        pass


@pytest.mark.parametrize("make", [DictMatchers, ColumnMatchers])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 3))
def test_retained_shares_partition_the_conflict_set_under_churn(make, k, seed):
    """Cycles of adds, removes and modifies over programs whose negated CEs
    block and unblock: after each, the sites' retained sets are disjoint
    and add up to the unconstrained matcher's."""
    rng = random.Random(4000 + seed)
    program = _negation_program(rng)
    group = make(program.rules, [None] + [(k, s) for s in range(k)])
    wm = group.wm
    try:
        live = []
        for cycle in range(12):
            for _ in range(rng.randint(1, 6)):
                op = rng.random()
                if op < 0.5 or not live:
                    cls = rng.choice(["a", "b", "n", "n"])
                    live.append(wm.make(cls, k=_mixed(rng), m=_mixed(rng)))
                elif op < 0.75:
                    wm.remove(live.pop(rng.randrange(len(live))))
                else:
                    old = live.pop(rng.randrange(len(live)))
                    wm.remove(old)
                    attrs = dict(old.attributes)
                    attrs[rng.choice(["k", "m"])] = _mixed(rng)
                    live.append(wm.make(old.class_name, attrs))
            full, *parts = (keys(insts) for insts in group.instantiations())
            union = [key for part in parts for key in part]
            assert len(set(union)) == len(union), (seed, cycle)
            assert sorted(union) == sorted(full), (seed, cycle)
    finally:
        group.close()


@pytest.mark.parametrize("make", [DictMatchers, ColumnMatchers])
def test_an_unblocked_instantiation_appears_at_its_values_site_only(make):
    """Both CEs of the rule share ``<x>``, so both are keyed on it: the
    blocker lives only in the memory of the site ``x``'s value maps to,
    and retracting it re-enumerates the rule at every site, where only
    that site may find the instantiation."""
    rules = parse_program("(p r (a ^k <x>) -(n ^k <x>) --> (halt))").rules
    k = 3
    group = make(rules, [(k, s) for s in range(k)])
    wm = group.wm
    values = list(range(8)) + ["s0", "s1", "été", 2**70]
    try:
        blockers = {}
        for x in values:
            wm.make("a", k=x)
            blockers[x] = wm.make("n", k=x)
        assert group.instantiations() == [[], [], []]
        for site, matcher in enumerate(group.matchers):
            negated = matcher.compiled[0].ces[1]
            held = sorted(
                (w.timestamp for w in matcher._alpha.memory(negated))
            )
            assert held == sorted(
                b.timestamp
                for x, b in blockers.items()
                if value_residue(x, k) == site
            )
        owners = set()
        for x, blocker in blockers.items():
            wm.remove(blocker)
            parts = group.instantiations()
            found = [
                s for s, part in enumerate(parts) if any(i.env["x"] == x for i in part)
            ]
            assert found == [value_residue(x, k)]
            owners.update(found)
        assert owners == set(range(k))
        assert sum(len(part) for part in group.instantiations()) == len(values)
    finally:
        group.close()
