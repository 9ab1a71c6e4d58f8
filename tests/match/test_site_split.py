"""Alpha-level copy-and-constrain: ``compile_rules(rules, site=(k, s))``.

The process pool gives site ``s`` of ``k`` every rule, with one positive CE
per rule also requiring ``('site', k, s)`` — the WME's timestamp mixes to
residue ``s``. What that has to guarantee, over the generated programs the
indexing differential already builds:

- the ``k`` constrained enumerations of a rule are pairwise disjoint and
  their union is the unconstrained enumeration, over ``AlphaCache`` and
  ``ColumnVectorCache`` alike, at every step of a churn-heavy script;
- the same holds for the *retained* sets of ``k`` set-oriented TREAT
  matchers fed incrementally, through removes and negated-CE unblocking;
- the constrained CE is never negated, is one CE per rule, carries the
  condition in ``ces``, ``plan`` and every seeded plan alike, and two
  compilations from the same ``(k, s)`` (a worker's and the parent's
  fallback) are equal piece for piece; ``k == 1`` compiles what no site at
  all compiles.
"""

import random

import pytest

from repro.match.alphaindex import ColumnVectorCache
from repro.match.compile import (
    alpha_test_passes,
    compile_rule,
    compile_rules,
    site_residue,
    split_ce,
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


class TestCompilation:
    def programs(self):
        for seed in range(N_PROGRAMS):
            rng = random.Random(1000 + seed)
            yield _random_program(rng)
            yield _negation_program(rng)

    def test_one_positive_ce_per_rule_in_every_plan_alike(self):
        planned = seeded = 0
        for program in self.programs():
            for rule in program.rules:
                plain = compile_rule(rule)
                chosen = split_ce(plain.ces)
                assert not plain.ces[chosen].negated
                fewest = min(
                    len(ce.alpha_conds) for ce in plain.ces if not ce.negated
                )
                assert len(plain.ces[chosen].alpha_conds) == fewest
                assert all(
                    ce.negated or len(ce.alpha_conds) > fewest
                    for ce in plain.ces[:chosen]
                )
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
                                want = [("site", k, s)] if ce.index == chosen else []
                                assert site_conds(ce) == want
                                # Everything but that one condition is what
                                # the plain compilation has.
                                assert (
                                    tuple(c for c in ce.alpha_conds if c[0] != "site")
                                    == plain.ces[ce.index].alpha_conds
                                )
        assert planned > 50 and seeded > 50  # the sweep reaches the plans

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


class TestSiteResidue:
    def test_every_timestamp_has_exactly_one_site(self):
        for k in (1, 2, 3, 4, 7):
            for ts in list(range(1, 500)) + [2**31 - 1, 2**32, 2**40 + 3]:
                residue = site_residue(ts, k)
                assert 0 <= residue < k
                passing = [
                    s
                    for s in range(k)
                    if alpha_test_passes((("site", k, s),), WME("a", {}, ts))
                ]
                assert passing == [residue]

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 8, 13, 21, 34, 100])
    def test_arithmetic_progressions_reach_every_site(self, k, stride):
        """A cycle that makes (or modifies) a fixed number of WMEs gives a
        class's new WMEs timestamps in an arithmetic progression; no
        stride may starve a site or hand one everything."""
        for base in (1, 12_001, 1_000_003):
            counts = [0] * k
            for i in range(120):
                counts[site_residue(base + i * stride, k)] += 1
            assert min(counts) >= 120 / k / 2, (base, counts)
            assert max(counts) <= 120 / k * 1.6, (base, counts)


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
def test_an_unblocked_instantiation_appears_at_its_owner_only(make):
    """Retracting the WME a negated CE was matching re-enumerates the rule
    at every site; only the split CE's owner may find the instantiation."""
    from repro.lang.parser import parse_program

    rules = parse_program("(p r (a ^k <x>) -(n ^k <x>) --> (halt))").rules
    k = 3
    group = make(rules, [(k, s) for s in range(k)])
    wm = group.wm
    try:
        blockers = {}
        for x in range(12):
            wm.make("a", k=x)
            blockers[x] = wm.make("n", k=x)
        assert group.instantiations() == [[], [], []]
        owners = set()
        for x, blocker in blockers.items():
            wm.remove(blocker)
            parts = group.instantiations()
            found = [
                s for s, part in enumerate(parts) if any(i.env["x"] == x for i in part)
            ]
            (a,) = [w for w in wm.by_class("a") if w.get("k") == x]
            assert found == [site_residue(a.timestamp, k)]
            owners.update(found)
        assert owners == set(range(k))
        assert sum(len(part) for part in group.instantiations()) == 12
    finally:
        group.close()
