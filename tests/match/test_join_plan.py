"""The join planner: determinism, alpha-key stability, order equivalence."""

from repro.lang.builder import ProgramBuilder, v
from repro.match.compile import compile_rule, compile_rules
from repro.match.join import enumerate_matches
from repro.wm.memory import WorkingMemory


def _rule(build):
    pb = ProgramBuilder()
    build(pb)
    return pb.build(analyze=False).rules[0]


class TestPlanShape:
    def test_single_ce_has_no_plan(self):
        rule = _rule(lambda pb: pb.rule("r").ce("a", k=v("x")).halt())
        cr = compile_rule(rule)
        assert cr.plan is None
        assert cr.seeded_plans == (None,)

    def test_identity_optimal_order_has_no_plan(self):
        # Two equally-unselective CEs: ties resolve to the identity order.
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"))
            .halt()
        )
        assert compile_rule(rule).plan is None

    def test_selective_ce_moves_first(self):
        # CE 1 carries a constant test (selectivity proxy): planned first.
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"), m=1)
            .halt()
        )
        cr = compile_rule(rule)
        assert cr.plan is not None
        assert cr.plan.order == (1, 0)
        # Re-classified for the new order: CE1 now binds x, CE0 joins on it.
        first, second = cr.plan.ces
        assert first.index == 1 and ("k", "x") in first.bindings
        assert second.index == 0 and ("k", "=", "x") in second.join_tests

    def test_plan_is_deterministic(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"), m=1)
            .ce("c", k=v("x"), m=2)
            .halt()
        )
        plans = [compile_rule(rule).plan.order for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]

    def test_negated_ce_floats_to_binder(self):
        # Negation placed as soon as its variables are bound, even when a
        # later positive CE is reordered ahead.
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .neg("n", k=v("x"))
            .ce("b", k=v("x"), m=1)
            .halt()
        )
        cr = compile_rule(rule)
        assert cr.plan is not None
        order = cr.plan.order
        # The negated CE (original index 1) comes after some binder of x.
        assert order.index(1) > order.index(order[0])
        assert sorted(order) == [0, 1, 2]


class TestAlphaKeyStability:
    def test_local_conds_pin_the_identity_alpha_key(self):
        # x occurs twice in CE 1; identity classifies both as join tests.
        # Pinned-first re-classification turns the second occurrence into
        # an intra-CE cond — which must NOT leak into the alpha key.
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("c1", a=v("x"))
            .ce("c2", a=v("x"), b=v("x"))
            .halt()
        )
        cr = compile_rule(rule)
        identity_ce = cr.ces[1]
        seeded = cr.seeded_plan(1)
        assert seeded is not None and seeded.order[0] == 1
        planned_ce = seeded.ces[0]
        assert planned_ce.alpha_key == identity_ce.alpha_key
        assert ("intra", "b", "=", "a") in planned_ce.local_conds

    def test_identity_ces_never_carry_local_conds(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("c1", a=v("x"))
            .ce("c2", a=v("x"), b=v("x"))
            .halt()
        )
        for ce in compile_rule(rule).ces:
            assert ce.local_conds == ()


class TestSeededPlans:
    def test_pinned_ce_visits_first(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"))
            .halt()
        )
        cr = compile_rule(rule)
        seeded = cr.seeded_plan(1)
        assert seeded is not None and seeded.order == (1, 0)
        assert cr.seeded_plan(0) is None  # identity already pins CE 0 first

    def test_out_of_range_is_none(self):
        rule = _rule(lambda pb: pb.rule("r").ce("a", k=v("x")).halt())
        assert compile_rule(rule).seeded_plan(7) is None


class TestPlanEquivalence:
    def _load(self, wm):
        for i in range(4):
            wm.make("a", {"k": i % 2})
        for i in range(4):
            wm.make("b", {"k": i % 2, "m": 1 if i < 2 else 2})

    def test_same_instantiations_same_order_as_noindex(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"), m=1)
            .halt()
        )
        cr = compile_rules([rule])[0]
        assert cr.plan is not None  # the reorder actually happens
        wm = WorkingMemory()
        self._load(wm)
        indexed = [i.key for i in enumerate_matches(cr, wm, indexed=True)]
        legacy = [i.key for i in enumerate_matches(cr, wm, indexed=False)]
        assert indexed == legacy
        assert indexed  # non-vacuous

    def test_wmes_restored_to_original_positions(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"), m=1)
            .halt()
        )
        cr = compile_rules([rule])[0]
        wm = WorkingMemory()
        self._load(wm)
        for inst in enumerate_matches(cr, wm, indexed=True):
            assert inst.wmes[0].class_name == "a"
            assert inst.wmes[1].class_name == "b"

    def test_seeded_enumeration_matches_legacy(self):
        rule = _rule(
            lambda pb: pb.rule("r")
            .ce("a", k=v("x"))
            .ce("b", k=v("x"))
            .halt()
        )
        cr = compile_rules([rule])[0]
        wm = WorkingMemory()
        self._load(wm)
        pin = next(iter(wm.by_class("b")))
        indexed = [
            i.key
            for i in enumerate_matches(cr, wm, fixed=(1, (pin,)), indexed=True)
        ]
        legacy = [
            i.key
            for i in enumerate_matches(cr, wm, fixed=(1, (pin,)), indexed=False)
        ]
        assert indexed == legacy and indexed
