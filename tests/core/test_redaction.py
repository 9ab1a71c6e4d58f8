"""Unit tests for the meta level: reification and redaction fixpoints."""

import random

import pytest

from repro.cli import main
from repro.errors import ExecutionError
from repro.core import EngineConfig, ParulelEngine
from repro.core.redaction import reify_instantiation
from repro.lang.parser import parse_program
from repro.match.instantiation import Instantiation
from repro.programs import REGISTRY, build_manners
from repro.wm.io import dumps, parse_facts_text
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME
from tests.core.meta_oracle import redact_only, use_oracle
from tests.nested_loop import nested_loop_engine


class TestReification:
    def test_builtin_attributes(self):
        rule = parse_program("(p r (c ^a <x>) (d ^b <y>) --> (halt))").rules[0]
        inst = Instantiation(
            rule,
            (WME("c", {"a": 1}, 3), WME("d", {"b": 2}, 8)),
            {"x": 1, "y": 2},
        )
        attrs = reify_instantiation(inst, 42)
        assert attrs["rule"] == "r"
        assert attrs["id"] == 42
        assert attrs["salience"] == 0
        assert attrs["specificity"] == 2
        assert attrs["recency"] == 8
        assert attrs["x"] == 1
        assert attrs["y"] == 2

    def test_variable_colliding_with_builtin_rejected(self):
        rule = parse_program("(p r (c ^a <rule>) --> (halt))").rules[0]
        inst = Instantiation(rule, (WME("c", {"a": 1}, 1),), {"rule": 1})
        with pytest.raises(ExecutionError, match="collides"):
            reify_instantiation(inst, 1)


def run_engine(src, facts, **config):
    engine = ParulelEngine(parse_program(src), EngineConfig(**config))
    for cls, attrs in facts:
        engine.make(cls, attrs)
    result = engine.run(max_cycles=100)
    return engine, result


class TestRedactionSemantics:
    PICK_ONE = """
    (literalize req name)
    (literalize grant name)
    (p grant (req ^name <n>) --> (make grant ^name <n>) (remove 1))
    (mp keep-first
        (instantiation ^rule grant ^id <i> ^n <a>)
        (instantiation ^rule grant ^id {<j> <> <i>} ^n > <a>)
        -->
        (redact <j>))
    """

    def test_only_minimum_survives_each_cycle(self):
        engine, result = run_engine(
            self.PICK_ONE,
            [("req", {"name": f"r{i}"}) for i in range(4)],
        )
        # One grant per cycle, smallest name first.
        assert result.cycles == 4
        assert [r.fired for r in result.reports] == [1, 1, 1, 1]
        assert [r.redaction.redacted for r in result.reports] == [3, 2, 1, 0]
        granted = sorted(w.get("name") for w in engine.wm.by_class("grant"))
        assert granted == ["r0", "r1", "r2", "r3"]

    def test_redacted_instantiations_not_refracted(self):
        # The same instantiation (same WMEs) must be allowed to fire in a
        # later cycle after being redacted earlier — deferral, not deletion.
        engine, result = run_engine(
            self.PICK_ONE, [("req", {"name": "a"}), ("req", {"name": "b"})]
        )
        assert result.cycles == 2
        assert engine.wm.count_class("grant") == 2

    def test_symmetric_redaction_empties_pair(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp kill-both
            (instantiation ^rule grant ^id <i> ^n <a>)
            (instantiation ^rule grant ^id {<j> <> <i>} ^n <> <a>)
            -->
            (redact <j>))
        """
        engine, result = run_engine(
            src, [("req", {"name": "a"}), ("req", {"name": "b"})]
        )
        # Both redact each other -> empty firing set -> redaction quiescence.
        assert result.reason == "redaction-quiescence"
        assert engine.wm.count_class("req") == 2

    def test_meta_writes_reach_output(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp narrate
            (instantiation ^rule grant ^id <i> ^n <a>)
            (instantiation ^rule grant ^id {<j> <> <i>} ^n > <a>)
            -->
            (write redacting <j>)
            (redact <j>))
        """
        engine, result = run_engine(
            src, [("req", {"name": "a"}), ("req", {"name": "b"})]
        )
        assert any(line.startswith("redacting") for line in result.output)

    def test_redact_of_non_integer_raises(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp bad (instantiation ^rule grant ^n <a>) --> (redact <a>))
        """
        with pytest.raises(ExecutionError, match="integer"):
            run_engine(src, [("req", {"name": "a"})])

    @pytest.mark.parametrize("flag", [True, False])
    def test_redact_of_a_boolean_raises(self, flag):
        # ``True`` is an ``int`` to Python, and would name candidate 1.
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp bad (instantiation ^rule grant ^n <a>) --> (redact <a>))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("req", name=flag)
        before = engine.wm.dump_records()[0]
        with pytest.raises(ExecutionError, match="integer"):
            engine.step()
        assert engine.wm.dump_records()[0] == before

    def test_redact_unknown_id_raises(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp bad (instantiation ^rule grant ^id <i>) --> (redact 999))
        """
        with pytest.raises(ExecutionError, match="no instantiation"):
            run_engine(src, [("req", {"name": "a"})])

    @pytest.mark.parametrize("raw_id", ["0", "(compute <i> - 2)"])
    def test_redact_below_the_first_id_raises(self, raw_id):
        # Ids are 1-based positions among the candidates: an id below 1
        # names nobody, and must not wrap around to the last candidate.
        src = f"""
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp bad (instantiation ^rule grant ^id <i>) --> (redact {raw_id}))
        """
        with pytest.raises(ExecutionError, match="no instantiation"):
            run_engine(src, [("req", {"name": "a"})])

    @pytest.mark.parametrize("oracle", [None, "naive", "rete"])
    def test_computed_id_redact_drops_the_named_reification(self, oracle):
        # ``bystander`` precedes ``grant``, so ``<i> - 1`` names the
        # bystander candidate. Once it is redacted, ``clear`` — rechecked
        # because of its negated instantiation CE — sees it gone.
        src = """
        (literalize req name)
        (literalize note name)
        (p bystander (note ^name <n>) --> (remove 1))
        (p grant (req ^name <n>) --> (remove 1))
        (mp evict-prev
            (instantiation ^rule grant ^id <i>)
            --> (bind <k> (compute <i> - 1)) (redact <k>))
        (mp clear
            (instantiation ^rule grant ^id <i>)
            -(instantiation ^rule bystander)
            --> (write clear <i>))
        """
        engine = ParulelEngine(parse_program(src))
        if oracle is not None:
            use_oracle(engine, oracle)
        engine.make("note", name="n")
        engine.make("req", name="r")
        report = engine.step()
        red = report.redaction
        assert (red.candidates, red.redacted, red.meta_cycles) == (2, 1, 2)
        assert report.writes == ["clear 2"]
        assert report.fired == 1
        assert [w.get("name") for w in engine.wm.by_class("note")] == ["n"]
        assert engine.wm.count_class("req") == 0

    def test_reifications_cleaned_up_after_cycle(self):
        engine, _result = run_engine(
            self.PICK_ONE, [("req", {"name": "a"}), ("req", {"name": "b"})]
        )
        assert engine.wm.count_class("instantiation") == 0

    def test_meta_rule_reading_object_wm(self):
        # Meta rules may join ordinary WMEs: redact grants above a quota.
        src = """
        (literalize req name cost)
        (literalize budget limit)
        (p grant (req ^name <n> ^cost <c>) --> (remove 1))
        (mp too-expensive
            (instantiation ^rule grant ^id <i> ^c <cost>)
            (budget ^limit < <cost>)
            -->
            (redact <i>))
        """
        engine, result = run_engine(
            src,
            [
                ("req", {"name": "cheap", "cost": 1}),
                ("req", {"name": "pricey", "cost": 10}),
                ("budget", {"limit": 5}),
            ],
        )
        names = sorted(w.get("name") for w in engine.wm.by_class("req"))
        assert names == ["pricey"]  # cheap got granted/removed, pricey vetoed

    def test_chained_redaction_fixpoint(self):
        # kill-successor redacts j where j = i+1, but only if i survives;
        # after redacting 2 (because of 1), 3 must survive (its redactor
        # is gone). Exercises the multi-cycle meta fixpoint.
        src = """
        (literalize req name rank)
        (p grant (req ^name <n> ^rank <r>) --> (remove 1))
        (mp kill-successor
            (instantiation ^rule grant ^id <i> ^r <a>)
            (instantiation ^rule grant ^id <j> ^r {<b> > <a>})
            -->
            (redact <j>))
        """
        engine, result = run_engine(
            src,
            [
                ("req", {"name": "x", "rank": 1}),
                ("req", {"name": "y", "rank": 2}),
                ("req", {"name": "z", "rank": 3}),
            ],
        )
        first = result.reports[0]
        assert first.fired == 1  # only rank 1 survives cycle 1
        assert first.redaction.redacted == 2


class TestEveryCandidateIsReified:
    """Every candidate is reified and offered to the meta-rules: the meta
    level's alpha tests are candidates × reified memories, and its rule
    tries candidates × meta-cycles, on each bundled meta-program."""

    #: workload -> (candidates, meta-level alpha tests) over a default run.
    EXPECTED = {"manners": (154, 308), "routing": (56, 112), "sort-meta": (37, 37)}

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_alpha_tests_and_rule_tries_count_every_candidate(self, name):
        wl = REGISTRY[name]()
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=5000)
        assert wl.verify(engine.wm)
        reports = [r.redaction for r in result.reports]
        candidates = sum(r.candidates for r in reports)
        alpha_tests = engine.meta.stats.totals["alpha_tests"]
        assert (candidates, alpha_tests) == self.EXPECTED[name]
        for r in reports:
            assert r.rule_tries == r.candidates * r.meta_cycles


class TestExtremumShapes:
    """Which redact-only meta-rules are answered from a per-group extremum
    instead of a walk of the join kernel."""

    @pytest.mark.parametrize(
        "name,count", [("manners", 4), ("routing", 3), ("sort-meta", 0)]
    )
    def test_bundled_meta_rules(self, name, count):
        engine = ParulelEngine(REGISTRY[name]().program)
        assert len(engine.meta._extremum) == count

    PARTNER = "(instantiation ^rule grant ^id <i> ^n <a> ^m <b>)"

    @pytest.mark.parametrize(
        "candidate,qualifies",
        [
            ("^id <j> ^n > <a>", True),
            ("^id {<j> <> <i>} ^n < <a> ^m <b>", True),
            ("^id {<j> > <i>} ^n <a>", True),
            ("^id <j> ^m > <a>", True),
            ("^id {<j> <> <i>} ^m > <a>", False),
            ("^id {<j> <> <i>} ^n >= <a>", False),
            ("^id {<j> <> <i>} ^n <= <a>", False),
            ("^id <j> ^n > <a> ^m < <b>", False),
            ("^id <j> ^n > <a> ^m <> <b>", False),
            ("^id {<j> <> <i>} ^n <a>", False),
            ("^id {<j> <> <i> <> <i>} ^n > <a>", False),
        ],
    )
    def test_join_tests_decide(self, candidate, qualifies):
        src = f"""
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp arbitrate {self.PARTNER} (instantiation ^rule grant {candidate})
            --> (redact <j>))
        """
        engine = ParulelEngine(parse_program(src))
        assert bool(engine.meta._extremum) is qualifies

    @pytest.mark.parametrize(
        "lhs",
        [
            # A third CE, an ordinary partner, a negated partner.
            "(instantiation ^rule grant ^id <i> ^n <a>)"
            " (instantiation ^rule grant ^id <j> ^n > <a>) (req ^name <a>)",
            "(req ^name <a>) (instantiation ^rule grant ^id <j> ^n > <a>)",
            "(instantiation ^rule grant ^id <j> ^n <a>)"
            " -(instantiation ^rule grant ^n < <a>)",
            # The redacted id is the partner's.
            "(instantiation ^rule grant ^id <j> ^n <a>)"
            " (instantiation ^rule grant ^n > <a>)",
        ],
    )
    def test_other_ces_keep_the_walk(self, lhs):
        src = f"""
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        (mp arbitrate {lhs} --> (redact <j>))
        """
        engine = ParulelEngine(parse_program(src))
        assert engine.meta._extremum == {}

    def test_nested_loop_reference_keeps_the_walk(self):
        engine = nested_loop_engine(REGISTRY["manners"]().program, EngineConfig())
        assert engine.meta._extremum == {}


class TestNoMetaRules:
    def test_everything_survives(self):
        src = """
        (literalize req name)
        (p grant (req ^name <n>) --> (remove 1))
        """
        engine, result = run_engine(
            src, [("req", {"name": f"r{i}"}) for i in range(5)]
        )
        assert result.cycles == 1
        assert result.reports[0].fired == 5


class TestRedactOnlyMetaRules:
    """A meta-rule whose RHS only redacts ids bound by ``^id`` of one
    ``instantiation`` CE asks the join kernel for that CE's matched WMEs
    (existence mode) and fires once per instantiation redacted; every other
    RHS shape is enumerated in full and fires once per meta-instantiation."""

    OBJECT = """
    (literalize req name)
    (literalize slot id)
    (p grant (req ^name <n>) --> (remove 1))
    """
    #: Four candidates: six ⟨i, j⟩ pairs, three distinct <j>, three <i>.
    PAIRS = """
        (instantiation ^rule grant ^id <i> ^n <a>)
        (instantiation ^rule grant ^id {<j> <> <i>} ^n > <a>)
    """
    #: Two slots: eight ⟨i, j⟩ pairs, two distinct <j>.
    ORDINARY = """
        (instantiation ^rule grant ^id <i>)
        (slot ^id <j>)
    """
    #: (LHS, RHS, meta firings in the first phase, redact-only?)
    SHAPES = [
        (PAIRS, "(redact <j>)", 3, True),
        (PAIRS, "(redact <j>) (redact <j>)", 3, True),
        (PAIRS, "(redact <i>)", 3, True),
        (PAIRS, "(write saw <i> <j>) (redact <j>)", 6, False),
        (PAIRS, "(call note <j>) (redact <j>)", 6, False),
        (PAIRS, "(halt) (redact <j>)", 6, False),
        (PAIRS, "(bind <k> <j>) (redact <k>)", 6, False),
        (PAIRS, "(redact (compute <j> + 0))", 6, False),
        (PAIRS, "(redact <i>) (redact <j>)", 6, False),
        (ORDINARY, "(redact <j>)", 8, False),
    ]

    def _program(self, lhs, rhs):
        return parse_program(f"{self.OBJECT}(mp arbitrate {lhs} --> {rhs})")

    def _step(self, lhs, rhs, oracle=None, build=ParulelEngine):
        engine = build(self._program(lhs, rhs), EngineConfig())
        if oracle is not None:
            use_oracle(engine, oracle)
        noted = []
        engine.register_function("note", noted.append)
        for n in range(4):
            engine.make("req", name=f"r{n}")
        for n in (1, 2):
            engine.make("slot", id=n)
        report = engine.step()
        red = report.redaction
        return (
            (red.candidates, red.redacted, red.meta_cycles, red.meta_firings),
            report.fired,
            report.writes,
            noted,
            engine.wm.dump_records(),
        )

    @pytest.mark.parametrize("lhs,rhs,firings,redact_only_rule", SHAPES)
    def test_rhs_shape_selects_the_path(self, lhs, rhs, firings, redact_only_rule):
        got = self._step(lhs, rhs)
        assert got[0][3] == firings
        assert got == self._step(lhs, rhs, oracle="naive")
        assert got == self._step(lhs, rhs, build=nested_loop_engine)
        rule = self._program(lhs, rhs).meta_rules[0]
        assert redact_only(rule) is redact_only_rule

    def test_full_path_keeps_write_order(self):
        _report, _fired, writes, _noted, _wm = self._step(
            self.PAIRS, "(write saw <i> <j>) (redact <j>)"
        )
        assert writes == [
            "saw 1 2", "saw 1 3", "saw 1 4", "saw 2 3", "saw 2 4", "saw 3 4"
        ]

    @pytest.mark.parametrize("indexed", [True, False])
    def test_chained_redaction_through_a_negated_instantiation_ce(self, indexed):
        # Each meta-cycle only the top-ranked candidate has nobody above it
        # and somebody below: redacting it readies the next one. Redact-only
        # *and* rechecked after every removal.
        src = """
        (literalize req rank)
        (p grant (req ^rank <r>) --> (remove 1))
        (mp peel
            (instantiation ^rule grant ^id <i> ^r <a>)
            -(instantiation ^rule grant ^r > <a>)
            (instantiation ^rule grant ^r < <a>)
            --> (redact <i>))
        """
        outcomes = []
        for oracle in (None, "naive", "rete"):
            build = ParulelEngine if indexed else nested_loop_engine
            engine = build(parse_program(src), EngineConfig())
            if oracle is not None:
                use_oracle(engine, oracle)
            for rank in (3, 1, 5, 2, 4):
                engine.make("req", rank=rank)
            report = engine.step()
            red = report.redaction
            outcomes.append(
                (red.redacted, red.meta_cycles, red.meta_firings, report.fired,
                 engine.wm.dump_records())
            )
            assert [w.get("rank") for w in engine.wm.by_class("req")] == [3, 5, 2, 4]
        assert outcomes[0][:4] == (4, 4, 4, 1)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_manners_meta_firings_stay_below_the_candidates(self):
        # Ratchet: every manners meta-rule is redact-only, so the meta level
        # fires at most once per candidate (28,848 meta-instantiations for
        # 1,849 candidates when it built every pair).
        wl = build_manners(n_guests=64)
        engine = ParulelEngine(wl.program)
        wl.setup(engine)
        result = engine.run(max_cycles=10_000)
        reports = [r.redaction for r in result.reports]
        assert sum(r.candidates for r in reports) == 1849
        assert sum(r.redacted for r in reports) == 1613
        assert sum(r.meta_firings for r in reports) <= 1849
        assert sum(r.rule_tries for r in reports) >= sum(
            r.meta_firings for r in reports
        )

    def test_manners_meta_counters_do_not_depend_on_fact_order(self):
        # Every manners meta-rule is answered from a per-group extremum,
        # which reads each reification once whatever order it came in.
        wl = build_manners(n_guests=64)
        wm = WorkingMemory()
        wl.setup(wm)
        lines = dumps(wm).splitlines()
        counters = []
        for seed in range(6):
            random.Random(seed).shuffle(lines)
            engine = ParulelEngine(wl.program)
            for class_name, attrs in parse_facts_text("\n".join(lines)):
                engine.make(class_name, attrs)
            result = engine.run(max_cycles=10_000)
            assert wl.verify(engine.wm)
            assert result.firings == 236
            stats = engine.meta.stats
            counters.append((stats.totals, stats.per_rule))
        assert len(counters[0][1]) == 4
        assert all(c == counters[0] for c in counters[1:])

    def test_profile_lists_every_manners_meta_rule(self, capsys):
        assert main(["profile", "manners"]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = line.split()
            if len(cells) == 9 and cells[1] == "-":
                rows[cells[0]] = cells[6]
        meta = [rule.name for rule in build_manners().program.meta_rules]
        assert len(meta) == 4
        for name in meta:
            assert int(rows[name]) > 0, name

    def test_collision_is_checked_once_per_rule_and_still_raised(self):
        src = """
        (literalize req name)
        (p grant (req ^name <id>) --> (remove 1))
        (mp any (instantiation ^rule grant ^id <i>) --> (write saw <i>))
        """
        engine = ParulelEngine(parse_program(src))
        engine.make("req", name="a")
        with pytest.raises(
            ExecutionError,
            match=r"rule 'grant': variable <id> collides with the built-in "
            r"instantiation attribute 'id'; rename it",
        ):
            engine.step()
