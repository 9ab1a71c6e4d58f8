"""Tests for working-memory persistence (dump/load facts)."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import ParseError
from repro.wm.io import dumps, load_facts, parse_facts_text
from repro.wm.memory import WorkingMemory


class TestDumps:
    def test_empty(self):
        assert dumps(WorkingMemory()) == ""

    def test_timestamp_order(self):
        wm = WorkingMemory()
        wm.make("b", x=2)
        wm.make("a", x=1)
        lines = dumps(wm).splitlines()
        assert lines == ["(b ^x 2)", "(a ^x 1)"]

    def test_quoting(self):
        wm = WorkingMemory()
        wm.make("note", text="two words", n="42")
        out = dumps(wm)
        assert "|two words|" in out
        assert "|42|" in out  # string "42" must not round-trip into int 42

    def test_no_attrs(self):
        wm = WorkingMemory()
        wm.make("goal")
        assert dumps(wm) == "(goal)\n"


class TestRoundTrip:
    def test_content_round_trips(self):
        wm = WorkingMemory()
        wm.make("edge", src="n0", dst="n1")
        wm.make("dist", node="n0", cost=0)
        wm.make("note", text="hello world", ratio=2.5)
        loaded = load_facts(dumps(wm))
        original = sorted(w.content_key() for w in wm)
        reloaded = sorted(w.content_key() for w in loaded)
        assert original == reloaded

    def test_load_into_existing_memory(self):
        wm = WorkingMemory()
        wm.make("pre", x=1)
        load_facts("(extra ^y 2)", wm)
        assert wm.count_class("pre") == 1
        assert wm.count_class("extra") == 1

    symbols = st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True).filter(
        lambda s: not s.endswith("-")
    )
    values = st.one_of(
        symbols,
        st.integers(-10_000, 10_000),
        st.floats(allow_nan=False, allow_infinity=False, width=32).map(
            lambda f: round(f, 3)
        ),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd", "Zs"), max_codepoint=127
            ),
            max_size=12,
        ).filter(lambda s: "|" not in s),
    )

    @settings(max_examples=100, deadline=None)
    @given(
        facts=st.lists(
            st.tuples(
                symbols,
                st.dictionaries(symbols, values, max_size=4),
            ),
            max_size=8,
        )
    )
    def test_property_round_trip(self, facts):
        wm = WorkingMemory()
        for cls, attrs in facts:
            wm.make(cls, attrs)
        reloaded = load_facts(dumps(wm))
        # repr-keyed sort: content keys mix ints and strs, which do not
        # order against each other directly.
        assert sorted((w.content_key() for w in wm), key=repr) == sorted(
            (w.content_key() for w in reloaded), key=repr
        )

    #: Any string may be a class name, an attribute name or a value.
    any_text = st.text(
        alphabet=st.characters(max_codepoint=127, blacklist_characters="|"),
        max_size=6,
    )
    tricky = st.sampled_from(
        ["inf", "nan", "Infinity", "NaN", "1_0", "10", "-1", "1e5", "=", "", "a b"]
    )
    any_values = st.one_of(
        tricky,
        any_text,
        st.integers(-10_000, 10_000),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @example(facts=[("a", {"k": "nan", "j": "inf", "m": "1_0"})])
    @example(facts=[("inf", {"NaN": "Infinity", "10": 10, "1_0": 1e22})])
    @settings(max_examples=200, deadline=None)
    @given(
        facts=st.lists(
            st.tuples(
                st.one_of(tricky, any_text),
                st.dictionaries(st.one_of(tricky, any_text), any_values, max_size=4),
            ),
            max_size=6,
        )
    )
    def test_dump_load_dump_is_a_fixpoint(self, facts):
        wm = WorkingMemory()
        for cls, attrs in facts:
            wm.make(cls, attrs)
        text = dumps(wm)
        reloaded = load_facts(text)
        assert dumps(reloaded) == text
        # ... and nothing changed type on the way (a string "10" is not 10).
        typed = lambda w: (w.class_name, [(a, type(v), v) for a, v in w.items()])
        assert [typed(w) for w in reloaded.snapshot()] == [
            typed(w) for w in wm.snapshot()
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_float_has_no_surface_form(self, value):
        wm = WorkingMemory()
        wm.make("a", k=value)
        with pytest.raises(ValueError, match="no surface form"):
            dumps(wm)


class TestParseErrors:
    def test_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_facts_text("(edge ^src <x>)")

    def test_unclosed(self):
        with pytest.raises(ParseError):
            parse_facts_text("(edge ^src a")

    def test_comments_allowed(self):
        facts = parse_facts_text("; header\n(a ^x 1) ; trailing\n")
        assert facts == [("a", {"x": 1})]


class TestCliDumpWm(object):
    def test_dump_wm_flag(self, tmp_path):
        from repro.cli import main

        prog = tmp_path / "p.pl"
        prog.write_text(
            "(literalize c v)\n"
            "(p bump (c ^v {<x> < 2}) --> (modify 1 ^v (compute <x> + 1)))\n"
        )
        facts = tmp_path / "f.pl"
        facts.write_text("(c ^v 0)\n")
        out = tmp_path / "final.pl"
        rc = main(
            ["run", str(prog), "--facts", str(facts), "--dump-wm", str(out)]
        )
        assert rc == 0
        assert "(c ^v 2)" in out.read_text()
        reloaded = load_facts(out.read_text())
        assert reloaded.count_class("c") == 1
