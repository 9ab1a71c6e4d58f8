"""Tests for working-memory persistence (dump/load facts)."""

import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import ParseError, ReproError
from repro.wm.io import _walk_tokens, dumps, fact_line, load_facts, parse_facts_text
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


def outcome(parse, text):
    """What ``parse`` makes of ``text``, comparably: the facts with every
    value's type (``1`` is not ``1.0``) and attribute order, or the error's
    class, message, line and column."""
    try:
        facts = parse(text)
    except ReproError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return [
        (cls, [(attr, type(value), value) for attr, value in attrs.items()])
        for cls, attrs in facts
    ]


def _no_tokens(source):
    raise AssertionError(f"the token walker ran on accepted text {source!r}")


class TestReaderAgainstTokenWalker:
    """The single-pass reader accepts the token walker's language, value
    for value and error for error — and never parses through it."""

    names = st.one_of(
        st.sampled_from(
            ["a", "item", "on-top-of", "k1", "x\fy", "\vz", "=", "+", "a.b", "caf\xe9"]
        ),
        st.sampled_from(["|a b|", "|1|", "||", "|^(|", "|two\nlines|", "|;|"]),
        st.sampled_from(["<", "<=", "<>", "<=>", ">", ">="]),
    )
    constants = st.one_of(
        names,
        st.sampled_from(
            ["7", "+7", "-5", ".5", "5.", "-.5", "1e3", "1E-3", "-2.5e+2", "007",
             "nan", "inf", "-inf", "Infinity", "1_0", "1e", "1.2.3", "+-5", "1e999",
             "\u0661\u0662", "nil", "\x0c", "a\x0bb"]
        ),
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    gaps = st.sampled_from(
        ["", "", " ", " ", "\n", "\t", "\r\n", "  ", "; note\n", " ;(x ^y 1)\n "]
    )

    @st.composite
    def forms(draw, names=names, constants=constants, gaps=gaps):
        parts = ["(", draw(gaps), draw(names)]
        for _ in range(draw(st.integers(0, 4))):
            # A space keeps bare neighbours apart; the gaps may add more.
            parts += [draw(gaps), "^", draw(gaps), draw(names), " ", draw(gaps),
                      draw(constants), draw(st.sampled_from(["", " "]))]
        return "".join(parts + [draw(gaps), ")"])

    @st.composite
    def texts(draw, forms=forms(), gaps=gaps):
        parts = [draw(gaps)]
        for form in draw(st.lists(forms, max_size=5)):
            parts += [form, draw(gaps)]
        return "".join(parts) + draw(st.sampled_from(["", "", "; no newline"]))

    @st.composite
    def mutated(draw, texts=texts()):
        """A facts text with one character dropped, inserted or swapped."""
        text = draw(texts)
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from(list("()^|;<>{}-= \n1a.") + ["<<", "-->", "<x>"]))
        kind = draw(st.sampled_from(["drop", "insert", "swap"]))
        if kind == "insert":
            return text[:at] + junk + text[at:]
        return text[:at] + (junk if kind == "swap" else "") + text[at + 1:]

    def check(self, text):
        expected = outcome(_walk_tokens, text)
        assert outcome(parse_facts_text, text) == expected
        if isinstance(expected, list):
            # The walker words errors; a legal text never reaches it.
            with mock.patch("repro.lang.lexer.tokenize", _no_tokens), mock.patch(
                "repro.wm.io.tokenize", _no_tokens
            ):
                assert outcome(parse_facts_text, text) == expected

    @example(text="(|a b| ^|an attr| |a value|)")
    @example(text="(a ^i +7 ^f .5 ^e 1e3 ^n -5 ^d 5. ^m -.5)")
    @example(text="(a ^k nan ^j inf ^m 1_0 ^n Infinity)")
    @example(text="(a ^lt < ^le <= ^ne <> ^same <=> ^gt > ^ge >=)")
    @example(text="(< ^<= >)(a ^k<)(a ^<=1)(a ^k <^j >)")
    @example(text="(a ^k 1 ^k 2 ^j 3 ^k 4)")
    @example(text="(a)(b)\n(g)")
    @example(text="(a ^k x\x0cy ^j \x0b)")
    @example(text="(a\n  ^k 1 ; why\n  ^j 2\n)\n; end")
    @example(text="(a ^k|v|^j|w|)(|c|^|k|1)")
    @example(text="")
    @example(text="; only a comment")
    @example(text="(a ^k 1e999)")
    @example(text="(a ^k -1e999)")
    @example(text="(a ^k <x>)")
    @example(text="(a ^k <=x>)")
    @example(text="(a ^k <<)")
    @example(text="(a ^k -)")
    @example(text="(a ^k -x)")
    @example(text="(a ^k -5<)")
    @example(text="(a ^kb)")
    @example(text="(a ^k b<)")
    @example(text="(1 ^k v)")
    @example(text="(a ^1 v)")
    @example(text="(a ^-5 v)")
    @example(text="(a ^k |open)")
    @example(text="(a ^k 1")
    @example(text="(a ^k 1) x")
    @example(text="( ; a ^k 1)")
    @example(text="(a ^k {1})")
    @example(text="(a ^k 1))")
    @example(text="(a ^k (b))")
    @settings(max_examples=300, deadline=None)
    @given(text=texts())
    def test_same_facts_or_same_error(self, text):
        self.check(text)

    @settings(max_examples=500, deadline=None)
    @given(text=mutated())
    def test_same_outcome_after_a_one_character_mutation(self, text):
        self.check(text)

    def test_the_walker_accepting_a_refused_text_is_a_bug_not_a_fallback(self):
        with mock.patch("repro.wm.io._walk_tokens", lambda source: [("a", {})]):
            with pytest.raises(AssertionError, match="token walker accepts"):
                parse_facts_text("(a ^k")

    @pytest.mark.parametrize(
        "text",
        [
            "(a ^k 1)" + " " * 200_000 + "X",
            "; c\n" * 200_000 + "(a ^k 1)",
            "(a ^k 1);" + " " * 200_000 + "\nX",
            "(a ^k " + "1" * 200_000 + "x ^j",
        ],
        ids=["spaces-then-junk", "comment-lines", "long-comment", "digits-then-junk"],
    )
    def test_linear_time(self, text):
        # A quadratic pattern needs minutes for these; the budget covers
        # the token walker wording the error, which is linear too.
        started = time.perf_counter()
        outcome(parse_facts_text, text)
        assert time.perf_counter() - started < 1.0

    def test_reader_is_several_times_faster_per_fact_than_the_walker(self):
        # No absolute clock: both run here, in this process, on the same
        # lines. Measured 8x; a token per atom would bring it back to 1x.
        def per_fact(parse, n):
            text = "".join(
                f"(item ^key {i * 7919 % 4096} ^payload {i})\n" for i in range(n)
            )
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                assert len(parse(text)) == n
                best = min(best, time.perf_counter() - started)
            return best / n

        assert per_fact(parse_facts_text, 20_000) <= per_fact(_walk_tokens, 2_000) / 3

    def test_names_are_shared_values_are_not(self):
        (cls1, attrs1), (cls2, attrs2) = parse_facts_text("(item ^key 70000 ^|t| x)\n" * 2)
        assert cls1 is cls2
        assert all(a is b for a, b in zip(attrs1, attrs2))
        assert attrs1["key"] is not attrs2["key"]  # no table of values

    def test_fact_line(self):
        text = "; header\n(a)\n\n(b\n ^k 1) (c)\n   (d)"
        assert [fact_line(text, i) for i in (1, 2, 3, 4)] == [2, 4, 5, 6]

    def test_load_facts_streams(self):
        # The facts ahead of a syntax error are in the store when it raises.
        wm = WorkingMemory()
        with pytest.raises(ParseError, match="line 3"):
            load_facts("(a ^k 1)\n(a ^k 2)\n(a ^k", wm)
        assert len(wm) == 2


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
