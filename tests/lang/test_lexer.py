"""Unit tests for the PARULEL lexer."""

import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import LexError
from repro.lang.lexer import (
    Token,
    TokenKind,
    _classify_atom,
    atom_value,
    is_number_literal,
    tokenize,
)
from repro.wm.io import parse_facts_text


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_parens(self):
        assert kinds("()") == [TokenKind.LPAREN, TokenKind.RPAREN]

    def test_braces(self):
        assert kinds("{}") == [TokenKind.LBRACE, TokenKind.RBRACE]

    def test_caret(self):
        assert kinds("^") == [TokenKind.CARET]

    def test_arrow(self):
        assert kinds("-->") == [TokenKind.ARROW]

    def test_minus_alone(self):
        assert kinds("-") == [TokenKind.MINUS]

    def test_disjunction_brackets(self):
        assert kinds("<< >>") == [TokenKind.LDISJ, TokenKind.RDISJ]

    def test_whitespace_ignored(self):
        assert kinds("  (\t\n ) ") == [TokenKind.LPAREN, TokenKind.RPAREN]


class TestAtoms:
    def test_symbol(self):
        assert values("hello") == ["hello"]
        assert kinds("hello") == [TokenKind.SYMBOL]

    def test_symbol_with_hyphens(self):
        assert values("on-top-of") == ["on-top-of"]
        assert kinds("on-top-of") == [TokenKind.SYMBOL]

    def test_integer(self):
        toks = tokenize("42")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == 42
        assert isinstance(toks[0].value, int)

    def test_float(self):
        toks = tokenize("3.25")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == 3.25

    def test_negative_integer(self):
        toks = tokenize("-7")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == -7

    def test_negative_float(self):
        toks = tokenize("-0.5")
        assert toks[0].value == -0.5

    def test_exponent_float(self):
        toks = tokenize("1e3")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == 1000.0

    def test_symbol_starting_with_digit_is_number_error_free(self):
        # "2x" is not a number; it lexes as a symbol.
        toks = tokenize("2x")
        assert toks[0].kind is TokenKind.SYMBOL
        assert toks[0].value == "2x"

    @pytest.mark.parametrize(
        "atom", ["inf", "nan", "Infinity", "NaN", "1_0", "1e", "1.2.3", "\u0661\u0662"]
    )
    def test_only_the_number_grammar_lexes_as_a_number(self, atom):
        # Python's int()/float() accept all of these; the language does not.
        assert [(t.kind, t.value) for t in tokenize(atom)][:-1] == [
            (TokenKind.SYMBOL, atom)
        ]

    @pytest.mark.parametrize(
        "atom,value",
        [("+5", 5), (".5", 0.5), ("5.", 5.0), ("-.5", -0.5), ("1E-3", 0.001)],
    )
    def test_number_grammar_corners(self, atom, value):
        tok = tokenize(atom)[0]
        assert (tok.kind, tok.value, type(tok.value)) == (
            TokenKind.NUMBER, value, type(value)
        )

    @pytest.mark.parametrize("atom", ["1e999", "-1e999"])
    def test_an_infinity_cannot_be_spelled(self, atom):
        with pytest.raises(LexError, match="out of range"):
            tokenize(atom)


class TestAtomValue:
    """One atom -> int | float | symbol rule, for the lexer and the facts
    reader alike."""

    #: Bare atoms as a facts file can spell them in value position.
    atoms = st.one_of(
        st.sampled_from(
            ["nil", "nan", "inf", "Infinity", "1_0", "1e", "1.2.3", "+", "+-5", "=",
             "+7", ".5", "5.", "-.5", "-5", "1e3", "1E-3", "007", "-0", "1e999",
             "-1e999", "\u0661\u0662", "x\x0cy", "\x0b", "caf\xe9", "on-top-of"]
        ),
        st.integers(-10**30, 10**30).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.from_regex(r"[+]?[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]{0,2})?[a-z]?",
                      fullmatch=True).filter(bool),
        st.text(st.characters(blacklist_characters="(){}^;| \t\r\n<>-"), min_size=1,
                max_size=5),
    )

    @example(atoms=["1e999"])
    @example(atoms=["7", "7.0", "+7", "nan", "1_0"])
    @settings(max_examples=200, deadline=None)
    @given(atoms=st.lists(atoms, min_size=1, max_size=6))
    def test_lexer_and_facts_reader_agree_on_every_atom(self, atoms):
        text = "(a " + " ".join(f"^k{i} {atom}" for i, atom in enumerate(atoms)) + ")"
        try:
            expected = [_classify_atom(atom, 1, 1).value for atom in atoms]
        except LexError:
            with pytest.raises(LexError, match="out of range"):
                parse_facts_text(text)
            return
        [(_, attrs)] = parse_facts_text(text)
        got = list(attrs.values())
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]
        assert got == [atom_value(atom) for atom in atoms]

    def test_a_symbol_comes_back_as_itself(self):
        atom = "on-top-of"
        assert atom_value(atom) is atom

    def test_out_of_range_is_an_overflow_without_a_position(self):
        with pytest.raises(OverflowError, match="'1e999' is out of range"):
            atom_value("1e999")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
    )
    def test_an_integer_past_the_digit_limit_is_a_lex_error(self):
        # int() refuses it with a bare ValueError; the lexer must not.
        with pytest.raises(LexError, match="out of range"):
            tokenize("9" * 5000)
        # ... while one too big for a float, but not for int(), is fine.
        assert atom_value("9" * 400) == int("9" * 400)

    def test_number_pattern_is_linear(self):
        started = time.perf_counter()
        assert not is_number_literal("1" * 200_000 + "x")
        assert time.perf_counter() - started < 1.0


class TestVariables:
    def test_simple_variable(self):
        toks = tokenize("<x>")
        assert toks[0].kind is TokenKind.VARIABLE
        assert toks[0].value == "x"

    def test_multichar_variable(self):
        toks = tokenize("<block-name>")
        assert toks[0].kind is TokenKind.VARIABLE
        assert toks[0].value == "block-name"

    def test_two_variables(self):
        assert values("<a> <b>") == ["a", "b"]

    def test_empty_angle_is_not_variable(self):
        # "<>" is the not-equal predicate symbol.
        toks = tokenize("<>")
        assert toks[0].kind is TokenKind.SYMBOL
        assert toks[0].value == "<>"


class TestPredicateSymbols:
    @pytest.mark.parametrize("sym", ["<", "<=", ">", ">=", "<>", "<=>", "="])
    def test_predicate_lexes_as_symbol(self, sym):
        toks = tokenize(sym)
        assert toks[0].kind is TokenKind.SYMBOL
        assert toks[0].value == sym

    def test_predicate_followed_by_number(self):
        assert values("> 4") == [">", 4]

    def test_le_vs_ldisj(self):
        # "<<" is a disjunction bracket, "<=" a predicate.
        assert kinds("<<")[0] is TokenKind.LDISJ
        assert kinds("<=")[0] is TokenKind.SYMBOL


class TestStrings:
    def test_bar_string(self):
        toks = tokenize("|hello world|")
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].value == "hello world"

    def test_empty_string(self):
        toks = tokenize("||")
        assert toks[0].value == ""

    def test_string_with_specials(self):
        toks = tokenize("|a(b){c}^d|")
        assert toks[0].value == "a(b){c}^d"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("|unterminated")


class TestComments:
    def test_comment_to_eol(self):
        assert values("foo ; this is a comment\nbar") == ["foo", "bar"]

    def test_comment_at_eof(self):
        assert values("foo ; trailing") == ["foo"]

    def test_full_line_comment(self):
        assert values("; nothing here\n(") == ["("]


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("(p\n  foo)")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (1, 2)
        assert (toks[2].line, toks[2].column) == (2, 3)  # foo
        assert (toks[3].line, toks[3].column) == (2, 6)  # )

    def test_lex_error_carries_position(self):
        try:
            tokenize("abc\n  |oops")
        except LexError as exc:
            assert exc.line == 2
            assert exc.column == 3
        else:
            pytest.fail("expected LexError")


class TestRealisticFragments:
    def test_condition_element(self):
        src = "(block ^name <x> ^size > 4)"
        ks = kinds(src)
        assert ks == [
            TokenKind.LPAREN,
            TokenKind.SYMBOL,
            TokenKind.CARET,
            TokenKind.SYMBOL,
            TokenKind.VARIABLE,
            TokenKind.CARET,
            TokenKind.SYMBOL,
            TokenKind.SYMBOL,
            TokenKind.NUMBER,
            TokenKind.RPAREN,
        ]

    def test_negated_ce(self):
        ks = kinds("-(path ^src <a>)")
        assert ks[0] is TokenKind.MINUS
        assert ks[1] is TokenKind.LPAREN

    def test_arrow_between_minus_tokens(self):
        # "a --> b" must not lex the arrow as minus-minus-gt.
        assert kinds("a --> b") == [
            TokenKind.SYMBOL,
            TokenKind.ARROW,
            TokenKind.SYMBOL,
        ]

    def test_conjunctive_test(self):
        ks = kinds("{<x> > 4}")
        assert ks == [
            TokenKind.LBRACE,
            TokenKind.VARIABLE,
            TokenKind.SYMBOL,
            TokenKind.NUMBER,
            TokenKind.RBRACE,
        ]

    def test_disjunction_of_colors(self):
        assert values("<< red green blue >>") == [
            "<<",
            "red",
            "green",
            "blue",
            ">>",
        ]
