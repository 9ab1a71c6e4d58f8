"""Tokenizer for the PARULEL surface syntax.

The surface syntax is OPS5-flavoured s-expressions::

    (literalize block name on-top-of size)

    (p stack-blocks
        (block ^name <x> ^on-top-of nil)
        (block ^name {<y> <> <x>} ^size > 4)
        -->
        (modify 1 ^on-top-of <y>))

Token classes:

``LPAREN``/``RPAREN``
    parentheses,
``CARET``
    the ``^`` attribute marker,
``VARIABLE``
    ``<name>`` match variables,
``NUMBER``
    integers and floats: optional sign, ASCII digits, optional fraction
    and exponent (``-3``, ``2.5``, ``.5``, ``1e-3``) — nothing else,
``SYMBOL``
    every other bare atom (rule names, class names, constants like
    ``nil`` — and ``inf``, ``nan``, ``1_0``, which Python's ``float`` /
    ``int`` would accept but the language does not),
``STRING``
    ``|bar-quoted strings|`` which may contain whitespace,
``LBRACE``/``RBRACE``
    conjunctive-test braces ``{`` ``}``,
``LDISJ``/``RDISJ``
    disjunction brackets ``<<`` ``>>``,
``ARROW``
    the LHS/RHS separator ``-->``,
``MINUS``
    a standalone ``-`` introducing a negated condition element.

Comments run from ``;`` to end of line. The lexer is a single forward pass
with no backtracking; positions are tracked for error messages.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Iterator, List, Union

from repro.errors import LexError

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "is_number_literal",
    "atom_value",
    "WHITESPACE",
    "DELIMITERS",
    "NUMBER_PATTERN",
    "BAR_STRING_PATTERN",
]


class TokenKind(enum.Enum):
    """Lexical category of a :class:`Token`."""

    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LDISJ = "<<"
    RDISJ = ">>"
    CARET = "^"
    ARROW = "-->"
    MINUS = "-"
    VARIABLE = "variable"
    NUMBER = "number"
    SYMBOL = "symbol"
    STRING = "string"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based line/column)."""

    kind: TokenKind
    value: Union[str, int, float]
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.column})"


# The atom grammar's pieces are public: the facts reader
# (:mod:`repro.wm.io`) composes its per-form pattern from them, so there is
# one definition of what ends an atom, what a bar string is and what a
# number is.

#: The characters skipped between tokens. Nothing else is whitespace —
#: ``\f``, ``\v`` and Unicode spaces are ordinary atom characters.
WHITESPACE = " \t\r\n"

#: Characters that terminate a bare symbol / number / variable.
DELIMITERS = frozenset("(){}^;|" + WHITESPACE)

#: A ``|bar-quoted string|``: anything but a bar, newlines included.
BAR_STRING_PATTERN = r"\|[^|]*\|"
_BAR_STRING = re.compile(BAR_STRING_PATTERN)

# Predicate symbols are ordinary SYMBOL tokens; the parser gives them meaning.
PREDICATE_SYMBOLS = frozenset({"=", "<>", "<", "<=", ">", ">=", "<=>"})


#: The one definition of a number literal: optional sign, ASCII digits,
#: optional fraction and exponent. Everything else a bare atom can spell —
#: ``inf``, ``nan``, ``Infinity``, ``1_0``, non-ASCII digits — is a symbol.
#: The fraction hangs off its dot so that a long digit run followed by
#: junk fails in linear time.
NUMBER_PATTERN = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER = re.compile(NUMBER_PATTERN)


def is_number_literal(text: str) -> bool:
    """Whether a bare atom spelled ``text`` lexes as a NUMBER (so a symbol
    spelled that way needs bar-quoting to survive a round trip)."""
    return _NUMBER.fullmatch(text) is not None


def atom_value(text: str) -> Union[int, float, str]:
    """The constant a bare atom denotes: an ``int`` or a ``float`` when it
    spells a number literal, else the symbol itself.

    Raises :class:`OverflowError` for a literal with no finite value
    (``1e999`` — infinities are not constructible from source — or an
    integer past the interpreter's digit limit); callers that know where
    the atom stood turn that into a :class:`LexError`.
    """
    if _NUMBER.fullmatch(text) is None:
        return text
    try:
        value = int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:  # int(): more digits than sys.get_int_max_str_digits()
        value = math.inf
    if value in (math.inf, -math.inf):
        raise OverflowError(f"number literal {text!r} is out of range")
    return value


def _classify_atom(text: str, line: int, column: int) -> Token:
    """Turn a bare atom into a NUMBER or SYMBOL token."""
    try:
        value = atom_value(text)
    except OverflowError as exc:
        raise LexError(str(exc), line, column) from None
    kind = TokenKind.SYMBOL if isinstance(value, str) else TokenKind.NUMBER
    return Token(kind, value, line, column)


def _iter_tokens(source: str) -> Iterator[Token]:
    i = 0
    n = len(source)
    line = 1
    col = 1

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in WHITESPACE:
            advance()
            continue
        if ch == ";":  # comment to end of line
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == "(":
            advance()
            yield Token(TokenKind.LPAREN, "(", start_line, start_col)
            continue
        if ch == ")":
            advance()
            yield Token(TokenKind.RPAREN, ")", start_line, start_col)
            continue
        if ch == "{":
            advance()
            yield Token(TokenKind.LBRACE, "{", start_line, start_col)
            continue
        if ch == "}":
            advance()
            yield Token(TokenKind.RBRACE, "}", start_line, start_col)
            continue
        if ch == "^":
            advance()
            yield Token(TokenKind.CARET, "^", start_line, start_col)
            continue
        if ch == "|":
            string = _BAR_STRING.match(source, i)
            if string is None:
                raise LexError("unterminated |string|", start_line, start_col)
            advance(string.end() - i)
            yield Token(TokenKind.STRING, string.group()[1:-1], start_line, start_col)
            continue
        if ch == "<":
            # Could be: "<<", "<var>", or predicate symbols "<", "<=", "<>", "<=>".
            if source.startswith("<<", i):
                advance(2)
                yield Token(TokenKind.LDISJ, "<<", start_line, start_col)
                continue
            if source.startswith("<=>", i):
                advance(3)
                yield Token(TokenKind.SYMBOL, "<=>", start_line, start_col)
                continue
            # <var>: "<" then an identifier then ">".
            j = i + 1
            while j < n and source[j] not in DELIMITERS and source[j] not in "<>":
                j += 1
            if j < n and source[j] == ">" and j > i + 1:
                name = source[i + 1 : j]
                advance(j - i + 1)
                yield Token(TokenKind.VARIABLE, name, start_line, start_col)
                continue
            if source.startswith("<=", i):
                advance(2)
                yield Token(TokenKind.SYMBOL, "<=", start_line, start_col)
                continue
            if source.startswith("<>", i):
                advance(2)
                yield Token(TokenKind.SYMBOL, "<>", start_line, start_col)
                continue
            advance()
            yield Token(TokenKind.SYMBOL, "<", start_line, start_col)
            continue
        if ch == ">":
            if source.startswith(">>", i):
                advance(2)
                yield Token(TokenKind.RDISJ, ">>", start_line, start_col)
                continue
            if source.startswith(">=", i):
                advance(2)
                yield Token(TokenKind.SYMBOL, ">=", start_line, start_col)
                continue
            advance()
            yield Token(TokenKind.SYMBOL, ">", start_line, start_col)
            continue
        if ch == "-":
            # "-->" arrow, "-5"/" -5.2" negative number, or bare minus
            # (negation marker / arithmetic operator).
            if source.startswith("-->", i):
                advance(3)
                yield Token(TokenKind.ARROW, "-->", start_line, start_col)
                continue
            if i + 1 < n and (source[i + 1].isdigit() or source[i + 1] == "."):
                j = i + 1
                while j < n and source[j] not in DELIMITERS:
                    j += 1
                text = source[i:j]
                tok = _classify_atom(text, start_line, start_col)
                if tok.kind is TokenKind.NUMBER:
                    advance(j - i)
                    yield tok
                    continue
            advance()
            yield Token(TokenKind.MINUS, "-", start_line, start_col)
            continue
        # Bare atom: symbol or number.
        j = i
        while j < n and source[j] not in DELIMITERS and not source.startswith("<<", j) and not source.startswith(">>", j) and source[j] != "<" and source[j] != ">":
            j += 1
        if j == i:
            raise LexError(f"unexpected character {ch!r}", start_line, start_col)
        text = source[i:j]
        advance(j - i)
        yield _classify_atom(text, start_line, start_col)

    yield Token(TokenKind.EOF, "", line, col)


def tokenize(source: str) -> List[Token]:
    """Tokenize PARULEL source text into a list ending with an EOF token.

    Raises :class:`repro.errors.LexError` on malformed input.
    """
    return list(_iter_tokens(source))
