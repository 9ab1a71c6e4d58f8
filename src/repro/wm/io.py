"""Working-memory persistence: dump and reload WMEs as facts text.

The format is the CLI's facts-file syntax — one ``(class ^attr value ...)``
form per element, in timestamp order::

    (edge ^src n0 ^dst n1)
    (dist ^node n0 ^cost 0)

Round trip: ``load_facts(dumps(wm))`` re-asserts equal *content* (fresh
timestamps — timestamps are engine-run state, not data). Used by the CLI's
``--dump-wm`` and handy for capturing benchmark states.

Facts are data, and there can be millions of them, so they are not read
through the program lexer: :func:`parse_facts_text` matches one compiled
pattern per form and never builds a token. The pattern is composed from
the pieces :mod:`repro.lang.lexer` exports, so the atom grammar has one
definition; the token walker below is kept to word the error for a text
the pattern refuses (and as the reader's test oracle) — it never returns
facts.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, TextIO, Tuple

from repro.errors import ParseError
from repro.lang.ast import Value, _format_symbol, _format_value
from repro.lang.lexer import (
    BAR_STRING_PATTERN,
    DELIMITERS,
    NUMBER_PATTERN,
    WHITESPACE,
    Token,
    TokenKind,
    atom_value,
    is_number_literal,
    tokenize,
)
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["Fact", "dumps", "dump", "parse_facts_text", "load_facts", "fact_line"]

#: One parsed form: ``(class name, {attribute: value})``.
Fact = Tuple[str, Dict[str, Value]]


def _format_wme(wme: WME) -> str:
    parts = [_format_symbol(wme.class_name)]
    for attr, value in wme.items():
        parts.append(f"^{_format_symbol(attr)} {_format_value(value)}")
    return f"({' '.join(parts)})"


def dumps(wm: WorkingMemory) -> str:
    """Serialize all live WMEs, one per line, in global timestamp order."""
    return "".join(_lines(wm))


def dump(wm: WorkingMemory, fh: TextIO) -> None:
    """Write :func:`dumps` output to an open text file, a line at a time:
    no string of the whole working memory is ever built."""
    fh.writelines(_lines(wm))


def _lines(wm: WorkingMemory) -> Iterator[str]:
    return (f"{_format_wme(w)}\n" for w in wm.snapshot())


# --- the facts reader ------------------------------------------------------
#
# One pattern per form. Every piece is deterministic — a lookahead pins each
# token to the lexer's maximal munch, a comment to its whole line — so a
# failed match backtracks through choice points that each fail at once: the
# pattern is linear in the text, and a shorter token can never let a form
# through that the lexer would read differently.


def _chars(chars: Iterable[str]) -> str:
    """``chars`` spelled for the inside of a regex character class."""
    return "".join(f"\\x{ord(c):02x}" for c in sorted(chars))


_SPACE = f"[{_chars(WHITESPACE)}]"
_STOP = _chars(DELIMITERS)  # what ends "-5"; a bare atom also ends at < and >
_ATOM_END = f"(?=[{_STOP}<>]|\\Z)"
# Whitespace and ;-comments, wherever the lexer skips them.
_GAP = f"{_SPACE}*(?:;[^\\n]*(?:\\n|\\Z){_SPACE}*)*"
# The predicate symbols lex as symbols unless they open "<<", ">>" or a
# "<variable>"; they need no delimiter after them ("^k<=" is k, then <=).
_PREDICATE = (
    f"<=>|<>|<=(?![^{_STOP}<>]*>)|<(?![<=>])(?![^{_STOP}<>]+>)|>=|>(?![>=])"
)
_ATOM = f"[^{_STOP}<>\\-][^{_STOP}<>]*{_ATOM_END}"
# "-" opens a token only as the sign of a number that runs to a delimiter.
_NEGATIVE = f"(?=-){NUMBER_PATTERN}(?=[{_STOP}]|\\Z)"
_NAME = f"{BAR_STRING_PATTERN}|{_PREDICATE}|{_ATOM}"
_VALUE = f"{_NAME}|{_NEGATIVE}"


def _pair(group: str) -> str:
    """One ``^name value``, each of the two opened by ``group`` — ``(`` to
    capture it, ``(?:`` inside the form's repetition."""
    return f"{_GAP}\\^{_GAP}{group}{_NAME}){_GAP}{group}{_VALUE})"


#: A whole form: group 1 the class name, group 2 its ``^attr value`` pairs.
_FORM = re.compile(
    f"{_GAP}\\({_GAP}({_NAME})((?:{_pair('(?:')})*){_GAP}\\)"
)
#: One pair of a matched form's group 2: (attribute name, value), as spelled.
_PAIRS = re.compile(_pair("("))
_SKIP = re.compile(_GAP)


class _Refused(Exception):
    """The reader met something the pattern cannot vouch for."""


class _Names(dict):
    """Spelling → name, for class and attribute names only: a file has a
    handful of them, repeated on every line, and sharing one string per
    name keeps the attribute dicts small. (Values are not memoised — a
    million distinct payloads must not become a million-entry table.)"""

    def __missing__(self, spelled: str) -> str:
        if spelled[0] == "|":
            name = spelled[1:-1]
        elif is_number_literal(spelled):
            raise _Refused  # "(1 ^k v)": a number is not a name
        else:
            name = spelled
        self[spelled] = name
        return name


def _read_facts(source: str) -> Iterator[Fact]:
    names = _Names()
    form, pairs = _FORM.match, _PAIRS.findall
    pos = 0
    try:
        while True:
            found = form(source, pos)
            if found is None:
                break
            start, end = found.span(2)
            # A repeated attribute keeps its first position and last value.
            yield names[found[1]], {
                names[attr]: value[1:-1] if value[0] == "|" else atom_value(value)
                for attr, value in pairs(source, start, end)
            }
            pos = found.end()
    except (_Refused, OverflowError):
        _diagnose(source)
    if _SKIP.match(source, pos).end() != len(source):
        _diagnose(source)


def parse_facts_text(source: str) -> List[Fact]:
    """Parse facts text into ``(class, attrs)`` pairs.

    Accepts exactly what :func:`dumps` emits (plus comments/whitespace);
    forms may span lines or share one. Raises :class:`ParseError` or
    :class:`~repro.errors.LexError` with the line and column of the first
    offending token.
    """
    return list(_read_facts(source))


def fact_line(source: str, index: int) -> int:
    """The 1-based line on which the ``index``-th form (1-based) of a
    well-formed ``source`` opens. For error messages: the reader keeps no
    positions, so this scans again."""
    pos = 0
    for _ in range(index - 1):
        pos = _FORM.match(source, pos).end()
    return source.count("\n", 0, _SKIP.match(source, pos).end()) + 1


def _diagnose(source: str) -> NoReturn:
    """Raise the error for a text the reader refused, worded and located by
    the token walker. The walker accepting it would mean the two grammars
    have drifted apart, which is a bug here — never a slow way in."""
    _walk_tokens(source)
    raise AssertionError("facts reader refused a text the token walker accepts")


def _walk_tokens(source: str) -> List[Fact]:
    """The facts grammar over the program lexer's tokens: the diagnostic
    path of :func:`parse_facts_text` and the oracle its tests compare to."""
    tokens = tokenize(source)
    pos = 0

    def current() -> Token:
        return tokens[pos]

    def advance() -> Token:
        nonlocal pos
        tok = tokens[pos]
        if tok.kind is not TokenKind.EOF:
            pos += 1
        return tok

    def expect(kind: TokenKind, what: str) -> Token:
        tok = current()
        if tok.kind is not kind:
            raise ParseError(
                f"facts: expected {what}, found {tok.value!r}", tok.line, tok.column
            )
        return advance()

    def expect_name(what: str) -> Token:
        # Bare or bar-quoted, like any symbol :func:`dumps` prints.
        if current().kind is TokenKind.STRING:
            return advance()
        return expect(TokenKind.SYMBOL, what)

    facts: List[Fact] = []
    while current().kind is not TokenKind.EOF:
        expect(TokenKind.LPAREN, "'('")
        cls = expect_name("class name")
        attrs: Dict[str, Value] = {}
        while current().kind is TokenKind.CARET:
            advance()
            attr = expect_name("attribute name")
            val = current()
            if val.kind not in (TokenKind.SYMBOL, TokenKind.NUMBER, TokenKind.STRING):
                raise ParseError(
                    f"facts: expected constant value, found {val.value!r}",
                    val.line,
                    val.column,
                )
            advance()
            attrs[str(attr.value)] = val.value
        expect(TokenKind.RPAREN, "')'")
        facts.append((str(cls.value), attrs))
    return facts


def load_facts(source: str, wm: Optional[WorkingMemory] = None) -> WorkingMemory:
    """Assert the facts in ``source`` into ``wm`` (or a fresh memory),
    streaming: no list of them is built, and the facts ahead of a syntax
    error are already asserted when it is raised."""
    target = wm if wm is not None else WorkingMemory()
    for class_name, attrs in _read_facts(source):
        target.make(class_name, attrs)
    return target
