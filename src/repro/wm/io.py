"""Working-memory persistence: dump and reload WMEs as facts text.

The format is the CLI's facts-file syntax — one ``(class ^attr value ...)``
form per element, in timestamp order::

    (edge ^src n0 ^dst n1)
    (dist ^node n0 ^cost 0)

Round trip: ``load_facts(dumps(wm))`` re-asserts equal *content* (fresh
timestamps — timestamps are engine-run state, not data). Used by the CLI's
``--dump-wm`` and handy for capturing benchmark states.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO, Tuple

from repro.errors import ParseError
from repro.lang.ast import Value, _format_symbol, _format_value
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["dumps", "dump", "parse_facts_text", "load_facts"]


def _format_wme(wme: WME) -> str:
    parts = [_format_symbol(wme.class_name)]
    for attr, value in wme.items():
        parts.append(f"^{_format_symbol(attr)} {_format_value(value)}")
    return f"({' '.join(parts)})"


def dumps(wm: WorkingMemory) -> str:
    """Serialize all live WMEs, one per line, in global timestamp order."""
    return "\n".join(_format_wme(w) for w in wm.snapshot()) + (
        "\n" if len(wm) else ""
    )


def dump(wm: WorkingMemory, fh: TextIO) -> None:
    """Write :func:`dumps` output to an open text file."""
    fh.write(dumps(wm))


def parse_facts_text(source: str) -> List[Tuple[str, Dict[str, Value]]]:
    """Parse facts text into ``(class, attrs)`` pairs.

    Accepts exactly what :func:`dumps` emits (plus comments/whitespace).
    """
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

    facts: List[Tuple[str, Dict[str, Value]]] = []
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
    """Assert the facts in ``source`` into ``wm`` (or a fresh memory)."""
    target = wm if wm is not None else WorkingMemory()
    for class_name, attrs in parse_facts_text(source):
        target.make(class_name, attrs)
    return target
