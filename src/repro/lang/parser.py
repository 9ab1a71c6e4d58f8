"""Recursive-descent parser for the PARULEL surface syntax.

Grammar (informal)::

    program     := { declaration }
    declaration := literalize | rule | metarule
    literalize  := "(" "literalize" SYMBOL { SYMBOL } ")"
    rule        := "(" "p"  SYMBOL [salience] lhs "-->" rhs ")"
    metarule    := "(" "mp" SYMBOL [salience] lhs "-->" rhs ")"
    salience    := "(" "salience" NUMBER ")"
    lhs         := ce { ce }
    ce          := [ "-" ] "(" SYMBOL { "^" SYMBOL test } ")"
    test        := constant | VARIABLE | predtest | disjunction | conjunction
    predtest    := PRED ( constant | VARIABLE )
    disjunction := "<<" { constant } ">>"
    conjunction := "{" { constant | VARIABLE | predtest | disjunction } "}"
    rhs         := { action }
    action      := make | modify | remove | write | bind | halt | call | redact

Predicates ``= <> < <= > >= <=>`` arrive from the lexer as SYMBOL tokens and
are recognized positionally. The parser performs no semantic checking beyond
shape; see :mod:`repro.lang.analysis`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.lang.ast import (
    Action,
    BindAction,
    CallAction,
    ComputeExpr,
    ConditionElement,
    ConjunctiveTest,
    ConstantExpr,
    ConstantTest,
    DisjunctionTest,
    Expr,
    GenatomExpr,
    HaltAction,
    Literalize,
    MakeAction,
    MetaRule,
    ModifyAction,
    PredicateTest,
    Program,
    RedactAction,
    RemoveAction,
    Rule,
    Test,
    TestAtom,
    Value,
    VariableExpr,
    VariableTest,
    WriteAction,
)
from repro.lang.lexer import PREDICATE_SYMBOLS, Token, TokenKind, tokenize

__all__ = ["parse_program", "Parser"]

#: Arithmetic operator symbols accepted inside ``(compute ...)``.
ARITH_OPS = frozenset({"+", "-", "*", "/", "//", "mod", "\\\\"})


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self._current
        if tok.kind is not kind:
            wanted = what or kind.value
            raise ParseError(
                f"expected {wanted}, found {tok.kind.value!r} ({tok.value!r})",
                tok.line,
                tok.column,
            )
        return self._advance()

    def _expect_name(self, what: str) -> Token:
        """A class, attribute or rule name: a symbol, bare or bar-quoted
        (the printer quotes names by the same rule as values)."""
        if self._current.kind is TokenKind.STRING:
            return self._advance()
        return self._expect(TokenKind.SYMBOL, what)

    def _error(self, message: str) -> ParseError:
        tok = self._current
        return ParseError(message, tok.line, tok.column)

    # -- entry point --------------------------------------------------------

    def parse_program(self) -> Program:
        literalizes: List[Literalize] = []
        rules: List[Rule] = []
        meta_rules: List[MetaRule] = []
        while self._current.kind is not TokenKind.EOF:
            self._expect(TokenKind.LPAREN)
            head = self._expect(TokenKind.SYMBOL, "declaration head")
            if head.value == "literalize":
                literalizes.append(self._parse_literalize_body())
            elif head.value == "p":
                rules.append(self._parse_rule_body(meta=False))
            elif head.value == "mp":
                meta_rules.append(self._parse_rule_body(meta=True))
            else:
                raise ParseError(
                    f"unknown declaration {head.value!r} (expected literalize, p or mp)",
                    head.line,
                    head.column,
                )
        return Program(
            literalizes=tuple(literalizes),
            rules=tuple(rules),
            meta_rules=tuple(meta_rules),
        )

    # -- declarations --------------------------------------------------------

    def _parse_literalize_body(self) -> Literalize:
        name = self._expect_name("class name")
        attrs: List[str] = []
        while self._current.kind in (TokenKind.SYMBOL, TokenKind.STRING):
            attrs.append(str(self._advance().value))
        self._expect(TokenKind.RPAREN)
        return Literalize(class_name=str(name.value), attributes=tuple(attrs))

    def _parse_rule_body(self, meta: bool) -> Rule:
        name = self._expect_name("rule name")
        salience = 0
        # Optional (salience N) immediately after the name.
        if (
            self._current.kind is TokenKind.LPAREN
            and self._peek(1).kind is TokenKind.SYMBOL
            and self._peek(1).value == "salience"
        ):
            self._advance()  # (
            self._advance()  # salience
            num = self._expect(TokenKind.NUMBER, "salience value")
            if not isinstance(num.value, int):
                raise ParseError("salience must be an integer", num.line, num.column)
            salience = num.value
            self._expect(TokenKind.RPAREN)
        conditions: List[ConditionElement] = []
        while self._current.kind is not TokenKind.ARROW:
            conditions.append(self._parse_condition_element())
        self._expect(TokenKind.ARROW)
        actions: List[Action] = []
        while self._current.kind is not TokenKind.RPAREN:
            actions.append(self._parse_action(meta=meta))
        self._expect(TokenKind.RPAREN)
        if not conditions:
            raise self._error(f"rule {name.value!r} has no condition elements")
        cls = MetaRule if meta else Rule
        return cls(
            name=str(name.value),
            conditions=tuple(conditions),
            actions=tuple(actions),
            salience=salience,
        )

    # -- LHS -----------------------------------------------------------------

    def _parse_condition_element(self) -> ConditionElement:
        negated = False
        if self._current.kind is TokenKind.MINUS:
            self._advance()
            negated = True
        self._expect(TokenKind.LPAREN)
        cls = self._expect_name("class name")
        tests: List[Tuple[str, Test]] = []
        while self._current.kind is TokenKind.CARET:
            self._advance()
            attr = self._expect_name("attribute name")
            tests.append((str(attr.value), self._parse_test()))
        self._expect(TokenKind.RPAREN)
        return ConditionElement(
            class_name=str(cls.value), tests=tuple(tests), negated=negated
        )

    def _parse_test(self) -> Test:
        tok = self._current
        if tok.kind is TokenKind.LBRACE:
            self._advance()
            atoms: List[TestAtom] = []
            while self._current.kind is not TokenKind.RBRACE:
                atoms.append(self._parse_test_atom())
            self._expect(TokenKind.RBRACE)
            if not atoms:
                raise self._error("empty conjunctive test { }")
            return ConjunctiveTest(tests=tuple(atoms))
        return self._parse_test_atom()

    def _parse_test_atom(self) -> TestAtom:
        tok = self._current
        if tok.kind is TokenKind.LDISJ:
            self._advance()
            alts: List[Value] = []
            while self._current.kind is not TokenKind.RDISJ:
                alts.append(self._parse_constant("disjunction alternative"))
            self._expect(TokenKind.RDISJ)
            if not alts:
                raise self._error("empty disjunction << >>")
            return DisjunctionTest(alternatives=tuple(alts))
        if tok.kind is TokenKind.SYMBOL and tok.value in PREDICATE_SYMBOLS:
            self._advance()
            operand = self._parse_pred_operand()
            return PredicateTest(predicate=str(tok.value), operand=operand)
        if tok.kind is TokenKind.VARIABLE:
            self._advance()
            return VariableTest(name=str(tok.value))
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING, TokenKind.SYMBOL):
            self._advance()
            return ConstantTest(value=tok.value)
        raise self._error(
            f"expected a test (constant, variable, predicate, << >> or {{ }}), "
            f"found {tok.kind.value!r}"
        )

    def _parse_pred_operand(self) -> Union[ConstantTest, VariableTest]:
        tok = self._current
        if tok.kind is TokenKind.VARIABLE:
            self._advance()
            return VariableTest(name=str(tok.value))
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING, TokenKind.SYMBOL):
            self._advance()
            return ConstantTest(value=tok.value)
        raise self._error("predicate needs a constant or variable operand")

    def _parse_constant(self, what: str) -> Value:
        tok = self._current
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING, TokenKind.SYMBOL):
            self._advance()
            return tok.value
        raise self._error(f"expected {what} (constant), found {tok.kind.value!r}")

    # -- RHS -----------------------------------------------------------------

    def _parse_action(self, meta: bool) -> Action:
        self._expect(TokenKind.LPAREN)
        head = self._expect(TokenKind.SYMBOL, "action name")
        name = str(head.value)
        if name == "make":
            cls = self._expect_name("class name")
            assignments = self._parse_assignments()
            self._expect(TokenKind.RPAREN)
            return MakeAction(class_name=str(cls.value), assignments=assignments)
        if name == "modify":
            idx = self._expect(TokenKind.NUMBER, "condition-element index")
            if not isinstance(idx.value, int) or idx.value < 1:
                raise ParseError(
                    "modify needs a positive integer CE index", idx.line, idx.column
                )
            assignments = self._parse_assignments()
            self._expect(TokenKind.RPAREN)
            return ModifyAction(ce_index=idx.value, assignments=assignments)
        if name == "remove":
            indices: List[int] = []
            while self._current.kind is TokenKind.NUMBER:
                tok = self._advance()
                if not isinstance(tok.value, int) or tok.value < 1:
                    raise ParseError(
                        "remove needs positive integer CE indices", tok.line, tok.column
                    )
                indices.append(tok.value)
            self._expect(TokenKind.RPAREN)
            if not indices:
                raise self._error("remove needs at least one CE index")
            return RemoveAction(ce_indices=tuple(indices))
        if name == "write":
            args: List[Expr] = []
            while self._current.kind is not TokenKind.RPAREN:
                args.append(self._parse_expr())
            self._expect(TokenKind.RPAREN)
            return WriteAction(arguments=tuple(args))
        if name == "bind":
            var = self._expect(TokenKind.VARIABLE, "variable")
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return BindAction(name=str(var.value), expr=expr)
        if name == "halt":
            self._expect(TokenKind.RPAREN)
            return HaltAction()
        if name == "call":
            fn = self._expect(TokenKind.SYMBOL, "function name")
            args = []
            while self._current.kind is not TokenKind.RPAREN:
                args.append(self._parse_expr())
            self._expect(TokenKind.RPAREN)
            return CallAction(function=str(fn.value), arguments=tuple(args))
        if name == "redact":
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return RedactAction(expr=expr)
        raise ParseError(f"unknown action {name!r}", head.line, head.column)

    def _parse_assignments(self) -> Tuple[Tuple[str, Expr], ...]:
        out: List[Tuple[str, Expr]] = []
        while self._current.kind is TokenKind.CARET:
            self._advance()
            attr = self._expect_name("attribute name")
            out.append((str(attr.value), self._parse_expr()))
        return tuple(out)

    def _parse_expr(self) -> Expr:
        tok = self._current
        if tok.kind is TokenKind.VARIABLE:
            self._advance()
            return VariableExpr(name=str(tok.value))
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING, TokenKind.SYMBOL):
            self._advance()
            return ConstantExpr(value=tok.value)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            head = self._expect(TokenKind.SYMBOL, "expression head")
            if head.value == "compute":
                return self._parse_compute_body()
            if head.value == "genatom":
                prefix = "g"
                if self._current.kind is TokenKind.SYMBOL:
                    prefix = str(self._advance().value)
                self._expect(TokenKind.RPAREN)
                return GenatomExpr(prefix=prefix)
            raise ParseError(
                f"only (compute ...) and (genatom ...) expressions are "
                f"allowed, found ({head.value} ...)",
                head.line,
                head.column,
            )
        raise self._error(f"expected an expression, found {tok.kind.value!r}")

    def _parse_compute_body(self) -> ComputeExpr:
        items: List[Union[Expr, str]] = []
        expect_operand = True
        while self._current.kind is not TokenKind.RPAREN:
            tok = self._current
            if expect_operand:
                items.append(self._parse_expr())
                expect_operand = False
            else:
                if tok.kind is TokenKind.MINUS:
                    self._advance()
                    items.append("-")
                elif tok.kind is TokenKind.SYMBOL and str(tok.value) in ARITH_OPS:
                    self._advance()
                    items.append(str(tok.value))
                else:
                    raise self._error(
                        f"expected arithmetic operator in compute, found {tok.value!r}"
                    )
                expect_operand = True
        self._expect(TokenKind.RPAREN)
        if not items or expect_operand:
            raise self._error("malformed (compute ...): must alternate operand/operator")
        return ComputeExpr(items=tuple(items))


def parse_program(source: str) -> Program:
    """Parse PARULEL source text into a :class:`~repro.lang.ast.Program`.

    Raises :class:`~repro.errors.LexError` or
    :class:`~repro.errors.ParseError` on malformed input. The result is not
    yet semantically checked; pass it to
    :func:`repro.lang.analysis.analyze_program` for that.
    """
    return Parser(tokenize(source)).parse_program()
