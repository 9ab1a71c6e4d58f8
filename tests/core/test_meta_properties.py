"""Property-based tests of the meta level (redaction semantics).

The central property: a "prefer minimum attribute" meta-rule must leave
exactly the minimum-valued candidates as survivors, for any candidate
multiset — i.e. redaction implements the declarative aggregate the rules
claim, across the fixpoint machinery, reification, and refraction.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import ParulelEngine
from repro.lang.builder import ProgramBuilder, conj, gt, ne, v
from repro.lang.parser import parse_program


def min_selection_program():
    """Grant the (one) request with the minimal rank; one grant per cycle."""
    pb = ProgramBuilder()
    pb.literalize("req", "name", "rank")
    pb.literalize("grant", "name")
    (
        pb.rule("grant")
        .ce("req", name=v("n"), rank=v("r"))
        .make("grant", name=v("n"))
        .remove(1)
    )
    (
        pb.meta_rule("prefer-min-rank")
        .ce("instantiation", rule="grant", id=v("i"), r=v("r1"))
        .ce(
            "instantiation",
            rule="grant",
            id=conj(v("j"), ne(v("i"))),
            r=gt(v("r1")),
        )
        .redact(v("j"))
    )
    (
        pb.meta_rule("tie-break-by-name")
        .ce("instantiation", rule="grant", id=v("i"), r=v("r1"), n=v("n1"))
        .ce(
            "instantiation",
            rule="grant",
            id=conj(v("j"), ne(v("i"))),
            r=v("r1"),
            n=gt(v("n1")),
        )
        .redact(v("j"))
    )
    return pb.build()


PROGRAM = min_selection_program()

rank_lists = st.lists(st.integers(0, 9), min_size=1, max_size=10)


class TestMinSelectionProperty:
    @settings(max_examples=80, deadline=None)
    @given(ranks=rank_lists)
    def test_grants_issued_in_rank_order(self, ranks):
        engine = ParulelEngine(PROGRAM)
        for i, rank in enumerate(ranks):
            engine.make("req", name=f"q{i:02d}", rank=rank)
        result = engine.run(max_cycles=len(ranks) * 4 + 4)

        # One grant per cycle, and grant order is sorted by (rank, name).
        assert result.cycles == len(ranks)
        assert all(r.fired == 1 for r in result.reports)
        expected_order = [
            f"q{i:02d}"
            for i, _rank in sorted(enumerate(ranks), key=lambda p: (p[1], p[0]))
        ]
        # grants are made cycle by cycle; WM timestamps give the order.
        granted = [
            w.get("name")
            for w in sorted(engine.wm.by_class("grant"), key=lambda w: w.timestamp)
        ]
        assert granted == expected_order

    @settings(max_examples=50, deadline=None)
    @given(ranks=rank_lists)
    def test_redaction_counts_add_up(self, ranks):
        engine = ParulelEngine(PROGRAM)
        for i, rank in enumerate(ranks):
            engine.make("req", name=f"q{i:02d}", rank=rank)
        result = engine.run(max_cycles=len(ranks) * 4 + 4)
        for report in result.reports:
            assert report.fired + report.redaction.redacted == report.candidates


class TestChainedRedactionProperty:
    """kill-above-threshold: meta-rules reading ordinary WM facts."""

    SRC = """
    (literalize req name cost)
    (literalize budget limit)
    (p grant (req ^name <n> ^cost <c>) --> (remove 1))
    (mp too-expensive
        (instantiation ^rule grant ^id <i> ^c <cost>)
        (budget ^limit < <cost>)
        -->
        (redact <i>))
    """

    @settings(max_examples=60, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 20), min_size=1, max_size=8),
        limit=st.integers(0, 20),
    )
    def test_only_affordable_requests_granted(self, costs, limit):
        engine = ParulelEngine(parse_program(self.SRC))
        for i, cost in enumerate(costs):
            engine.make("req", name=f"q{i}", cost=cost)
        engine.make("budget", limit=limit)
        engine.run(max_cycles=50)
        remaining = sorted(w.get("cost") for w in engine.wm.by_class("req"))
        expected_remaining = sorted(c for c in costs if c > limit)
        assert remaining == expected_remaining
