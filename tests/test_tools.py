"""Tests for the tooling package (DOT export, WM diff)."""

import re

import pytest

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import ReteMatcher
from repro.lab.rete.dot import rete_to_dot
from repro.lang.parser import parse_program
from repro.match.compile import compile_rules
from repro.programs import REGISTRY
from repro.tools import diff_wm, plan_to_dot, provenance_to_dot
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

TC = """
(literalize edge src dst)
(literalize path src dst)
(p tc-init (edge ^src <a> ^dst <b>) -(path ^src <a> ^dst <b>)
 --> (make path ^src <a> ^dst <b>))
(p tc-extend (path ^src <a> ^dst <b>) (edge ^src <b> ^dst <c>)
 -(path ^src <a> ^dst <c>) --> (make path ^src <a> ^dst <c>))
"""


class TestReteDot:
    def test_structure_present(self):
        wm = WorkingMemory()
        matcher = ReteMatcher(parse_program(TC).rules, wm)
        dot = rete_to_dot(matcher)
        assert dot.startswith("digraph rete {")
        assert dot.rstrip().endswith("}")
        assert "tc-init" in dot and "tc-extend" in dot
        assert "NOT" in dot  # negative nodes rendered
        assert dot.count("doubleoctagon") == 2  # one production per rule

    def test_sizes_reflect_memory(self):
        wm = WorkingMemory()
        matcher = ReteMatcher(parse_program(TC).rules, wm)
        wm.make("edge", src="a", dst="b")
        dot = rete_to_dot(matcher)
        assert "[1 wmes]" in dot

    def test_sizes_can_be_omitted(self):
        wm = WorkingMemory()
        matcher = ReteMatcher(parse_program(TC).rules, wm)
        dot = rete_to_dot(matcher, include_sizes=False)
        assert "wmes]" not in dot

    def test_every_edge_references_defined_nodes(self):
        wm = WorkingMemory()
        matcher = ReteMatcher(parse_program(TC).rules, wm)
        dot = rete_to_dot(matcher)
        defined = set()
        for line in dot.splitlines():
            line = line.strip()
            if line.startswith(("alpha", "beta")) and "[" in line and "->" not in line:
                defined.add(line.split(" ")[0])
        for line in dot.splitlines():
            if "->" in line:
                src, rest = line.strip().split(" -> ")
                dst = rest.split(" ")[0].rstrip(";")
                assert src in defined, src
                assert dst in defined, dst


def _defined_and_edges(dot):
    """Node ids the DOT text declares, and the ``(src, dst)`` of each edge."""
    defined, edges = set(), []
    for line in dot.splitlines()[1:-1]:
        line = line.strip()
        if "->" in line:
            src, rest = line.split(" -> ")
            edges.append((src, rest.split(" ")[0].rstrip(";")))
        elif line.split(" ")[0] not in ("rankdir=TB;", "node"):
            defined.add(line.split(" ")[0])
    return defined, edges


class TestPlanDot:
    def test_structure(self):
        dot = plan_to_dot(parse_program(TC).rules)
        assert dot.startswith("digraph treat {")
        assert dot.rstrip().endswith("}")
        assert dot.count("shape=box") == 2  # edge and path: one memory each
        assert dot.count("doubleoctagon") == 2  # one production per rule
        assert dot.count("NOT ce") == 2  # tc-init's and tc-extend's last CE
        assert "wmes]" not in dot  # no facts, no sizes
        defined, edges = _defined_and_edges(dot)
        assert edges
        for src, dst in edges:
            assert src in defined and dst in defined, (src, dst)

    def test_join_attributes_label_edges_and_negations_are_dashed(self):
        dot = plan_to_dot(parse_program(TC).rules)
        assert 'alpha0 -> r1ce1 [label="^src = <b>"];' in dot
        assert '[label="^src = <a>\\n^dst = <c>", style=dashed];' in dot
        assert 'r1ce2 [shape=ellipse, style=dashed, label="NOT ce3 (tc-extend)"];' in dot

    def test_sizes_are_the_primed_memories(self):
        program = parse_program(TC)
        wm = WorkingMemory(TemplateRegistry.from_program(program))
        wm.make("edge", src="a", dst="b")
        wm.make("edge", src="b", dst="c")
        dot = plan_to_dot(program.rules, wm)
        assert 'label="edge\\n[2 wmes]"' in dot
        assert 'label="path\\n[0 wmes]"' in dot

    @pytest.mark.parametrize("name", ["manners", "circuit"])
    def test_ces_are_drawn_in_join_plan_order(self, name):
        rules = REGISTRY[name]().program.rules
        dot = plan_to_dot(rules)
        replanned = 0
        for r, cr in enumerate(compile_rules(rules)):
            order = cr.plan.order if cr.plan is not None else range(len(cr.ces))
            replanned += list(order) != list(range(len(cr.ces)))
            pattern = rf"^  r{r}ce\d+ \[.*? ce(\d+) \("
            drawn = [int(n) - 1 for n in re.findall(pattern, dot, re.M)]
            assert drawn == list(order), cr.name
            assert f"r{r}ce{len(cr.ces) - 1} -> r{r}prod;" in dot
        assert replanned  # the workload has a rule the planner reorders


class TestProvenanceDot:
    def test_derivation_dag(self):
        engine = ParulelEngine(parse_program(TC), EngineConfig(track_provenance=True))
        for a, b in [("a", "b"), ("b", "c")]:
            engine.make("edge", src=a, dst=b)
        engine.run()
        target = engine.wm.find("path", src="a", dst="c")[0]
        dot = provenance_to_dot(engine.provenance, target)
        assert dot.startswith("digraph provenance {")
        assert "tc-extend" in dot
        assert "tc-init" in dot
        assert dot.count("->") >= 3

    def test_retired_wmes_greyed(self):
        src = """
        (literalize count value)
        (p bump (count ^value {<v> < 2}) --> (modify 1 ^value (compute <v> + 1)))
        """
        engine = ParulelEngine(parse_program(src), EngineConfig(track_provenance=True))
        engine.make("count", value=0)
        engine.run()
        final = engine.wm.find("count", value=2)[0]
        dot = provenance_to_dot(engine.provenance, final)
        assert "lightgrey" in dot  # the displaced WMEs


class TestDiff:
    def test_identical(self):
        a, b = WorkingMemory(), WorkingMemory()
        a.make("c", x=1)
        b.make("c", x=1)
        diff = diff_wm(a, b)
        assert diff.unchanged
        assert "identical" in diff.summary()

    def test_timestamps_ignored(self):
        a, b = WorkingMemory(), WorkingMemory()
        a.make("pad", y=0)  # shift b's timestamps
        a.make("c", x=1)
        b.make("c", x=1)
        b.make("pad", y=0)
        assert diff_wm(a, b).unchanged

    def test_added_and_removed(self):
        a, b = WorkingMemory(), WorkingMemory()
        a.make("c", x=1)
        b.make("c", x=2)
        diff = diff_wm(a, b)
        assert len(diff.added) == 1
        assert len(diff.removed) == 1
        assert "+ (c ^x 2)" in diff.summary()
        assert "- (c ^x 1)" in diff.summary()

    def test_multiplicity(self):
        a, b = WorkingMemory(), WorkingMemory()
        a.make("c", x=1)
        b.make("c", x=1)
        b.make("c", x=1)  # same content twice
        diff = diff_wm(a, b)
        assert len(diff.added) == 1
        assert diff.added[0][0] == "c"

    def test_engine_cycle_diffing(self):
        # Snapshot before/after a run and diff: adds = derived paths.
        prog = parse_program(TC)
        before = WorkingMemory()
        engine = ParulelEngine(prog)
        for a_, b_ in [("a", "b"), ("b", "c")]:
            before.make("edge", src=a_, dst=b_)
            engine.make("edge", src=a_, dst=b_)
        engine.run()
        diff = diff_wm(before, engine.wm)
        assert len(diff.added) == 3  # ab, bc, ac paths
        assert diff.removed == []
