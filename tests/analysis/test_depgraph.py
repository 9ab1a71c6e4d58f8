"""Tests for the rule dependency graph, SCCs and stratification."""

from repro.analysis.depgraph import build_dependency_graph
from repro.lang.parser import parse_program
from repro.programs import REGISTRY


def _graph(src: str):
    return build_dependency_graph(parse_program(src))


class TestEdgeDerivation:
    def test_make_feeding_positive_ce_enables(self):
        g = _graph(
            """
            (literalize seed v)
            (literalize out v)
            (p producer (seed ^v <x>) --> (make out ^v <x>))
            (p consumer (out ^v <x>) --> (halt))
            """
        )
        kinds = {(e.src, e.dst, e.kind) for e in g.edges}
        assert ("producer", "consumer", "enables") in kinds
        assert ("consumer", "producer", "enables") not in kinds

    def test_make_feeding_negated_ce_inhibits(self):
        g = _graph(
            """
            (literalize seed v)
            (literalize flag v)
            (p raiser (seed ^v <x>) --> (make flag ^v up))
            (p guarded (seed ^v <x>) - (flag ^v up) --> (halt))
            """
        )
        kinds = {(e.src, e.dst, e.kind) for e in g.edges}
        assert ("raiser", "guarded", "inhibits") in kinds

    def test_remove_unblocking_negated_ce_enables(self):
        g = _graph(
            """
            (literalize flag v)
            (literalize seed v)
            (p clearer (flag ^v up) --> (remove 1))
            (p guarded (seed ^v <x>) - (flag ^v up) --> (halt))
            """
        )
        kinds = {(e.src, e.dst, e.kind) for e in g.edges}
        assert ("clearer", "guarded", "enables") in kinds
        # The remove also destroys matches of clearer itself (positive CE).
        assert ("clearer", "clearer", "inhibits") in kinds

    def test_disjoint_constants_no_edge(self):
        g = _graph(
            """
            (literalize item kind v)
            (p writer (item ^kind a ^v <x>) --> (modify 1 ^v done))
            (p reader (item ^kind b ^v done) --> (halt))
            """
        )
        # writer's modify keeps ^kind a; reader demands ^kind b.
        assert not [
            e for e in g.edges if e.src == "writer" and e.dst == "reader"
        ]

    def test_closed_make_cannot_feed_demanding_ce(self):
        g = _graph(
            """
            (literalize item phase v)
            (p maker (item ^phase boot ^v <x>) --> (make item ^v 1))
            (p reader (item ^phase run) --> (halt))
            """
        )
        # maker's make never assigns ^phase => reads back nil, not 'run'.
        assert not [
            e
            for e in g.edges
            if e.src == "maker" and e.dst == "reader" and e.kind == "enables"
        ]

    def test_conflicts_from_write_conflicts(self):
        g = _graph(
            """
            (literalize req n)
            (literalize slot owner)
            (p claim (req ^n <n>) (slot ^owner nil) --> (modify 2 ^owner <n>))
            """
        )
        conflicts = g.edges_of_kind("conflicts")
        assert len(conflicts) == 1
        assert conflicts[0].src == conflicts[0].dst == "claim"
        assert conflicts[0].class_name == "slot"


class TestSccAndStrata:
    CHAIN = """
    (literalize a v)
    (literalize b v)
    (literalize c v)
    (p first (a ^v <x>) --> (make b ^v <x>))
    (p second (b ^v <x>) --> (make c ^v <x>))
    (p third (c ^v <x>) --> (halt))
    """

    def test_acyclic_chain_strata(self):
        g = _graph(self.CHAIN)
        assert g.stratum_of["first"] == 0
        assert g.stratum_of["second"] == 1
        assert g.stratum_of["third"] == 2
        assert g.strata() == [["first"], ["second"], ["third"]]
        assert g.cyclic_sccs() == []
        assert g.is_stratified

    def test_mutual_recursion_one_scc(self):
        g = _graph(
            """
            (literalize a v)
            (literalize b v)
            (p ab (a ^v <x>) --> (make b ^v <x>))
            (p ba (b ^v <x>) --> (make a ^v <x>))
            """
        )
        assert g.scc_of["ab"] == g.scc_of["ba"]
        assert len(g.cyclic_sccs()) == 1
        assert g.n_strata == 1

    def test_self_loop_is_cyclic(self):
        g = _graph(
            """
            (literalize path v)
            (p grow (path ^v <x>) --> (make path ^v <x>))
            """
        )
        assert g.cyclic_sccs() == [("grow",)]

    def test_inhibits_inside_scc_breaks_stratification(self):
        g = _graph(
            """
            (literalize a v)
            (literalize b v)
            (p ab (a ^v go) - (b ^v stop) --> (make b ^v stop))
            (p ba (b ^v stop) --> (make a ^v go))
            """
        )
        assert g.scc_of["ab"] == g.scc_of["ba"]
        bad = g.unstratified_inhibits()
        assert any(e.src == "ab" and e.dst == "ab" or e.dst == "ab" for e in bad)
        assert not g.is_stratified

    def test_stats_keys(self):
        stats = _graph(self.CHAIN).stats()
        assert stats["rules"] == 3
        assert stats["strata"] == 3
        assert stats["stratified"] is True
        for key in ("edges", "enables", "inhibits", "conflicts", "sccs",
                    "largestScc", "cyclicSccs"):
            assert key in stats


class TestRegistry:
    def test_every_workload_builds(self):
        for name in sorted(REGISTRY):
            wl = REGISTRY[name]()
            g = build_dependency_graph(wl.program)
            assert set(g.rules) == {r.name for r in wl.program.rules}
            assert set(g.stratum_of) == set(g.rules)
            # Every rule is in exactly one SCC.
            members = [n for scc in g.sccs for n in scc]
            assert sorted(members) == sorted(g.rules)

    def test_tc_is_cyclic(self):
        g = build_dependency_graph(REGISTRY["tc"]().program)
        assert g.cyclic_sccs()  # tc-extend feeds itself
