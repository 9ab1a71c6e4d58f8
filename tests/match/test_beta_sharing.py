"""Structural tests for RETE beta-prefix sharing (the rete-shared variant)."""

import pytest

from repro.lab.rete import ReteMatcher, SharedReteMatcher
from repro.lang.parser import parse_program
from repro.wm.memory import WorkingMemory

# Three rules sharing a two-CE prefix (context + item), diverging after.
SHARED_PREFIX = """
(p r-close (ctx ^phase go) (item ^k <k>) (d ^k <k>) --> (halt))
(p r-tag   (ctx ^phase go) (item ^k <k>) (e ^k <k>) --> (halt))
(p r-solo  (ctx ^phase go) (item ^k <k>) --> (halt))
"""


def build(source, shared):
    wm = WorkingMemory()
    cls = SharedReteMatcher if shared else ReteMatcher
    return wm, cls(parse_program(source).rules, wm)


class TestSharing:
    def test_shared_nodes_counted(self):
        _wm, plain = build(SHARED_PREFIX, shared=False)
        _wm2, shared = build(SHARED_PREFIX, shared=True)
        assert plain.shared_nodes == 0
        # r-tag and r-solo each reuse the 2-node prefix built for r-close:
        # (ctx) reused twice, (ctx,item) reused twice.
        assert shared.shared_nodes == 4

    def test_token_state_smaller_when_shared(self):
        wm_p, plain = build(SHARED_PREFIX, shared=False)
        wm_s, shared = build(SHARED_PREFIX, shared=True)
        for wm in (wm_p, wm_s):
            wm.make("ctx", phase="go")
            for k in range(5):
                wm.make("item", k=k)
        assert shared.token_count() < plain.token_count()

    def test_identical_conflict_sets(self):
        wm_p, plain = build(SHARED_PREFIX, shared=False)
        wm_s, shared = build(SHARED_PREFIX, shared=True)
        for wm in (wm_p, wm_s):
            wm.make("ctx", phase="go")
            for k in range(4):
                wm.make("item", k=k)
                if k % 2 == 0:
                    wm.make("d", k=k)
                else:
                    wm.make("e", k=k)
        assert sorted(i.key for i in plain.instantiations()) == sorted(
            i.key for i in shared.instantiations()
        )

    def test_alpha_work_unchanged(self):
        # Sharing is a beta-layer optimization; alpha memories already share.
        _wm, plain = build(SHARED_PREFIX, shared=False)
        _wm2, shared = build(SHARED_PREFIX, shared=True)
        assert plain.alpha_memory_count == shared.alpha_memory_count

    def test_divergent_prefixes_not_shared(self):
        src = """
        (p a (ctx ^phase go) --> (halt))
        (p b (ctx ^phase stop) --> (halt))
        """
        _wm, shared = build(src, shared=True)
        assert shared.shared_nodes == 0

    def test_different_join_tests_not_shared(self):
        src = """
        (p a (x ^k <k>) (y ^k <k>) --> (halt))
        (p b (x ^k <k>) (y ^k <> <k>) --> (halt))
        """
        _wm, shared = build(src, shared=True)
        # Heads share (same pattern, same parent); second nodes must not.
        assert shared.shared_nodes == 1

    def test_removal_cascades_through_shared_fanout(self):
        wm, shared = build(SHARED_PREFIX, shared=True)
        ctx = wm.make("ctx", phase="go")
        wm.make("item", k=1)
        wm.make("d", k=1)
        wm.make("e", k=1)
        assert len(shared.instantiations()) == 3  # one per rule
        wm.remove(ctx)
        assert shared.instantiations() == []
        assert shared.token_count() == 0

    def test_negated_prefix_sharing(self):
        src = """
        (p a (x ^k <k>) -(block ^k <k>) (y ^k <k>) --> (halt))
        (p b (x ^k <k>) -(block ^k <k>) (z ^k <k>) --> (halt))
        """
        wm, shared = build(src, shared=True)
        assert shared.shared_nodes == 2  # head + negative node reused
        wm.make("x", k=1)
        wm.make("y", k=1)
        wm.make("z", k=1)
        assert len(shared.instantiations()) == 2
        blocker = wm.make("block", k=1)
        assert shared.instantiations() == []
        wm.remove(blocker)
        assert len(shared.instantiations()) == 2


class TestEngineIntegration:
    def test_parulel_runs_on_shared_matcher(self):
        from repro.programs import REGISTRY
        from tests.lab_engine import lab_engine

        for name in ("manners", "routing", "tc"):
            wl = REGISTRY[name]()
            engine = lab_engine(wl.program, "rete-shared")
            wl.setup(engine)
            engine.run(max_cycles=5000)
            assert wl.failed_checks(engine.wm) == [], name
