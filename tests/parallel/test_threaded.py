"""Tests for the real-thread match pool."""

import pytest

from repro.lab.rete import create_lab_matcher
from repro.lab.threaded import ThreadedMatchPool
from repro.lang.parser import parse_program
from repro.wm.memory import WorkingMemory

SRC = """
(p j0 (a0 ^k <k>) (b0 ^k <k>) --> (halt))
(p j1 (a1 ^k <k>) (b1 ^k <k>) --> (halt))
(p j2 (a2 ^k <k>) (b2 ^k <k>) --> (halt))
(p neg (a0 ^k <k>) -(b1 ^k <k>) --> (halt))
"""


def load(wm, n=6):
    for r in range(3):
        for i in range(n):
            wm.make(f"a{r}", k=i % 3)
            wm.make(f"b{r}", k=i % 3)


class TestThreadedMatchPool:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_agrees_with_rete(self, n_threads):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        with ThreadedMatchPool(prog.rules, wm, n_threads) as pool:
            pooled = sorted(i.key for i in pool.conflict_set())
        expected = sorted(i.key for i in rete.instantiations())
        assert pooled == expected

    def test_deterministic_order(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        load(wm)
        with ThreadedMatchPool(prog.rules, wm, 3) as pool:
            first = [i.key for i in pool.conflict_set()]
            second = [i.key for i in pool.conflict_set()]
        assert first == second

    def test_reflects_wm_changes_between_calls(self):
        prog = parse_program(SRC)
        wm = WorkingMemory()
        with ThreadedMatchPool(prog.rules, wm, 2) as pool:
            assert pool.conflict_set() == []
            wm.make("a0", k=1)
            wm.make("b0", k=1)
            assert len(pool.conflict_set()) >= 1

    def test_zero_threads_rejected(self):
        prog = parse_program(SRC)
        with pytest.raises(ValueError):
            ThreadedMatchPool(prog.rules, WorkingMemory(), 0)

    def test_close_idempotent(self):
        prog = parse_program(SRC)
        pool = ThreadedMatchPool(prog.rules, WorkingMemory(), 1)
        pool.close()
        pool.close()

    def test_more_threads_than_rules_skips_empty_sites(self):
        # Regression: sites with zero assigned rules used to get no-op
        # futures submitted every cycle.
        prog = parse_program(SRC)  # 4 rules
        wm = WorkingMemory()
        rete = create_lab_matcher("rete", prog.rules, wm)
        load(wm)
        submitted = []
        with ThreadedMatchPool(prog.rules, wm, 16) as pool:
            assert pool.active_sites == tuple(range(4))
            real_submit = pool._pool.submit

            def counting_submit(fn, *args):
                submitted.append(args)
                return real_submit(fn, *args)

            pool._pool.submit = counting_submit
            pooled = sorted(i.key for i in pool.conflict_set())
        assert len(submitted) == 4  # one per non-empty site, not 16
        assert pooled == sorted(i.key for i in rete.instantiations())

    def test_pool_with_no_rules(self):
        pool = ThreadedMatchPool([], WorkingMemory(), 4)
        assert pool.active_sites == ()
        assert pool.conflict_set() == []
        pool.close()
        pool.close()
