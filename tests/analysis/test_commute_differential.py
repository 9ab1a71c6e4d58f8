"""Randomized differential audit of the commute detector's verdicts.

Seeded ``random.Random`` program generation (same idiom as
``tests/match/test_indexing_differential.py``, fixed example count so the
coverage floor is explicit): across 60 random rule programs with
write-heavy actions,

1. the audit (:mod:`tests.core.commute_audit`) replays every fired pair
   in both orders — a statically-COMMUTES pair whose firings diverge
   raises ``CommuteViolation``, so a clean run *is* the proof audit; and
2. the audited run must be byte-identical — same cycles, firings and
   final working memory records — to the plain engine.
"""

import random

import pytest

from repro.analysis.commute import Verdict, commute_matrix
from repro.core import EngineConfig, ParulelEngine
from repro.errors import CycleLimitExceeded
from repro.lang.builder import ProgramBuilder, v

from tests.core.commute_audit import CommuteAudit

CLASSES = ["a", "b", "c"]
ATTRS = ["k", "m"]
VALUES = [0, 1, 2]

N_PROGRAMS = 60  # ≥60 seeds: the coverage floor promised in the PR


def _random_program(rng):
    """1-3 rules, 1-2 positive CEs (+ optional guard negation), and a
    write-heavy RHS: make / modify / remove over the matched CEs."""
    pb = ProgramBuilder()
    for r in range(rng.randint(1, 3)):
        rb = pb.rule(f"r{r}")
        bound = []
        n_pos = rng.randint(1, 2)
        for i in range(n_pos):
            cls = rng.choice(CLASSES)
            tests = {}
            for attr in ATTRS:
                choice = rng.randint(0, 3)
                if choice == 0:
                    continue
                if choice == 1:
                    tests[attr] = rng.choice(VALUES)
                elif choice == 2 and bound:
                    tests[attr] = v(rng.choice(bound))
                else:
                    var = f"v{r}_{i}_{attr}"
                    tests[attr] = v(var)
                    bound.append(var)
            rb.ce(cls, **tests)
        action = rng.randint(0, 2)
        if action == 0:
            make_attrs = {
                attr: (v(rng.choice(bound)) if bound and rng.random() < 0.5
                       else rng.choice(VALUES))
                for attr in ATTRS
            }
            made_cls = rng.choice(CLASSES)
            # Guard the make so quiescence is reachable for most seeds.
            rb.neg(made_cls, **make_attrs)
            rb.make(made_cls, **make_attrs)
        elif action == 1:
            target = rng.randint(1, n_pos)
            rb.modify(target, **{rng.choice(ATTRS): rng.choice(VALUES)})
        else:
            rb.remove(rng.randint(1, n_pos))
    return pb.build(analyze=False)


def _seed_facts(rng, engine):
    for _ in range(rng.randint(3, 8)):
        engine.make(
            rng.choice(CLASSES),
            k=rng.choice(VALUES),
            m=rng.choice(VALUES),
        )


def _run(program, rng_seed, audited=False):
    engine = ParulelEngine(program, EngineConfig(interference="merge"))
    if audited:
        CommuteAudit(engine)
    _seed_facts(random.Random(rng_seed), engine)
    try:
        result = engine.run(max_cycles=40)
    except CycleLimitExceeded as exc:
        # Non-terminating seeds are fine: a truncated run still detects
        # any divergence between the plain and audited engines.
        result = exc.partial
    return (
        result.cycles,
        result.firings,
        tuple(result.output),
        engine.wm.dump_records(),
    )


class TestCommutesVerdictsSurviveTheAudit:
    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_differential(self, seed):
        rng = random.Random(7000 + seed)
        program = _random_program(rng)
        # The static verdicts must at least compute without crashing.
        summary = commute_matrix(program, name=f"seed{seed}")
        assert len(summary.pairs) > 0

        # A clean audited run checks every COMMUTES claim dynamically:
        # a diverging certified pair would raise CommuteViolation.
        base = _run(program, rng_seed=seed)
        audited = _run(program, rng_seed=seed, audited=True)
        assert audited == base, (
            f"seed {seed}: audited run diverged "
            f"(verdicts: {summary.counts})"
        )

    def test_some_seeds_actually_commute(self):
        """Guard against the generator drifting into all-UNKNOWN land:
        a healthy fraction of seeds must produce COMMUTES pairs, or the
        differential above audits nothing."""
        commuting_seeds = 0
        for seed in range(N_PROGRAMS):
            rng = random.Random(7000 + seed)
            summary = commute_matrix(_random_program(rng))
            if summary.of_verdict(Verdict.COMMUTES):
                commuting_seeds += 1
        assert commuting_seeds >= 10, commuting_seeds
