"""Match engines: computing the conflict set incrementally.

The match phase dominates production-system runtime (the classic
McDermott/Forgy observation that motivated RETE, and the DADO/TREAT work in
PARULEL's lineage). This package provides the engines a run can choose,
behind one interface (RETE, Figure 3's comparand, is in
:mod:`repro.lab.rete`):

- :class:`~repro.match.naive.NaiveMatcher` — recomputes every rule's join
  from scratch on demand. Slow, obviously correct: the semantic reference
  the other matchers are differentially tested against.
- :class:`~repro.match.treat.TreatMatcher` — TREAT (Miranker), taken
  set-at-a-time: alpha memories plus a retained conflict set, join work
  seeded by each cycle's batch of WME deltas. No beta memories. The
  engine's default — nothing measured runs faster under RETE
  (EXPERIMENTS.md, "Matcher choice").

All engines consume the *compiled* rule form produced by
:mod:`repro.match.compile`, so they agree exactly on test semantics.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): a run loads the matcher it runs, not
#: all of them.
__getattr__ = lazy_exports(
    __name__,
    {
        "CompiledCE": "repro.match.compile",
        "CompiledRule": "repro.match.compile",
        "compile_rule": "repro.match.compile",
        "compile_rules": "repro.match.compile",
        "ConflictSet": "repro.match.instantiation",
        "Instantiation": "repro.match.instantiation",
        "Matcher": "repro.match.interface",
        "PoolConfig": "repro.match.interface",
        "create_matcher": "repro.match.interface",
        "NaiveMatcher": "repro.match.naive",
        "MatchStats": "repro.match.stats",
        "TreatMatcher": "repro.match.treat",
    },
)

__all__ = [
    "CompiledCE",
    "CompiledRule",
    "ConflictSet",
    "Instantiation",
    "MatchStats",
    "Matcher",
    "NaiveMatcher",
    "PoolConfig",
    "TreatMatcher",
    "compile_rule",
    "compile_rules",
    "create_matcher",
]
