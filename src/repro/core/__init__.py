"""PARULEL's execution core: the set-oriented recognize-act cycle.

The cycle implemented by :class:`~repro.core.engine.ParulelEngine` is the
paper's central contribution:

1. **Match** — an incremental engine (:mod:`repro.match`) keeps the conflict
   set current;
2. **Redact** — the conflict set is reified as ``instantiation`` WMEs and the
   program's *meta-rules* run to fixpoint, deleting instantiations that must
   not fire (:mod:`repro.core.redaction`) — programmable conflict
   resolution in place of OPS5's hard-wired LEX/MEA;
3. **Fire in parallel** — every surviving instantiation evaluates its RHS
   against the *pre-firing snapshot*; the combined delta is checked for
   interference and applied atomically (:mod:`repro.core.delta`).

Repeat until the firing set is empty, ``(halt)``, or the cycle limit.
"""

from repro._lazy import lazy_exports

#: Resolved on first use (PEP 562): provenance tracking loads when a run
#: asks for it.
__getattr__ = lazy_exports(
    __name__,
    {
        "ActionEvaluator": "repro.core.actions",
        "FiringDelta": "repro.core.actions",
        "CycleDelta": "repro.core.delta",
        "InterferencePolicy": "repro.core.delta",
        "merge_deltas": "repro.core.delta",
        "CycleReport": "repro.core.engine",
        "EngineConfig": "repro.core.engine",
        "ParulelEngine": "repro.core.engine",
        "RunResult": "repro.core.engine",
        "Derivation": "repro.core.provenance",
        "ProvenanceTracker": "repro.core.provenance",
        "MetaLevel": "repro.core.redaction",
        "reify_instantiation": "repro.core.redaction",
    },
)

__all__ = [
    "ActionEvaluator",
    "CycleDelta",
    "CycleReport",
    "Derivation",
    "EngineConfig",
    "ProvenanceTracker",
    "FiringDelta",
    "InterferencePolicy",
    "MetaLevel",
    "ParulelEngine",
    "RunResult",
    "merge_deltas",
    "reify_instantiation",
]
