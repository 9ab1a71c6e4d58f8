"""repro — a reproduction of "The PARULEL Parallel Rule Language"
(Stolfo et al., Proc. 1991 Intl. Conf. on Parallel Processing).

PARULEL is a parallel production-system language in the OPS5 lineage whose
cycle fires **all** surviving conflict-set instantiations at once, with
conflict resolution programmed as **meta-rules** that *redact* (delete)
instantiations, and whose match phase parallelizes across processors (rule
parallelism and copy-and-constrain data parallelism).

Quick start::

    from repro import ParulelEngine, parse_program

    src = '''
    (literalize count value)
    (p bump
        (count ^value {<v> < 5})
        -->
        (modify 1 ^value (compute <v> + 1)))
    '''
    engine = ParulelEngine(parse_program(src))
    engine.make("count", value=0)
    result = engine.run()
    assert engine.wm.find("count", value=5)

Package map:

- :mod:`repro.lang` — lexer, parser, AST, analysis, pretty-printer, builder
- :mod:`repro.wm` — working memory
- :mod:`repro.match` — TREAT / naive match engines and the process
  backend's settings
- :mod:`repro.core` — the PARULEL set-oriented engine and meta level
- :mod:`repro.baseline` — the sequential OPS5 engine (LEX/MEA)
- :mod:`repro.parallel` — the process pool behind ``--matcher process``
- :mod:`repro.lab` — the figures' comparands: RETE, the simulated
  multiprocessor and distributed machine, partitioners, copy-and-constrain
  by source rewrite, the thread pool
- :mod:`repro.resilience` — seeded fault plans and the structured
  fault/recovery event records, checkpoints, the shared-memory janitor
- :mod:`repro.obs` — tracing, metrics, the flight recorder, and the
  report tables of the experiment suite
- :mod:`repro.programs` — benchmark program generators
"""

from repro._lazy import lazy_exports

#: Every public name resolves on first use (PEP 562): ``import repro`` —
#: which ``import repro.cli`` implies — loads none of the subsystems.
__getattr__ = lazy_exports(
    __name__,
    {
        "OPS5Engine": "repro.baseline",
        "OPS5Result": "repro.baseline",
        "CycleReport": "repro.core",
        "EngineConfig": "repro.core",
        "InterferencePolicy": "repro.core",
        "ParulelEngine": "repro.core",
        "RunResult": "repro.core",
        "CycleLimitExceeded": "repro.errors",
        "ExecutionError": "repro.errors",
        "InterferenceError": "repro.errors",
        "LexError": "repro.errors",
        "MatchError": "repro.errors",
        "ParseError": "repro.errors",
        "ReproError": "repro.errors",
        "SemanticError": "repro.errors",
        "WorkingMemoryError": "repro.errors",
        "FaultEvent": "repro.resilience",
        "FaultPlan": "repro.resilience",
        "Program": "repro.lang",
        "ProgramBuilder": "repro.lang",
        "RuleBuilder": "repro.lang",
        "analyze_program": "repro.lang",
        "format_program": "repro.lang",
        "parse_program": "repro.lang",
        "Instantiation": "repro.match",
        "NaiveMatcher": "repro.match",
        "PoolConfig": "repro.match",
        "TreatMatcher": "repro.match",
        "create_matcher": "repro.match",
        "WME": "repro.wm",
        "WorkingMemory": "repro.wm",
    },
)

__version__ = "1.0.0"

__all__ = [
    "CycleLimitExceeded",
    "CycleReport",
    "EngineConfig",
    "ExecutionError",
    "FaultEvent",
    "FaultPlan",
    "Instantiation",
    "InterferenceError",
    "InterferencePolicy",
    "LexError",
    "MatchError",
    "NaiveMatcher",
    "OPS5Engine",
    "OPS5Result",
    "ParseError",
    "ParulelEngine",
    "PoolConfig",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "RuleBuilder",
    "RunResult",
    "SemanticError",
    "TreatMatcher",
    "WME",
    "WorkingMemory",
    "WorkingMemoryError",
    "analyze_program",
    "create_matcher",
    "format_program",
    "parse_program",
    "__version__",
]
