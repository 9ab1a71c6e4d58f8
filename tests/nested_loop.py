"""The nested-loop reference kernel, built directly.

``create_matcher`` and ``EngineConfig`` build only the hash-indexed join
kernel. ``indexed=False`` on a serial matcher (and on
:class:`~repro.core.redaction.MetaLevel`) scans memories instead of probing
them: the reference the differential tests compare against.
"""

from __future__ import annotations

from typing import Optional

from repro.core import EngineConfig, ParulelEngine
from repro.core.redaction import MetaLevel
from repro.lab.rete import ReteMatcher, SharedReteMatcher
from repro.lang.ast import Program
from repro.match.naive import NaiveMatcher
from repro.match.treat import TreatMatcher
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

__all__ = ["SERIAL_MATCHERS", "nested_loop_engine"]

#: The serial matchers by ``create_matcher`` name. RETE, always
#: hash-joined, accepts and ignores ``indexed``.
SERIAL_MATCHERS = {
    "treat": TreatMatcher,
    "naive": NaiveMatcher,
    "rete": ReteMatcher,
    "rete-shared": SharedReteMatcher,
}


def nested_loop_engine(
    program: Program, config: Optional[EngineConfig] = None
) -> ParulelEngine:
    """A :class:`ParulelEngine` whose object matcher (``config.matcher``)
    and meta level both run the nested-loop kernel. The kernel is built
    here, so the engine gets the config with the default matcher."""
    config = config or EngineConfig()
    wm = WorkingMemory(TemplateRegistry.from_program(program))
    matcher = SERIAL_MATCHERS[config.matcher](program.rules, wm, indexed=False)
    fields = {name: getattr(config, name) for name in EngineConfig._fields}
    fields["matcher"] = EngineConfig().matcher
    engine = ParulelEngine(program, EngineConfig(**fields), wm=wm, matcher=matcher)
    engine.meta = MetaLevel(
        program.meta_rules,
        wm,
        engine.evaluator,
        max_meta_cycles=config.max_meta_cycles,
        indexed=False,
    )
    return engine
