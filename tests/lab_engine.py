"""A PARULEL engine on any matcher a figure names, the RETE comparands
included.

``EngineConfig`` builds only the matchers a run can choose. A RETE
comparand is built by :func:`repro.lab.rete.create_lab_matcher` over a
dict working memory and handed to the engine prebuilt (``wm=`` and
``matcher=``); any other name goes through the config as a run's would.
"""

from __future__ import annotations

from typing import Optional

from repro.core import EngineConfig, ParulelEngine
from repro.lab.rete import create_lab_matcher
from repro.lang.ast import Program
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

__all__ = ["lab_engine"]


def lab_engine(
    program: Program, matcher: str, config: Optional[EngineConfig] = None, **kwargs
) -> ParulelEngine:
    """``ParulelEngine(program, config, **kwargs)`` matching with ``matcher``."""
    config = config or EngineConfig()
    if matcher not in ("rete", "rete-shared"):
        fields = {name: getattr(config, name) for name in EngineConfig._fields}
        fields["matcher"] = matcher
        return ParulelEngine(program, EngineConfig(**fields), **kwargs)
    wm = WorkingMemory(TemplateRegistry.from_program(program))
    return ParulelEngine(
        program,
        config,
        wm=wm,
        matcher=create_lab_matcher(matcher, program.rules, wm),
        **kwargs,
    )
