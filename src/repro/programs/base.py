"""The common shape of a benchmark workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from repro.lang.ast import Program, Value
from repro.wm.memory import WorkingMemory

__all__ = ["BenchmarkWorkload", "WMELoader"]


class _Maker(Protocol):
    """Anything with a ``make`` — ParulelEngine, OPS5Engine, SimMachine,
    or a bare WorkingMemory."""

    def make(self, class_name: str, attrs=None, **kw): ...


#: Loads the initial working memory into any engine-like object.
WMELoader = Callable[[_Maker], None]


@dataclass
class BenchmarkWorkload:
    """A program plus its workload and ground truth.

    ``verify(wm)`` returns a dict of check-name → bool; all True means the
    run produced the correct answer (integration tests assert this for
    every engine × matcher combination).

    ``domains`` maps ``(class, attr)`` to the runtime value domain of that
    attribute — what :func:`repro.lab.partition.copy_and_constrain`
    needs to build covering partitions.

    ``cc_hint`` optionally names the canonical copy-and-constrain target as
    ``(rule_name, ce_index, attr)`` for this workload's hot rule.
    """

    name: str
    description: str
    program: Program
    setup: WMELoader
    verify: Callable[[WorkingMemory], Dict[str, bool]]
    params: Dict[str, Any] = field(default_factory=dict)
    domains: Dict[tuple, Sequence[Value]] = field(default_factory=dict)
    cc_hint: Optional[tuple] = None

    @property
    def n_rules(self) -> int:
        return len(self.program.rules)

    @property
    def n_meta_rules(self) -> int:
        return len(self.program.meta_rules)

    def verify_ok(self, wm: WorkingMemory) -> bool:
        """All verification checks pass."""
        return all(self.verify(wm).values())

    def failed_checks(self, wm: WorkingMemory) -> List[str]:
        return [name for name, ok in self.verify(wm).items() if not ok]
