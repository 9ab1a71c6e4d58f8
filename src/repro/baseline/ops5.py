"""The sequential OPS5 engine.

Classic recognize-act: match, pick **one** instantiation via the strategy,
fire it immediately (its effects are visible to the very next match), and
repeat. Refraction prevents the same instantiation from firing twice; the
winner leaves the matcher's conflict set as it fires
(:meth:`~repro.match.interface.Matcher.consume`).

Shares everything except the cycle discipline with
:class:`~repro.core.engine.ParulelEngine`: same parser/analysis, same match
engines, same action evaluator. Meta-rules in the program are ignored — the
strategy *is* OPS5's conflict resolution. Table 2 compares the two engines'
cycles-to-completion on identical programs and initial memories.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Set, Union

from repro.errors import CycleLimitExceeded
from repro.core.actions import ActionEvaluator, HostFunction
from repro.lang.analysis import analyze_program
from repro.lang.ast import Program, Value
from repro.match.instantiation import InstKey, Instantiation
from repro.match.interface import Matcher, create_matcher
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry
from repro.wm.wme import WME

__all__ = ["OPS5Engine", "OPS5Result"]


@dataclass
class OPS5Result:
    """Summary of one sequential run."""

    cycles: int
    firings: int  # == cycles except possibly the final halt cycle
    reason: str  # 'quiescence' | 'halt' | 'cycle-limit'
    output: List[str]
    fired_rules: List[str]  # rule name per cycle, in firing order
    wall_time: float

    @property
    def halted(self) -> bool:
        return self.reason == "halt"


class OPS5Engine:
    """Sequential one-instantiation-per-cycle production-system engine."""

    def __init__(
        self,
        program: Program,
        strategy: str = "lex",
        matcher: Union[str, Matcher] = "treat",
        host_functions: Optional[Mapping[str, HostFunction]] = None,
        wm: Optional[WorkingMemory] = None,
        max_cycles: int = 1_000_000,
    ) -> None:
        analyze_program(program)
        from repro.baseline.strategy import create_strategy  # local: no cycle

        self.program = program
        self.strategy = create_strategy(strategy)
        self.wm = wm if wm is not None else WorkingMemory(
            TemplateRegistry.from_program(program)
        )
        self.evaluator = ActionEvaluator(host_functions)
        #: A matcher name, or a prebuilt matcher over ``wm`` (how a figure
        #: runs a comparand :func:`create_matcher` does not build).
        self.matcher: Matcher = (
            matcher
            if isinstance(matcher, Matcher)
            else create_matcher(matcher, program.rules, self.wm)
        )
        self.max_cycles = max_cycles
        self.fired: Set[InstKey] = set()
        self.fired_rules: List[str] = []
        self.output: List[str] = []
        self.halted = False
        self._cycle = 0

    # -- working-memory convenience ------------------------------------------

    def make(self, class_name: str, attrs: Optional[Mapping[str, Value]] = None, **kw: Value) -> WME:
        return self.wm.make(class_name, attrs, **kw)

    def remove(self, wme: WME) -> None:
        self.wm.remove(wme)

    def register_function(self, name: str, fn: HostFunction) -> None:
        self.evaluator.register(name, fn)

    # -- the cycle ----------------------------------------------------------------

    def step(self) -> Optional[Instantiation]:
        """Fire the strategy's pick; return it, or ``None`` at quiescence."""
        if self.halted:
            return None
        fired = self.fired
        insts = self.matcher.instantiations()
        candidates = [i for i in insts if i.key not in fired]
        if len(candidates) < len(insts):
            # Fired entries a matcher re-discovered: they leave again.
            self.matcher.consume([i.key for i in insts if i.key in fired])
        winner = self.strategy.select(candidates)
        if winner is None:
            return None
        self._cycle += 1
        fired.add(winner.key)
        self.matcher.consume([winner.key])
        self.fired_rules.append(winner.rule.name)
        delta = self.evaluator.evaluate(winner)
        # Sequential semantics: apply immediately, effects visible next match.
        for wme, updates in delta.modifies:
            self.wm.remove(wme)
            self.wm.make(wme.class_name, {**wme.attributes, **updates})
        for wme in delta.removes:
            self.wm.discard(wme)  # a modify above may have displaced it
        for class_name, attrs in delta.makes:
            self.wm.make(class_name, attrs)
        self.output.extend(delta.writes)
        self.evaluator.run_calls(delta)
        if delta.halt:
            self.halted = True
        return winner

    def run(self, max_cycles: Optional[int] = None) -> OPS5Result:
        """Run to quiescence or halt."""
        limit = max_cycles if max_cycles is not None else self.max_cycles
        start = self._cycle
        wall0 = time.perf_counter()
        reason = "quiescence"
        while True:
            if self._cycle - start >= limit:
                raise CycleLimitExceeded(
                    f"exceeded {limit} cycles; the rule program likely does "
                    f"not terminate under sequential firing"
                )
            winner = self.step()
            if winner is None:
                reason = "halt" if self.halted else "quiescence"
                break
        wall = time.perf_counter() - wall0
        cycles = self._cycle - start
        return OPS5Result(
            cycles=cycles,
            firings=cycles,
            reason=reason,
            output=list(self.output),
            fired_rules=list(self.fired_rules),
            wall_time=wall,
        )

    @property
    def cycle(self) -> int:
        return self._cycle
