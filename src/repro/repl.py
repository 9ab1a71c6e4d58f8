"""Interactive PARULEL session: assert facts, step cycles, inspect state.

Invoked as ``parulel repl PROGRAM``. The prompt accepts:

``(class ^attr value ...)``
    assert a WME;
``:run [n]``
    run to quiescence (or at most ``n`` cycles), printing a per-cycle line;
``:step``
    one cycle;
``:cs``
    show the current (unrefracted) conflict set;
``:wm [class]``
    list working memory (optionally one class);
``:retract <timestamp>``
    retract the WME with that timestamp;
``:explain (class ^attr value ...)``
    derivation tree of a matching live WME (provenance is always on in the
    REPL);
``:lint``
    the loaded program's interference candidates (``parulel analyze``'s
    PA001 findings), each with its meta-rule skeleton;
``:help`` / ``:quit``

Designed to be drivable programmatically (tests feed ``input_lines``), so
the interactive loop is a thin shell over :class:`ReplSession`.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, List, Optional

from repro.core import EngineConfig, ParulelEngine
from repro.errors import ReproError
from repro.lang.analysis import analyze_program
from repro.lang.ast import Program
from repro.wm.io import parse_facts_text

__all__ = ["ReplSession", "run_repl"]

HELP = """commands:
  (class ^attr value ...)   assert a WME
  :run [n]                  run to quiescence (or at most n cycles)
  :step                     run one cycle
  :cs                       show the current conflict set
  :wm [class]               list working memory
  :retract <timestamp>      retract a WME by its @timestamp
  :explain (class ^a v ...) derivation tree of a matching live WME
  :lint                     interference candidates (PA001) + skeletons
  :help                     this text
  :quit                     leave"""


class ReplSession:
    """One interactive engine session; every command returns output text."""

    def __init__(self, program: Program, matcher: str = "treat") -> None:
        analyze_program(program)
        self.program = program
        self.engine = ParulelEngine(
            program,
            EngineConfig(matcher=matcher, track_provenance=True),
        )

    # -- command dispatch -----------------------------------------------------

    def execute(self, line: str) -> Optional[str]:
        """Run one input line; returns output text, or None on :quit."""
        line = line.strip()
        if not line or line.startswith(";"):
            return ""
        try:
            if line.startswith("("):
                return self._assert_facts(line)
            if line.startswith(":"):
                return self._command(line)
            return f"unrecognized input (try :help): {line!r}"
        except ReproError as exc:
            return f"error: {exc}"

    def _assert_facts(self, line: str) -> str:
        facts = parse_facts_text(line)
        out = []
        for cls, attrs in facts:
            wme = self.engine.make(cls, attrs)
            out.append(f"asserted {wme!r}")
        return "\n".join(out)

    def _command(self, line: str) -> Optional[str]:
        parts = line.split(None, 1)
        cmd, arg = parts[0], (parts[1] if len(parts) > 1 else "")
        if cmd in (":quit", ":q", ":exit"):
            return None
        if cmd == ":help":
            return HELP
        if cmd == ":run":
            limit = int(arg) if arg.strip() else None
            return self._run(limit)
        if cmd == ":step":
            report = self.engine.step()
            if report is None:
                return "quiescent"
            return self._describe_cycle(report)
        if cmd == ":cs":
            insts = self.engine.conflict_set()
            if not insts:
                return "conflict set empty"
            return "\n".join(f"  {i!r}  {i.env}" for i in insts)
        if cmd == ":wm":
            cls = arg.strip()
            wmes = (
                self.engine.wm.by_class(cls)
                if cls
                else self.engine.wm.snapshot()
            )
            if not wmes:
                return "(empty)"
            return "\n".join(f"  {w!r}" for w in wmes)
        if cmd == ":retract":
            ts = int(arg.strip())
            for wme in self.engine.wm.snapshot():
                if wme.timestamp == ts:
                    self.engine.wm.remove(wme)
                    return f"retracted {wme!r}"
            return f"no WME with timestamp {ts}"
        if cmd == ":explain":
            facts = parse_facts_text(arg)
            if len(facts) != 1:
                return "usage: :explain (class ^attr value ...)"
            cls, attrs = facts[0]
            matches = self.engine.wm.find(cls, attrs)
            if not matches:
                return "no live WME matches"
            return "\n\n".join(self.engine.explain(w) for w in matches)
        if cmd == ":lint":
            from repro.analysis import analyze, render_text

            found = [
                d for d in analyze(self.program).diagnostics if d.code == "PA001"
            ]
            return render_text(found) if found else "clean: no interference candidates"
        return f"unknown command {cmd!r} (try :help)"

    # -- helpers ---------------------------------------------------------------

    def _describe_cycle(self, report) -> str:
        parts = [
            f"cycle {report.cycle}: fired {report.fired}",
        ]
        if report.redaction.redacted:
            parts.append(f"redacted {report.redaction.redacted}")
        parts.append(f"Δwm -{report.delta_removes}/+{report.delta_makes}")
        line = ", ".join(parts)
        for text in report.writes:
            line += f"\n  | {text}"
        if report.halted:
            line += "\n  (halt)"
        return line

    def _run(self, limit: Optional[int]) -> str:
        lines: List[str] = []
        cycles = 0
        while limit is None or cycles < limit:
            report = self.engine.step()
            if report is None:
                lines.append("quiescent")
                break
            cycles += 1
            lines.append(self._describe_cycle(report))
            if report.halted:
                break
            if report.fired == 0:
                lines.append("(redaction quiescence)")
                break
        else:
            lines.append(f"(stopped after {limit} cycles)")
        return "\n".join(lines)


def run_repl(
    program: Program,
    input_lines: Optional[Iterable[str]] = None,
    write: Callable[[str], None] = lambda s: print(s),
    matcher: str = "treat",
) -> int:
    """Drive a :class:`ReplSession` from an iterable of lines (stdin when
    None). Returns a process exit code."""
    session = ReplSession(program, matcher=matcher)
    write("PARULEL repl — :help for commands")

    def lines():
        if input_lines is not None:
            yield from input_lines
            return
        while True:
            try:
                yield input("parulel> ")
            except EOFError:
                return

    for line in lines():
        out = session.execute(line)
        if out is None:
            break
        if out:
            write(out)
    return 0
