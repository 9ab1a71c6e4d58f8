"""The one diagnostics currency of the static analyzer.

Every check in :mod:`repro.analysis` reports findings as
:class:`Diagnostic` values carrying a stable code (``PA001`` ...), a
severity, the rule/CE the finding anchors to, and an optional fix hint
(e.g. a meta-rule skeleton the programmer can paste in). Two renderers
consume them:

- :func:`render_text` — the human report ``parulel analyze`` and the
  REPL's ``:lint`` print;
- :func:`render_sarif` — a SARIF-shaped JSON document (``--json``) that CI
  gates can parse to show the exact regressing code.

The code table is :data:`CODES`; ``docs/ANALYSIS.md`` documents each code
with examples. Severities: ``error`` findings are definite program bugs
(the check.sh gate fails on them), ``warning`` findings are conservative
may-happen reports, ``info`` findings are structural observations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "CODES",
    "diag",
    "render_text",
    "render_sarif",
    "worst_severity",
]


class Severity(enum.Enum):
    """Finding severity, ordered: info < warning < error."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    @property
    def sarif_level(self) -> str:
        """SARIF ``level`` value for this severity."""
        return {"info": "note", "warning": "warning", "error": "error"}[self.value]


#: code -> (default severity, short description). The single source of truth
#: for the analyzer's vocabulary; renderers and docs derive from it.
CODES: Dict[str, Tuple[Severity, str]] = {
    "PA001": (
        Severity.WARNING,
        "parallel-firing interference candidate (two rules may write one WME "
        "and are not proven to commute)",
    ),
    "PA002": (
        Severity.WARNING,
        "interference candidate not covered by any redaction meta-rule",
    ),
    "PA003": (
        Severity.WARNING,
        "dead rule: a positive condition's class is never produced or loaded",
    ),
    "PA004": (
        Severity.ERROR,
        "unsatisfiable condition element: contradictory attribute tests",
    ),
    "PA005": (
        Severity.INFO,
        "non-stratified dependency: an inhibits edge closes a rule cycle",
    ),
    "PA006": (
        Severity.ERROR,
        "inapplicable meta-rule: its instantiation pattern can never match",
    ),
    "PA007": (
        Severity.WARNING,
        "commutativity race: the pair's working-memory updates collide "
        "(witness working memory attached)",
    ),
    "PA008": (
        Severity.WARNING,
        "enablement race: one rule's firing invalidates or disables the "
        "other's match (witness working memory attached)",
    ),
    "PA009": (
        Severity.INFO,
        "commutation unknown: the critical-pair analysis could neither "
        "certify nor refute this rule pair",
    ),
    "PA010": (
        Severity.ERROR,
        "unsound copy-and-constrain split: partition copies overlap or "
        "contradict existing tests",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: Severity
    message: str
    #: Rule (or meta-rule) name the finding anchors to, when there is one.
    rule: Optional[str] = None
    #: 1-based condition-element index within ``rule``, when there is one.
    ce: Optional[int] = None
    #: Actionable fix suggestion (may be multi-line, e.g. an ``mp`` skeleton).
    hint: Optional[str] = None

    @property
    def span(self) -> str:
        """Human-readable anchor, e.g. ``improve/CE 2`` or ``<program>``."""
        if self.rule is None:
            return "<program>"
        return f"{self.rule}/CE {self.ce}" if self.ce is not None else self.rule


def diag(
    code: str,
    message: str,
    rule: Optional[str] = None,
    ce: Optional[int] = None,
    hint: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from :data:`CODES`."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        severity=severity or CODES[code][0],
        message=message,
        rule=rule,
        ce=ce,
        hint=hint,
    )


def worst_severity(diagnostics: Sequence[Diagnostic]) -> Optional[Severity]:
    """The most severe severity present, or ``None`` when empty."""
    if not diagnostics:
        return None
    return max((d.severity for d in diagnostics), key=lambda s: s.rank)


def render_text(diagnostics: Sequence[Diagnostic], show_hints: bool = True) -> str:
    """The canonical one-line-per-finding report (hints indented below).

    Ordered most-severe-first, stable within a severity (findings keep the
    order the checks emitted them in).
    """
    ordered = sorted(
        enumerate(diagnostics), key=lambda p: (-p[1].severity.rank, p[0])
    )
    lines: List[str] = []
    for _i, d in ordered:
        lines.append(f"{d.code} {d.severity.value} [{d.span}] {d.message}")
        if show_hints and d.hint:
            lines.extend(f"    {h}" for h in d.hint.splitlines())
    return "\n".join(lines)


def render_sarif(
    runs: Sequence[Tuple[str, Sequence[Diagnostic], Optional[dict]]],
) -> dict:
    """SARIF-shaped document for one or more analysis runs.

    ``runs`` is a sequence of ``(artifact_name, diagnostics, properties)``
    — one entry per analyzed program (``properties`` carries the run's
    summary statistics: graph sizes, strata, coverage counts). The shape
    follows SARIF 2.1.0 closely enough for code/level/message extraction,
    which is all the CI gate needs.
    """
    rule_descriptors = [
        {
            "id": code,
            "shortDescription": {"text": desc},
            "defaultConfiguration": {"level": sev.sarif_level},
        }
        for code, (sev, desc) in sorted(CODES.items())
    ]
    sarif_runs = []
    for artifact, diagnostics, properties in runs:
        results = []
        for d in diagnostics:
            entry: dict = {
                "ruleId": d.code,
                "level": d.severity.sarif_level,
                "message": {"text": d.message},
                "locations": [
                    {
                        "logicalLocations": [
                            {
                                "name": d.rule or "<program>",
                                "kind": "rule",
                            }
                        ]
                    }
                ],
            }
            props: dict = {}
            if d.ce is not None:
                props["conditionElement"] = d.ce
            if d.hint:
                props["hint"] = d.hint
            if props:
                entry["properties"] = props
            results.append(entry)
        run: dict = {
            "tool": {
                "driver": {
                    "name": "parulel-analyze",
                    "informationUri": "docs/ANALYSIS.md",
                    "rules": rule_descriptors,
                }
            },
            "artifacts": [{"location": {"uri": artifact}}],
            "results": results,
        }
        if properties:
            run["properties"] = properties
        sarif_runs.append(run)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": sarif_runs,
    }
