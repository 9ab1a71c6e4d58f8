"""Whole-program static analysis for PARULEL rule programs.

Where :mod:`repro.lang.analysis` answers "is this program well-formed?",
this package answers "is this program *correct and schedulable* under
set-oriented parallel firing?" — the questions the paper's porting
workflow and the distributed backends need decided before a run:

- :mod:`repro.analysis.depgraph` — the rule dependency graph
  (enables / inhibits / conflicts edges over read/write footprints),
  SCCs, and stratification;
- :mod:`repro.analysis.coverage` — the interference candidates (PA001)
  and whether the redaction meta-rules reach every one of them (PA002);
- :mod:`repro.analysis.deadcode` — rules that can never fire,
  condition elements that can never match;
- :mod:`repro.analysis.commute` — the critical-pair race detector:
  COMMUTES / RACES (with concrete witness WMs) / UNKNOWN verdicts per
  rule pair, feeding PA007–PA009 diagnostics, ``races`` edges in the
  dependency graph, and the tests' audit of fired pairs; its write/write
  channels are the ``conflicts`` edges and, on pairs not proven to
  commute, PA001;
- :mod:`repro.analysis.diagnostics` — the shared ``PAxxx`` diagnostic
  vocabulary with text and SARIF-shaped JSON renderers.

:func:`analyze` runs every check and returns an :class:`AnalysisReport`;
``parulel analyze`` is its CLI face and ``scripts/check.sh`` gates on
its error-severity findings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.lang.ast import Program

from repro.analysis.commute import (
    CommuteSummary,
    InterferenceCandidate,
    PairVerdict,
    Verdict,
    classify_rule_pair,
    commute_matrix,
    write_conflicts,
)
from repro.analysis.coverage import (
    CoverageSummary,
    check_meta_rules,
    check_redaction_coverage,
    interference_diagnostics,
)
from repro.analysis.deadcode import check_dead_rules, check_unsatisfiable_ces
from repro.analysis.depgraph import DepEdge, DependencyGraph, build_dependency_graph
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    diag,
    render_sarif,
    render_text,
    worst_severity,
)

__all__ = [
    "AnalysisReport",
    "analyze",
    "CommuteSummary",
    "InterferenceCandidate",
    "PairVerdict",
    "Verdict",
    "classify_rule_pair",
    "commute_matrix",
    "write_conflicts",
    "build_dependency_graph",
    "DependencyGraph",
    "DepEdge",
    "CoverageSummary",
    "Diagnostic",
    "Severity",
    "CODES",
    "diag",
    "render_text",
    "render_sarif",
    "worst_severity",
]


@dataclass
class AnalysisReport:
    """Everything one :func:`analyze` run found."""

    name: str
    graph: DependencyGraph
    coverage: CoverageSummary
    #: Critical-pair verdicts for every unordered object-rule pair.
    commute: CommuteSummary
    #: The interference candidates (PA001): write conflicts on pairs the
    #: commute analysis does not prove COMMUTES.
    interference: List[InterferenceCandidate] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Whether the dead-rule check ran (it needs seed classes).
    dead_rules_checked: bool = False

    @property
    def worst(self) -> Optional[Severity]:
        return worst_severity(self.diagnostics)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def properties(self) -> Dict[str, object]:
        """The summary bag the SARIF run carries."""
        props: Dict[str, object] = {"program": self.name}
        props["graph"] = self.graph.stats()
        props["coverage"] = self.coverage.as_properties()
        props["deadRulesChecked"] = self.dead_rules_checked
        props["diagnostics"] = len(self.diagnostics)
        props["commute"] = self.commute.as_properties()
        return props

    def render_text(self, show_hints: bool = True) -> str:
        """The human report ``parulel analyze`` prints for one program."""
        g = self.graph.stats()
        lines = [
            f"== {self.name}",
            f"dependency graph: {g['rules']} rule(s), {g['edges']} edge(s) "
            f"({g['enables']} enables, {g['inhibits']} inhibits, "
            f"{g['conflicts']} conflicts)",
            f"cycles: {g['cyclicSccs']} cyclic SCC(s) "
            f"(largest {g['largestScc']} rule(s))",
        ]
        strata = self.graph.strata()
        rendered = "; ".join(
            f"{i}: {', '.join(layer)}" for i, layer in enumerate(strata)
        )
        lines.append(
            f"stratification: {len(strata)} stratum/strata"
            + (f" [{rendered}]" if rendered else "")
            + ("" if g["stratified"] else " — NOT stratified")
        )
        cov = self.coverage
        if cov.applicable:
            lines.append(
                f"redaction coverage: {cov.covered}/{cov.checked} candidate(s) "
                f"covered by {cov.meta_rules} meta-rule(s)"
                + (
                    f", {cov.skipped_remove_remove} benign remove/remove "
                    f"pair(s) skipped"
                    if cov.skipped_remove_remove
                    else ""
                )
            )
        elif cov.candidates:
            lines.append(
                f"redaction coverage: n/a — {cov.candidates} candidate(s) "
                f"but no meta level (see PA001)"
            )
        else:
            lines.append("redaction coverage: n/a — no interference candidates")
        lines.append(
            "dead rules: "
            + ("checked against seed classes" if self.dead_rules_checked else "not checked (no facts given)")
        )
        c = self.commute.counts
        lines.append(
            f"commutativity: {len(self.commute.pairs)} rule pair(s) — "
            f"{c['commutes']} commute, {c['races']} race, "
            f"{c['unknown']} unknown"
        )
        if self.diagnostics:
            lines.append(f"{len(self.diagnostics)} finding(s):")
            lines.append(render_text(self.diagnostics, show_hints=show_hints))
        else:
            lines.append("no findings")
        return "\n".join(lines)


def analyze(
    program: Program,
    seed_classes: Optional[Iterable[str]] = None,
    name: str = "<program>",
) -> AnalysisReport:
    """Run every static check over ``program``.

    ``seed_classes`` — classes the initial facts load; enables the
    dead-rule check.
    """
    graph = build_dependency_graph(program)
    commute = commute_matrix(program, name=name)
    commuting = commute.commuting_names()
    interference = [
        c for c in write_conflicts(program) if c.names not in commuting
    ]
    diagnostics = interference_diagnostics(program, interference)
    cov_diags, coverage = check_redaction_coverage(program, interference)
    diagnostics.extend(cov_diags)
    diagnostics.extend(check_unsatisfiable_ces(program))
    diagnostics.extend(check_dead_rules(program, seed_classes))
    diagnostics.extend(check_meta_rules(program))
    for edge in graph.unstratified_inhibits():
        diagnostics.append(
            diag(
                "PA005",
                f"writes of {edge.src!r} can invalidate matches of "
                f"{edge.dst!r} on class {edge.class_name!r} inside a rule "
                f"cycle — firing order across cycles is significant",
                rule=edge.src,
            )
        )
    diagnostics.extend(_check_cc_splits(program))
    diagnostics.extend(commute.diagnostics())
    race_edges = tuple(
        DepEdge(
            src=min(p.rule_a, p.rule_b),
            dst=max(p.rule_a, p.rule_b),
            kind="races",
            class_name="*",
        )
        for p in commute.of_verdict(Verdict.RACES)
    )
    if race_edges:
        graph = dataclasses.replace(graph, edges=graph.edges + race_edges)
    return AnalysisReport(
        name=name,
        graph=graph,
        coverage=coverage,
        commute=commute,
        interference=interference,
        diagnostics=diagnostics,
        dead_rules_checked=seed_classes is not None,
    )


def _check_cc_splits(program: Program) -> List[Diagnostic]:
    """PA010: sibling copy-and-constrain copies whose membership partitions
    overlap — such a split double-fires the shared instantiations, so the
    transformation no longer preserves the original rule's semantics."""
    from collections import defaultdict

    from repro.analysis.footprint import ce_constraints
    from repro.match.compile import compile_rule

    groups: Dict[str, List] = defaultdict(list)
    for rule in program.rules:
        base, sep, _rest = rule.name.partition("@cc")
        if sep:
            groups[base].append(rule)

    out: List[Diagnostic] = []
    for base in sorted(groups):
        copies = groups[base]
        if len(copies) < 2:
            continue
        # Membership ('in') alternatives per (CE index, attribute) per copy.
        memberships: List[Dict] = []
        for rule in copies:
            sets: Dict = {}
            for ce in compile_rule(rule, plan=False).ces:
                for attr, conds in ce_constraints(ce).items():
                    for cond in conds:
                        if cond[0] == "in":
                            sets.setdefault((ce.index, attr), set()).update(
                                cond[1]
                            )
            memberships.append(sets)
        # The partition point is wherever the copies' sets differ; disjoint
        # sets there are what makes the split sound. Identical sets at a key
        # are inherited tests from the original rule, not the partition.
        keys = {k for sets in memberships for k in sets}
        for key in sorted(keys):
            per_copy = [sets.get(key) for sets in memberships]
            present = [(i, s) for i, s in enumerate(per_copy) if s is not None]
            if len({frozenset(s) for _i, s in present}) < 2:
                continue
            for idx_a in range(len(present)):
                for idx_b in range(idx_a + 1, len(present)):
                    i, sa = present[idx_a]
                    j, sb = present[idx_b]
                    shared = sa & sb
                    if shared:
                        ce_index, attr = key
                        out.append(
                            diag(
                                "PA010",
                                f"copies {copies[i].name!r} and "
                                f"{copies[j].name!r} overlap on ^{attr} "
                                f"(CE {ce_index + 1}): both accept "
                                f"{sorted(map(repr, shared))[0]} — the "
                                f"partition double-fires shared "
                                f"instantiations",
                                rule=copies[i].name,
                                ce=ce_index + 1,
                            )
                        )
    return out
