"""Interference candidates (PA001) and redaction coverage (PA002).

The commute analysis (:func:`repro.analysis.commute.write_conflicts`)
lists the rule pairs whose firings may write one WME. Those on a pair it
does not prove COMMUTES are the program's *interference candidates*:
PA001, each with a paste-ready meta-rule skeleton as its hint
(:func:`meta_rule_skeleton`). PARULEL's contract is that the programmer's
meta-rules redact such pairs before they fire. The coverage check closes
the loop statically: it reifies each candidate's two conflicting
instantiations the same way :func:`repro.core.redaction.reify_instantiation`
would at runtime — ``rule`` / ``salience`` / ``specificity`` are known
constants, ``id`` / ``recency`` / the rule's variables are unknown
values, every other attribute reads back as ``nil`` — and asks whether
any meta-rule could *redact a member of the pair*.

A meta-rule can redact candidate member *m* when the condition element
that binds its redacted ``^id`` variable may match *m*'s reified image
(:func:`~repro.analysis.footprint.may_overlap`, so unknowns are
satisfiable and only constant contradictions disprove). A candidate none
of the meta-rules can touch is **uncovered** — PA002, with the same
skeleton attached as the fix hint.

Deliberately conservative in both directions the analysis can afford:

- ``remove/remove`` candidates are skipped — the delta merge treats a
  double remove as idempotent, so there is nothing to arbitrate;
- programs with *no* meta-rules are skipped — PA001 already says
  "candidates exist and no meta level is present"; coverage answers the
  sharper question "does the meta level you wrote actually reach every
  candidate";
- a redact whose target cannot be traced to one condition element (a
  computed id, a rebound variable) counts as able to reach anything.

The same image machinery powers PA006: a meta-rule whose ``instantiation``
CE names an unknown rule, or constrains attributes the named rule's
reifications can never carry, can never fire at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.analysis import INSTANTIATION_CLASS
from repro.lang.ast import MetaRule, Program, RedactAction, Rule, VariableExpr
from repro.match.compile import CompiledCE, compile_rule
from repro.analysis.commute import InterferenceCandidate
from repro.analysis.diagnostics import Diagnostic, diag
from repro.analysis.footprint import WriteImage, ce_constraints, may_overlap

__all__ = [
    "CoverageSummary", "interference_diagnostics", "meta_rule_skeleton",
    "check_redaction_coverage", "check_meta_rules", "victim_image",
]


@dataclass(frozen=True)
class CoverageSummary:
    """Counts the text report and SARIF properties quote."""

    candidates: int
    checked: int
    covered: int
    uncovered: int
    skipped_remove_remove: int
    meta_rules: int

    @property
    def applicable(self) -> bool:
        """False when the program has no meta level to check."""
        return self.meta_rules > 0

    def as_properties(self) -> Dict[str, object]:
        return {
            "candidates": self.candidates,
            "checked": self.checked,
            "covered": self.covered,
            "uncovered": self.uncovered,
            "skippedRemoveRemove": self.skipped_remove_remove,
            "metaRules": self.meta_rules,
        }


def victim_image(rule: Rule) -> WriteImage:
    """The statically-known shape of any reified instantiation of ``rule``.

    A closed image: attributes beyond the builtins and the rule's bound
    variables are provably absent (``nil``) on every reification.
    """
    constraints: Dict[str, tuple] = {
        "rule": (("eq", rule.name),),
        "salience": (("eq", rule.salience),),
        "specificity": (("eq", rule.specificity),),
        "id": (("unknown",),),
        "recency": (("unknown",),),
    }
    for var in compile_rule(rule).variables:
        constraints[var] = (("unknown",),)
    return WriteImage(
        rule=rule.name,
        kind="make",
        class_name=INSTANTIATION_CLASS,
        constraints=tuple(sorted(constraints.items())),
        closed=True,
    )


def _victim_ces(meta: MetaRule) -> Optional[List[CompiledCE]]:
    """The CEs whose matched instantiation this meta-rule can redact.

    ``None`` means "cannot be traced — assume it reaches everything"
    (a computed redact id, or an id rebound on the RHS).
    """
    redact_vars: List[str] = []
    for action in meta.actions:
        if isinstance(action, RedactAction):
            if not isinstance(action.expr, VariableExpr):
                return None
            redact_vars.append(action.expr.name)
    if not redact_vars:
        return []
    compiled = compile_rule(meta)
    out: List[CompiledCE] = []
    for var in redact_vars:
        found = None
        for ce in compiled.ces:
            if ce.negated or ce.class_name != INSTANTIATION_CLASS:
                continue
            if ("id", var) in ce.bindings:
                found = ce
                break
        if found is None:
            return None  # id comes from somewhere we cannot see statically
        out.append(found)
    return out


def _binding_vars(rule: Rule, ce_index: int) -> List[str]:
    ce = compile_rule(rule).ces[ce_index - 1]
    vars_ = [var for _attr, var in ce.bindings]
    vars_.extend(var for _attr, _op, var in ce.join_tests)
    return sorted(set(vars_))


def _skeleton_name(candidate: InterferenceCandidate) -> str:
    if candidate.rule_a == candidate.rule_b:
        return f"arbitrate-{candidate.rule_a}"
    return f"arbitrate-{candidate.rule_a}-{candidate.rule_b}"


def meta_rule_skeleton(
    program: Program, candidate: InterferenceCandidate, name: Optional[str] = None
) -> str:
    """Draft the ``mp`` skeleton arbitrating one interference candidate.

    The skeleton compiles and runs (it arbitrates by instantiation id),
    but the leading comments tell the programmer which bindings identify
    the contended WME so the rule can be narrowed from "serialize these
    rules" to "serialize only true collisions".
    """
    vars_a = _binding_vars(program.rule(candidate.rule_a), candidate.ce_a)
    note = (
        f"; NOTE: narrow by equating the bindings that identify the "
        f"contended {candidate.class_name!r} WME (rule {candidate.rule_a!r} CE "
        f"{candidate.ce_a} binds: "
        f"{', '.join('<' + v + '>' for v in vars_a) or 'none'})"
    )
    return (
        f"; {candidate.describe()}\n"
        f"{note}\n"
        f"(mp {name or _skeleton_name(candidate)}\n"
        f"    (instantiation ^rule {candidate.rule_a} ^id <i>)\n"
        f"    (instantiation ^rule {candidate.rule_b} ^id {{<j> > <i>}})\n"
        f"    -->\n"
        f"    (redact <j>))"
    )


def interference_diagnostics(
    program: Program, candidates: Sequence[InterferenceCandidate]
) -> List[Diagnostic]:
    """PA001, one per candidate. Each hint is a skeleton whose ``mp``
    name is unique among them, so all of them can be pasted at once."""
    used: Dict[str, int] = {}
    out: List[Diagnostic] = []
    for cand in candidates:
        name = _skeleton_name(cand)
        n = used.get(name, 0)
        used[name] = n + 1
        if n:
            name = f"{name}-{n + 1}"  # rule names must be unique
        out.append(
            diag(
                "PA001",
                cand.describe(),
                rule=cand.rule_a,
                ce=cand.ce_a,
                # The skeleton's first line repeats describe(); the
                # message already carries it.
                hint=meta_rule_skeleton(program, cand, name).split("\n", 1)[1],
            )
        )
    return out


def check_redaction_coverage(
    program: Program, candidates: Sequence[InterferenceCandidate]
) -> Tuple[List[Diagnostic], CoverageSummary]:
    """PA002 diagnostics + the coverage summary for ``program``'s
    interference ``candidates`` (its PA001 set)."""
    n_meta = len(program.meta_rules)
    skipped = sum(1 for c in candidates if c.kind == "remove/remove")
    checked = [c for c in candidates if c.kind != "remove/remove"] if n_meta else []
    diagnostics: List[Diagnostic] = []
    if checked:
        # Victim CEs of every meta-rule, computed once. A None entry is a
        # wildcard: that meta-rule counts as covering every candidate.
        wildcard = False
        victim_ces: List[CompiledCE] = []
        for meta in program.meta_rules:
            ces = _victim_ces(meta)
            if ces is None:
                wildcard = True
                break
            victim_ces.extend(ces)
        images = {r.name: victim_image(r) for r in program.rules}
        for cand in checked:
            if wildcard or any(
                may_overlap(images[member], ce_constraints(ce), INSTANTIATION_CLASS)
                for member in (cand.rule_a, cand.rule_b)
                for ce in victim_ces
            ):
                continue
            diagnostics.append(
                diag(
                    "PA002",
                    f"no meta-rule can redact either side of: {cand.describe()}",
                    rule=cand.rule_a,
                    ce=cand.ce_a,
                    hint=meta_rule_skeleton(program, cand),
                )
            )
    return diagnostics, CoverageSummary(
        candidates=len(candidates),
        checked=len(checked),
        covered=len(checked) - len(diagnostics),
        uncovered=len(diagnostics),
        skipped_remove_remove=skipped,
        meta_rules=n_meta,
    )


def check_meta_rules(program: Program) -> List[Diagnostic]:
    """PA006: meta-rules whose ``instantiation`` patterns can never match.

    Two proofs of inapplicability, per positive ``instantiation`` CE that
    pins ``^rule`` to a constant:

    - the constant names no object rule in the program;
    - the CE's constant tests contradict every reification the named rule
      can produce (an attribute the rule never binds tested against a
      non-``nil`` constant, a wrong ``^salience`` / ``^specificity``, ...).
    """
    diagnostics: List[Diagnostic] = []
    rule_names = {r.name for r in program.rules}
    images = {r.name: victim_image(r) for r in program.rules}
    for meta in program.meta_rules:
        compiled = compile_rule(meta)
        for ce in compiled.ces:
            if ce.negated or ce.class_name != INSTANTIATION_CLASS:
                continue
            conds = ce_constraints(ce)
            rule_conds = conds.get("rule", ())
            pinned = [c[1] for c in rule_conds if c[0] == "eq"]
            if not pinned:
                continue
            target = pinned[0]
            if target not in rule_names:
                diagnostics.append(
                    diag(
                        "PA006",
                        f"meta-rule {meta.name!r} matches instantiations of "
                        f"{target!r}, but no such rule exists",
                        rule=meta.name,
                        ce=ce.index + 1,
                    )
                )
                continue
            if not may_overlap(images[target], conds, INSTANTIATION_CLASS):
                tested = ", ".join(sorted(conds))
                diagnostics.append(
                    diag(
                        "PA006",
                        f"meta-rule {meta.name!r} can never match an "
                        f"instantiation of {target!r}: its tests on "
                        f"{tested} contradict every reification that rule "
                        f"produces",
                        rule=meta.name,
                        ce=ce.index + 1,
                    )
                )
    return diagnostics
