"""Rule-to-site assignment and copy-and-constrain.

**Assignment** maps each rule name to a site in ``0..P-1``. Two policies:

- :func:`round_robin_assignment` — the trivial baseline;
- :func:`lpt_assignment` — Longest-Processing-Time-first bin packing on
  per-rule weights, usually from :func:`profile_rule_weights` (a 1-site
  calibration run that measures each rule's actual match work on a sample
  workload). Ablation A1 compares the two.

**Copy-and-constrain** (Stolfo's data-parallel transformation) replicates
one rule k ways, adding to a chosen condition element a membership
constraint on a partition of the attribute's value domain::

    extend:  (path ^src <a> ^dst <b>) (edge ...) -->  ...
    ⇒ extend@cc0 with (path ^src << n0 n3 n6 >> ^src <a> ...)
      extend@cc1 with (path ^src << n1 n4 n7 >> ^src <a> ...)
      ...

Because the partitions are disjoint and cover the domain, the union of the
copies' instantiations is exactly the original rule's, but the match work
for that rule spreads over the sites carrying the copies (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import warnings

from repro.core.engine import ParulelEngine
from repro.errors import MatchError, PartitionConstraintError
from repro.lab.rete import create_lab_matcher
from repro.lang.ast import (
    ConditionElement,
    ConjunctiveTest,
    DisjunctionTest,
    MetaRule,
    Program,
    Rule,
    Test,
    Value,
)
from repro.match.stats import COUNTER_NAMES
from repro.wm.memory import WorkingMemory
from repro.wm.template import TemplateRegistry

__all__ = [
    "Assignment",
    "ASSIGNMENT_POLICIES",
    "resolve_assignment",
    "round_robin_assignment",
    "lpt_assignment",
    "profile_rule_weights",
    "rehost_assignment",
    "hash_partitions",
    "copy_and_constrain",
    "copy_and_constrain_program",
]


@dataclass(frozen=True)
class Assignment:
    """Immutable rule-name → site mapping for ``n_sites`` sites."""

    n_sites: int
    site_of: Mapping[str, int]

    def rules_of_site(self, site: int, rules: Sequence[Rule]) -> List[Rule]:
        return [r for r in rules if self.site_of[r.name] == site]

    def validate(self, rules: Sequence[Rule]) -> None:
        for rule in rules:
            site = self.site_of.get(rule.name)
            if site is None:
                raise ValueError(f"rule {rule.name!r} has no site assignment")
            if not (0 <= site < self.n_sites):
                raise ValueError(
                    f"rule {rule.name!r} assigned to site {site}, "
                    f"but there are only {self.n_sites} sites"
                )


#: Assignment policy names :func:`resolve_assignment` accepts.
ASSIGNMENT_POLICIES = ("round-robin", "analysis")


def resolve_assignment(
    spec: "Optional[Assignment | str]", rules: Sequence[Rule], n_sites: int
) -> Assignment:
    """Turn an assignment *spec* into a concrete :class:`Assignment`.

    ``None``/"round-robin" → :func:`round_robin_assignment`; "analysis" →
    the static analyzer's connectivity-minimizing partition
    (:func:`repro.lab.advisor.analysis_assignment`); an
    :class:`Assignment` passes through untouched. This is the one place
    the simulators translate policy names, so they cannot disagree.
    """
    if isinstance(spec, Assignment):
        return spec
    if spec is None or spec == "round-robin":
        return round_robin_assignment(rules, n_sites)
    if spec == "analysis":
        # Local import: the advisor builds on this module's Assignment.
        from repro.lab.advisor import analysis_assignment

        return analysis_assignment(rules, n_sites)
    raise ValueError(
        f"unknown assignment policy {spec!r} "
        f"(expected one of {', '.join(ASSIGNMENT_POLICIES)})"
    )


def round_robin_assignment(rules: Sequence[Rule], n_sites: int) -> Assignment:
    """Rule *i* goes to site ``i mod P``."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    return Assignment(
        n_sites=n_sites,
        site_of={r.name: i % n_sites for i, r in enumerate(rules)},
    )


def lpt_assignment(
    rules: Sequence[Rule], n_sites: int, weights: Mapping[str, float]
) -> Assignment:
    """Longest-Processing-Time-first: heaviest rule to the lightest site.

    A missing weight counts as 1.0 (every rule costs *something* — at
    minimum its alpha tests).
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    loads = [0.0] * n_sites
    site_of: Dict[str, int] = {}
    ordered = sorted(
        rules, key=lambda r: (-weights.get(r.name, 1.0), r.name)
    )
    for rule in ordered:
        site = min(range(n_sites), key=lambda s: (loads[s], s))
        site_of[rule.name] = site
        loads[site] += max(weights.get(rule.name, 1.0), 1.0)
    return Assignment(n_sites=n_sites, site_of=site_of)


def rehost_assignment(
    base: Assignment, dead_sites: Sequence[int], rules: Sequence[Rule]
) -> Assignment:
    """Hosting map after site failures: the base assignment with every dead
    site's rules dealt round-robin across the surviving sites.

    Deterministic (survivors in ascending site order, orphaned rules in
    program order) so every master computes the identical re-hosting, and
    *stable*: rules on surviving sites never move. Site 0 — the master —
    must survive; recovery from a dead master is out of scope.
    """
    dead = set(dead_sites)
    if 0 in dead:
        raise ValueError("site 0 (the master) cannot be re-hosted away")
    survivors = [s for s in range(base.n_sites) if s not in dead]
    site_of: Dict[str, int] = {}
    orphan = 0
    for rule in rules:
        home = base.site_of[rule.name]
        if home in dead:
            site_of[rule.name] = survivors[orphan % len(survivors)]
            orphan += 1
        else:
            site_of[rule.name] = home
    return Assignment(n_sites=base.n_sites, site_of=site_of)


def profile_rule_weights(
    program: Program,
    setup: Callable,
    matcher: str = "rete",
    max_cycles: int = 10_000,
) -> Dict[str, float]:
    """Calibration run: execute the program once on one site and return each
    rule's total match-operation count as its weight.

    ``setup(engine)`` asserts the sample workload's initial WMEs.
    """
    wm = WorkingMemory(TemplateRegistry.from_program(program))
    engine = ParulelEngine(
        program, wm=wm, matcher=create_lab_matcher(matcher, program.rules, wm)
    )
    setup(engine)
    engine.run(max_cycles=max_cycles)
    stats = engine.matcher.stats
    return {
        rule.name: float(max(stats.rule_total(rule.name, COUNTER_NAMES), 1))
        for rule in program.rules
    }


# ---------------------------------------------------------------------------
# Copy-and-constrain
# ---------------------------------------------------------------------------


def hash_partitions(domain: Sequence[Value], k: int) -> List[Tuple[Value, ...]]:
    """Split a value domain into k balanced, disjoint, covering classes.

    Values are dealt round-robin in domain order — deterministic, and
    balanced to within one element.
    """
    if k < 1:
        raise ValueError("need at least one partition")
    parts: List[List[Value]] = [[] for _ in range(k)]
    for i, value in enumerate(domain):
        parts[i % k].append(value)
    return [tuple(p) for p in parts]


def _constrain_test(existing: Optional[Test], alternatives: Tuple[Value, ...]) -> Test:
    """Conjoin a membership constraint onto whatever test the attribute has."""
    membership = DisjunctionTest(alternatives=alternatives)
    if existing is None:
        return membership
    if isinstance(existing, ConjunctiveTest):
        return ConjunctiveTest(tests=existing.tests + (membership,))
    return ConjunctiveTest(tests=(existing, membership))


def copy_and_constrain(
    rule: Rule,
    ce_index: int,
    attr: str,
    partitions: Sequence[Sequence[Value]],
) -> List[Rule]:
    """Produce one constrained copy of ``rule`` per partition.

    ``ce_index`` is 1-based (as in ``modify``); the CE must be positive.
    Copies are named ``<rule>@cc<i>``. The partitions must be disjoint and
    cover the attribute's runtime domain for the transformation to preserve
    semantics; disjointness is checked here, coverage by the caller.

    Each copy's constrained CE is also checked for satisfiability: a
    membership partition that conjoins with an existing test on the same
    attribute into a contradiction (e.g. partitioning ``^src`` on a CE that
    already tests ``^src a`` with a partition not containing ``a``) would
    silently drop instantiations, so it raises
    :class:`~repro.errors.PartitionConstraintError` naming the rule and
    attribute instead. Empty partitions (k exceeding the domain size) stay
    legal — an empty membership test is inert, not contradictory.

    Finally the commute detector is consulted on the produced copies: a
    pair of copies proven RACES (their match sets overlap and the firings
    interfere) earns a ``UserWarning`` — the split is still returned, since
    meta-rules may arbitrate the overlap at runtime.
    """
    if not (1 <= ce_index <= len(rule.conditions)):
        raise MatchError(
            f"copy_and_constrain: CE index {ce_index} out of range for "
            f"rule {rule.name!r}"
        )
    ce = rule.conditions[ce_index - 1]
    if ce.negated:
        raise MatchError(
            "copy_and_constrain: cannot constrain a negated condition element"
        )
    seen: set = set()
    for part in partitions:
        for v in part:
            if v in seen:
                raise MatchError(
                    f"copy_and_constrain: value {v!r} appears in two partitions"
                )
            seen.add(v)

    copies: List[Rule] = []
    for i, part in enumerate(partitions):
        tests = dict(ce.tests)
        new_test = _constrain_test(tests.get(attr), tuple(part))
        new_pairs: List[Tuple[str, Test]] = []
        replaced = False
        for a, t in ce.tests:
            if a == attr:
                new_pairs.append((a, new_test))
                replaced = True
            else:
                new_pairs.append((a, t))
        if not replaced:
            new_pairs.append((attr, new_test))
        new_ce = ConditionElement(
            class_name=ce.class_name, tests=tuple(new_pairs), negated=False
        )
        if part:
            _check_partition_satisfiable(rule, new_ce, attr)
        conditions = (
            rule.conditions[: ce_index - 1] + (new_ce,) + rule.conditions[ce_index:]
        )
        cls = MetaRule if isinstance(rule, MetaRule) else Rule
        copies.append(
            cls(
                name=f"{rule.name}@cc{i}",
                conditions=conditions,
                actions=rule.actions,
                salience=rule.salience,
            )
        )
    _warn_on_racing_copies(rule, copies)
    return copies


def _check_partition_satisfiable(rule: Rule, new_ce: ConditionElement, attr: str) -> None:
    """Reject a constrained CE whose conjoined tests are unsatisfiable."""
    # Local imports: repro.analysis builds on this module's Assignment.
    from repro.analysis.footprint import ce_constraints, constraints_satisfiable
    from repro.match.compile import compile_rule

    probe = Rule(name=rule.name, conditions=(new_ce,), actions=())
    compiled = compile_rule(probe, plan=False)
    for a, conds in ce_constraints(compiled.ces[0]).items():
        if len(conds) >= 2 and not constraints_satisfiable(conds):
            raise PartitionConstraintError(
                f"copy_and_constrain: partitioning {rule.name!r} on "
                f"^{attr} makes attribute ^{a} unsatisfiable — the "
                f"membership partition contradicts an existing test on "
                f"that attribute, so the copy could never match",
                rule=rule.name,
                attribute=a,
            )


def _warn_on_racing_copies(rule: Rule, copies: Sequence[Rule]) -> None:
    """Best-effort commute check over the produced copies (object rules
    only — meta-rule copies are arbitrated sequentially anyway)."""
    if isinstance(rule, MetaRule) or len(copies) < 2:
        return
    try:
        from repro.analysis.commute import Verdict, classify_rule_pair

        for i, a in enumerate(copies):
            for b in copies[i + 1 :]:
                verdict = classify_rule_pair(a, b)
                if verdict.verdict == Verdict.RACES:
                    warnings.warn(
                        f"copy_and_constrain: copies {a.name!r} and "
                        f"{b.name!r} race ({verdict.reason}) — the "
                        f"partitions overlap or the rule interferes with "
                        f"itself; results may depend on arbitration",
                        UserWarning,
                        stacklevel=3,
                    )
                    return
    except Exception:  # pragma: no cover - advisory only, never fatal
        return


def copy_and_constrain_program(
    program: Program,
    rule_name: str,
    ce_index: int,
    attr: str,
    partitions: Sequence[Sequence[Value]],
) -> Program:
    """A new program with ``rule_name`` replaced by its constrained copies."""
    target = program.rule(rule_name)
    copies = copy_and_constrain(target, ce_index, attr, partitions)
    rules = []
    for r in program.rules:
        if r.name == rule_name:
            rules.extend(copies)
        else:
            rules.append(r)
    return Program(
        literalizes=program.literalizes,
        rules=tuple(rules),
        meta_rules=program.meta_rules,
    )
