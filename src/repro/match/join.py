"""A generic, seedable join enumerator over condition elements.

This is the semantic core shared by :class:`~repro.match.naive.NaiveMatcher`
(full enumeration) and :class:`~repro.match.treat.TreatMatcher` (delta-seeded
enumeration): walk the condition elements, extending a set of partial
environments, checking negated CEs by absence.

Two seeding mechanisms make it reusable:

``fixed``
    pin condition element *i* to a batch of WMEs — TREAT's "one of the
    cycle's new WMEs must participate here" seed, taken as a set;
``seed_env``
    pre-bind variables — used when a WME matching a *negated* CE is
    retracted and we must discover the instantiations it was blocking.

``alpha_source`` is where candidate WMEs come from: anything with a
``memory(ce)`` method returning an alpha memory (``probe`` /
``probe_exists`` / ``__iter__`` / ``__len__`` — see
:mod:`repro.match.alphaindex`). Equality join tests whose variables are
already bound become bucket probes instead of memory scans, and the CE
visit order follows the rule's :class:`~repro.match.compile.JoinPlan`.
``indexed=False`` is the nested-loop reference the differential tests and
the Figure 3 / Ablation A7 tables compare against: the same memories,
scanned in rule order.

Determinism: indexed memories preserve timestamp (insertion) order in every
bucket, and planned enumerations are sorted back into the order the
identity left-to-right enumeration yields (ascending lexicographic per-CE
timestamp tuples) — so conflict-set insertion order, and therefore firing
order and final WM, are identical with indexing on or off. Differential
tests enforce this.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import Value
from repro.match.alphaindex import AlphaCache, IndexedMemory
from repro.match.compile import (
    CompiledCE,
    CompiledRule,
    JoinPlan,
    alpha_test_passes,
    value_predicate,
)
from repro.match.instantiation import Instantiation
from repro.match.stats import MatchStats
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["enumerate_matches", "project_matches", "join_tests_pass"]

Env = Dict[str, Value]


def join_tests_pass(ce: CompiledCE, wme: WME, env: Env) -> bool:
    """Evaluate a CE's environment-dependent tests for one candidate."""
    for attr, op, var in ce.join_tests:
        if not value_predicate(op, wme.get(attr), env[var]):
            return False
    return True


def _residual_pass(
    ce: CompiledCE,
    wme: WME,
    env: Env,
    residual: Tuple[Tuple[str, str, str], ...],
) -> bool:
    """Tests left after a hash probe: non-probed join tests + local conds."""
    for attr, op, var in residual:
        if not value_predicate(op, wme.get(attr), env[var]):
            return False
    if ce.local_conds and not alpha_test_passes(ce.local_conds, wme):
        return False
    return True


def _extend_env(ce: CompiledCE, wme: WME, env: Env) -> Optional[Env]:
    """Apply the CE's bindings; respects pre-seeded values as constraints.

    Returns the (possibly shared) environment, or ``None`` when a seeded
    binding disagrees with the WME.
    """
    if not ce.bindings:
        return env
    new_env: Optional[Env] = None
    for attr, var in ce.bindings:
        value = wme.get(attr)
        if var in env:
            if env[var] != value:
                return None
            continue
        if new_env is None:
            new_env = dict(env)
        new_env[var] = value
    return new_env if new_env is not None else env


def _ts(wme: Optional[WME]) -> int:
    return (wme.timestamp or 0) if wme is not None else 0


def _visit_order(
    compiled: CompiledRule, indexed: bool, pinned: Optional[int] = None
) -> Tuple[Optional[JoinPlan], Tuple[CompiledCE, ...]]:
    """The join plan (``None``: rule order) and the CEs in visit order."""
    plan = None
    if indexed:
        if pinned is not None:
            plan = compiled.seeded_plan(pinned)
        if plan is None:
            plan = compiled.plan
    return plan, plan.ces if plan is not None else compiled.ces


def _probe_shape(
    ce: CompiledCE, env0: Env, indexed: bool
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[Tuple[str, str, str], ...]]:
    """``(probe attrs, probe vars, residual join tests)`` for one visit
    position. All partials there share one bound-variable set, so the shape
    is computed once, from the first (``env0``). No probe attrs — nothing
    bound to probe on, or ``indexed=False`` — means the memory is scanned
    and every join test is residual."""
    if not indexed:
        return (), (), ce.join_tests
    probe_pairs = tuple(
        (attr, var) for attr, op, var in ce.join_tests if op == "=" and var in env0
    )
    if not ce.negated:
        # Pre-seeded bindings act as equality constraints too.
        probe_pairs += tuple(
            (attr, var) for attr, var in ce.bindings if var in env0
        )
    if not probe_pairs:
        return (), (), ce.join_tests
    probed = set(probe_pairs)
    residual = tuple(
        t for t in ce.join_tests
        if not (t[1] == "=" and (t[0], t[2]) in probed)
    )
    return (
        tuple(attr for attr, _var in probe_pairs),
        tuple(var for _attr, var in probe_pairs),
        residual,
    )


def enumerate_matches(
    compiled: CompiledRule,
    wm: WorkingMemory,
    stats: Optional[MatchStats] = None,
    fixed: Optional[Tuple[int, Sequence[WME]]] = None,
    seed_env: Optional[Env] = None,
    alpha_source=None,
    indexed: bool = True,
) -> Iterator[Instantiation]:
    """Yield every instantiation of ``compiled`` consistent with the seeds.

    ``fixed=(i, wmes)`` pins 0-based CE index ``i`` (which must be positive)
    to the given WMEs (in timestamp order, like every alpha memory): only
    instantiations using one of them there are yielded. Each is still
    alpha- and join-tested, so passing a WME that does not actually match
    yields nothing rather than nonsense. The batch stands in for that CE's
    alpha memory, so when the plan reaches it after other CEs it is probed
    on its bound equalities, not joined partial by WME.

    The generator must be exhausted: counters are bumped per visit
    position, ``instantiations`` before the first yield.

    With ``indexed`` (the default) enumeration follows the rule's join plan
    and probes hash buckets; ``indexed=False`` scans the same memories in
    rule order (the nested-loop reference). ``alpha_source=None`` reads
    ``wm`` through a transient :class:`~repro.match.alphaindex.AlphaCache`.
    """
    rule_name = compiled.name
    src = alpha_source if alpha_source is not None else AlphaCache(wm, stats)
    plan, ces = _visit_order(
        compiled, indexed, fixed[0] if fixed is not None else None
    )

    # Each partial: (env, wmes) where wmes has one entry per CE visited so
    # far (in visit order; restored to rule order at the end under a plan).
    partials: List[Tuple[Env, Tuple[Optional[WME], ...]]] = [
        (dict(seed_env) if seed_env else {}, ())
    ]

    for ce in ces:
        if not partials:
            return
        if fixed is not None and fixed[0] == ce.index:
            # The pinned CE's memory is the batch itself, alpha-filtered: a
            # transient memory in batch (= timestamp) order, dropped with
            # the enumeration. Reached after other CEs (a predicate needs a
            # variable they bind) it is probed on its bound equalities like
            # any other memory, not joined as |partials| x |batch|.
            mem = IndexedMemory()
            mem.bulk_add(
                [
                    pinned
                    for pinned in fixed[1]
                    if pinned.class_name == ce.class_name
                    and alpha_test_passes(ce.alpha_conds, pinned)
                    and (
                        not ce.local_conds
                        or alpha_test_passes(ce.local_conds, pinned)
                    )
                ]
            )
        else:
            mem = src.memory(ce)
        probe_attrs, probe_vars, residual = _probe_shape(
            ce, partials[0][0], indexed
        )

        # Counted per visit position and bumped once each, not per
        # candidate: bucket lookups, the candidates they returned, and
        # candidates visited (``join_probes``, or ``join_checks`` at a
        # negated CE).
        hash_probes = bucket_hits = visits = 0
        next_partials: List[Tuple[Env, Tuple[Optional[WME], ...]]] = []
        if ce.negated:
            if probe_attrs:
                # With no residual tests left, "does any WME block this
                # partial" is exactly bucket non-emptiness — answerable
                # without materializing the bucket (for the column-native
                # memories, without decoding a single row). Only taken when
                # no stats are collected: the per-WME counter stream must
                # stay byte-identical for the benchmark gates.
                if stats is None and not residual and not ce.local_conds:
                    for env, wmes in partials:
                        if not mem.probe_exists(
                            probe_attrs, tuple(env[v] for v in probe_vars)
                        ):
                            next_partials.append((env, wmes + (None,)))
                    partials = next_partials
                    continue
                hash_probes = len(partials)
                for env, wmes in partials:
                    bucket = mem.probe(
                        probe_attrs, tuple(env[v] for v in probe_vars)
                    )
                    bucket_hits += len(bucket)
                    for wme in bucket:
                        visits += 1
                        if _residual_pass(ce, wme, env, residual):
                            break
                    else:
                        next_partials.append((env, wmes + (None,)))
            else:
                candidates = tuple(mem)
                for env, wmes in partials:
                    for wme in candidates:
                        visits += 1
                        if _residual_pass(ce, wme, env, residual):
                            break
                    else:
                        next_partials.append((env, wmes + (None,)))
        elif probe_attrs:
            hash_probes = len(partials)
            for env, wmes in partials:
                bucket = mem.probe(
                    probe_attrs, tuple(env[v] for v in probe_vars)
                )
                bucket_hits += len(bucket)
                for wme in bucket:
                    if not _residual_pass(ce, wme, env, residual):
                        continue
                    new_env = _extend_env(ce, wme, env)
                    if new_env is None:
                        continue
                    next_partials.append((new_env, wmes + (wme,)))
            visits = bucket_hits
        else:
            scan = tuple(mem)
            visits = len(partials) * len(scan)
            for env, wmes in partials:
                for wme in scan:
                    if not _residual_pass(ce, wme, env, residual):
                        continue
                    new_env = _extend_env(ce, wme, env)
                    if new_env is None:
                        continue
                    next_partials.append((new_env, wmes + (wme,)))
        if stats is not None:
            # Zeros are skipped: a counter never incremented stays absent.
            for counter, n in (
                ("hash_probes", hash_probes),
                ("bucket_hits", bucket_hits),
                ("join_checks" if ce.negated else "join_probes", visits),
                ("tokens", 0 if ce.negated else len(next_partials)),
            ):
                if n:
                    stats.bump(counter, rule_name, n)
        partials = next_partials

    if stats is not None and partials:
        stats.bump("instantiations", rule_name, len(partials))
    if plan is None:
        for env, wmes in partials:
            yield Instantiation(compiled.rule, wmes, env)
        return

    # Restore original CE positions, then sort into the order the identity
    # enumeration yields: ascending lexicographic per-CE timestamp tuples.
    n = len(compiled.ces)
    restored: List[Tuple[Env, Tuple[Optional[WME], ...]]] = []
    for env, wmes in partials:
        slots: List[Optional[WME]] = [None] * n
        for pos, orig_idx in enumerate(plan.order):
            slots[orig_idx] = wmes[pos]
        restored.append((env, tuple(slots)))
    restored.sort(key=lambda item: tuple(_ts(w) for w in item[1]))
    for env, wmes in restored:
        yield Instantiation(compiled.rule, wmes, env)


def project_matches(
    compiled: CompiledRule,
    wm: WorkingMemory,
    project: int,
    stats: Optional[MatchStats] = None,
    alpha_source=None,
    indexed: bool = True,
    witnessed: Optional[Set[int]] = None,
) -> List[WME]:
    """Existence (semi-join) mode: the WMEs of positive CE ``project``
    (0-based) that take part in at least one complete match, in timestamp
    order — ``{inst.wmes[project] for inst in enumerate_matches(...)}``
    without the instantiations.

    Same visit order, probe shapes and memories as :func:`enumerate_matches`,
    but a partial carries only its environment and its *root* (the
    projected CE's WME, once visited), and the last visit position builds
    nothing: a surviving candidate makes its root a witness. A candidate of
    the projected CE that is already a witness is skipped before any test
    runs, and at the last position a partial whose root is one is dropped
    before its probe. Counters as the enumerator's, per visit position,
    with witnesses under ``instantiations``; skipped candidates are not
    visits.

    ``witnessed`` holds the timestamps of WMEs the caller already knows to
    be witnesses (of another rule over the same memories, say): they are
    neither tested nor returned, and the ones found here are added to it.
    """
    if compiled.ces[project].negated:
        raise ValueError(f"rule {compiled.name!r}: CE {project + 1} is negated")
    rule_name = compiled.name
    src = alpha_source if alpha_source is not None else AlphaCache(wm, stats)
    _plan, ces = _visit_order(compiled, indexed)
    last = len(ces) - 1
    if witnessed is None:
        witnessed = set()
    out: List[WME] = []
    # Nothing is pre-bound here, so a CE's bindings are always new and
    # ``_extend_env`` cannot refuse a candidate.
    partials: List[Tuple[Env, Optional[WME]]] = [({}, None)]

    for pos, ce in enumerate(ces):
        if not partials:
            break
        mem = src.memory(ce)
        probe_attrs, probe_vars, residual = _probe_shape(
            ce, partials[0][0], indexed
        )
        scan = () if probe_attrs else tuple(mem)
        final = pos == last
        projecting = ce.index == project
        hash_probes = bucket_hits = visits = 0
        found = len(out)
        next_partials: List[Tuple[Env, Optional[WME]]] = []
        for env, root in partials:
            if final and not projecting and root.timestamp in witnessed:
                continue
            if probe_attrs:
                bucket = mem.probe(
                    probe_attrs, tuple(env[v] for v in probe_vars)
                )
                hash_probes += 1
                bucket_hits += len(bucket)
            else:
                bucket = scan
            if ce.negated:
                for wme in bucket:
                    visits += 1
                    if _residual_pass(ce, wme, env, residual):
                        break
                else:
                    if final:
                        witnessed.add(root.timestamp)
                        out.append(root)
                    else:
                        next_partials.append((env, root))
            elif projecting:
                for wme in bucket:
                    if wme.timestamp in witnessed:
                        continue
                    visits += 1
                    if not _residual_pass(ce, wme, env, residual):
                        continue
                    if final:
                        witnessed.add(wme.timestamp)
                        out.append(wme)
                    else:
                        next_partials.append((_extend_env(ce, wme, env), wme))
            elif final:
                for wme in bucket:
                    visits += 1
                    if _residual_pass(ce, wme, env, residual):
                        witnessed.add(root.timestamp)
                        out.append(root)
                        break
            else:
                for wme in bucket:
                    visits += 1
                    if _residual_pass(ce, wme, env, residual):
                        next_partials.append((_extend_env(ce, wme, env), root))
        if stats is not None:
            for counter, n in (
                ("hash_probes", hash_probes),
                ("bucket_hits", bucket_hits),
                ("join_checks" if ce.negated else "join_probes", visits),
                ("tokens", 0 if ce.negated else len(next_partials)),
                ("instantiations", len(out) - found),
            ):
                if n:
                    stats.bump(counter, rule_name, n)
        partials = next_partials

    out.sort(key=_ts)
    return out
