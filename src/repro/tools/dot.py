"""Graphviz DOT export: TREAT join plans and derivation graphs.

Pure text generation — paste the output into any Graphviz renderer.
``plan_to_dot`` shows what the matcher a run builds will join (alpha
memories with their patterns and sizes, each rule's CEs in join-plan
order, production leaves); ``provenance_to_dot`` draws a WME's derivation
DAG as recorded by :class:`~repro.core.provenance.ProvenanceTracker`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.provenance import ProvenanceTracker
from repro.lang.ast import Rule
from repro.match.alphaindex import AlphaCache
from repro.match.compile import AlphaKey, compile_rules
from repro.wm.memory import WorkingMemory
from repro.wm.wme import WME

__all__ = ["plan_to_dot", "provenance_to_dot"]


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _alpha_label(key) -> str:
    class_name, conds = key
    parts = [class_name]
    for cond in conds:
        if cond[0] == "const":
            _k, attr, op, value = cond
            parts.append(f"^{attr} {op} {value!r}" if op != "=" else f"^{attr} {value!r}")
        elif cond[0] == "in":
            _k, attr, alts = cond
            parts.append(f"^{attr} in {list(alts)!r}")
        else:
            _k, attr, op, other = cond
            parts.append(f"^{attr} {op} ^{other}")
    return "\\n".join(_esc(p) for p in parts)


def plan_to_dot(rules: Sequence[Rule], wm: Optional[WorkingMemory] = None) -> str:
    """Render the TREAT join plan a run executes as a DOT digraph.

    One box per alpha memory (class and WME-local tests, plus ``[N wmes]``
    when ``wm`` is given: the memory primed from it); per rule, its CEs in
    :class:`~repro.match.compile.JoinPlan` visit order, each fed by its
    memory along an edge labelled with the equality-join attributes it is
    probed on, negated CEs dashed, and a production node at the end.
    """
    lines: List[str] = [
        "digraph treat {",
        "  rankdir=TB;",
        '  node [fontname="monospace", fontsize=10];',
    ]
    compiled = compile_rules(rules)
    alphas = AlphaCache(wm) if wm is not None else None
    alpha_ids: Dict[AlphaKey, str] = {}
    for cr in compiled:
        for ce in cr.ces:
            if ce.alpha_key in alpha_ids:
                continue
            nid = alpha_ids[ce.alpha_key] = f"alpha{len(alpha_ids)}"
            size = f"\\n[{len(alphas.memory(ce))} wmes]" if alphas is not None else ""
            lines.append(
                f'  {nid} [shape=box, style=filled, fillcolor=lightyellow, '
                f'label="{_alpha_label(ce.alpha_key)}{size}"];'
            )
    for r, cr in enumerate(compiled):
        rule = _esc(cr.name)
        ces = cr.plan.ces if cr.plan is not None else cr.ces
        prev = None
        for p, ce in enumerate(ces):
            nid = f"r{r}ce{p}"
            kind, dashed = ("NOT", ", style=dashed") if ce.negated else ("join", "")
            lines.append(
                f'  {nid} [shape=ellipse{dashed}, '
                f'label="{kind} ce{ce.index + 1} ({rule})"];'
            )
            keys = "\\n".join(
                _esc(f"^{attr} = <{var}>") for attr, var in ce.eq_join_tests
            )
            attrs = [f'label="{keys}"'] if keys else []
            if ce.negated:
                attrs.append("style=dashed")
            edge = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"  {alpha_ids[ce.alpha_key]} -> {nid}{edge};")
            if prev is not None:
                lines.append(f"  {prev} -> {nid};")
            prev = nid
        lines.append(
            f'  r{r}prod [shape=doubleoctagon, style=filled, '
            f'fillcolor=lightblue, label="{rule}"];'
        )
        if prev is not None:
            lines.append(f"  {prev} -> r{r}prod;")
    lines.append("}")
    return "\n".join(lines)


def provenance_to_dot(
    tracker: ProvenanceTracker, root: WME, max_depth: int = 12
) -> str:
    """Render the derivation DAG of ``root`` as a DOT digraph.

    WMEs are boxes (grey when retired); edges point from parents (support)
    to the derived element, labelled with the deriving rule.
    """
    lines: List[str] = [
        "digraph provenance {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace", fontsize=10];',
    ]
    ids: Dict[WME, str] = {}
    emitted_edges: Set[tuple] = set()

    def node_id(wme: WME) -> str:
        if wme not in ids:
            ids[wme] = f"w{len(ids)}"
            retired = tracker.is_retired(wme)
            fill = ", style=filled, fillcolor=lightgrey" if retired else ""
            lines.append(f'  {ids[wme]} [label="{_esc(repr(wme))}"{fill}];')
        return ids[wme]

    def walk(wme: WME, depth: int) -> None:
        nid = node_id(wme)
        if depth >= max_depth:
            return
        record = tracker.derivation(wme)
        if record is None:
            return
        supports = list(record.parents)
        if record.replaced is not None:
            supports.append(record.replaced)
        for parent in supports:
            pid = node_id(parent)
            label = record.rule or ""
            edge = (pid, nid, label)
            if edge not in emitted_edges:
                emitted_edges.add(edge)
                style = (
                    f' [label="{_esc(label)}"]' if label else ""
                )
                lines.append(f"  {pid} -> {nid}{style};")
            walk(parent, depth + 1)

    walk(root, 0)
    lines.append("}")
    return "\n".join(lines)
