"""Graphviz DOT export of a RETE network (Figure 3's comparand).

Shows the compiled network topology: alpha memories with their patterns
and live sizes, join/negative nodes per rule chain, production leaves.
``parulel dot`` draws the TREAT join plan a run executes instead
(:func:`repro.tools.dot.plan_to_dot`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.lab.rete import ReteMatcher
from repro.lab.rete.nodes import JoinBetaNode, NegativeNode, ProductionNode
from repro.tools.dot import _alpha_label, _esc

__all__ = ["rete_to_dot"]


def rete_to_dot(matcher: ReteMatcher, include_sizes: bool = True) -> str:
    """Render a RETE matcher's network as a DOT digraph."""
    lines: List[str] = [
        "digraph rete {",
        "  rankdir=TB;",
        '  node [fontname="monospace", fontsize=10];',
    ]
    node_ids: Dict[int, str] = {}

    # Alpha memories.
    for i, (key, mem) in enumerate(matcher._alpha.items()):
        nid = f"alpha{i}"
        size = f"\\n[{len(mem)} wmes]" if include_sizes else ""
        lines.append(
            f'  {nid} [shape=box, style=filled, fillcolor=lightyellow, '
            f'label="{_alpha_label(key)}{size}"];'
        )
        node_ids[id(mem)] = nid

    # Beta chains: walk every alpha memory's successors, then chain children.
    counter = 0
    seen: Set[int] = set()

    def visit(node) -> str:
        nonlocal counter
        if id(node) in node_ids:
            return node_ids[id(node)]
        counter += 1
        nid = f"beta{counter}"
        node_ids[id(node)] = nid
        if isinstance(node, ProductionNode):
            lines.append(
                f'  {nid} [shape=doubleoctagon, style=filled, '
                f'fillcolor=lightblue, label="{_esc(node.rule.name)}"];'
            )
        elif isinstance(node, NegativeNode):
            size = f"\\n[{len(node.tokens)} passing]" if include_sizes else ""
            lines.append(
                f'  {nid} [shape=ellipse, style=filled, fillcolor=mistyrose, '
                f'label="NOT ce{node.ce.index + 1} ({_esc(node.rule_name)}){size}"];'
            )
        else:
            size = f"\\n[{len(node.tokens)} tokens]" if include_sizes else ""
            lines.append(
                f'  {nid} [shape=ellipse, label="join ce{node.ce.index + 1} '
                f'({_esc(node.rule_name)}){size}"];'
            )
        return nid

    def walk(node, prev_id):
        if (id(node), prev_id) in seen:
            return
        seen.add((id(node), prev_id))
        nid = visit(node)
        if prev_id is not None:
            lines.append(f"  {prev_id} -> {nid};")
        if isinstance(node, (JoinBetaNode, NegativeNode)):
            edge = f"  {node_ids[id(node.alpha)]} -> {nid} [style=dashed];"
            if edge not in lines:
                lines.append(edge)
        for child in getattr(node, "children", ()):
            walk(child, nid)

    for mem in matcher._alpha.values():
        for node in mem.successors:
            walk(node, None)
    lines.append("}")
    return "\n".join(lines)
