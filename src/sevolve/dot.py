"""Graphviz DOT export for level graphs and full hierarchies."""

from __future__ import annotations

# distinguishable fill colors, cycled when there are more labels
_PALETTE = ("lightblue", "lightsalmon", "palegreen", "gold",
            "plum", "lightgray", "tan", "cyan")


def graph_to_dot(g, node_labels=None, name="G") -> str:
    """One undirected graph. `node_labels` (optional ints per node) select
    fill colors and show up in the node captions."""
    out = [f"graph {name} {{", "  node [shape=circle fontsize=10];"]
    for i in range(g.num_nodes):
        if node_labels is not None:
            lab = int(node_labels[i])
            color = _PALETTE[lab % len(_PALETTE)]
            out.append(f'  n{i} [label="{i}/{lab}" style=filled fillcolor={color}];')
        else:
            out.append(f"  n{i};")
    for a, b in g.edges.tolist():
        out.append(f"  n{a} -- n{b};")
    out.append("}")
    return "\n".join(out) + "\n"


def trace_to_dot(trace, name="hierarchy") -> str:
    """A full hierarchy: one cluster per level with its own edges, plus a
    dashed arrow from every node to its ancestor clique one level up."""
    out = [f"digraph {name} {{", "  node [shape=circle fontsize=10];"]
    for t, g in enumerate(trace.levels):
        out.append(f"  subgraph cluster_level{t} {{")
        out.append(f'    label="level {t} ({g.num_nodes} nodes)";')
        for i in range(g.num_nodes):
            out.append(f"    L{t}_{i};")
        for a, b in g.edges.tolist():
            out.append(f"    L{t}_{a} -> L{t}_{b} [dir=none];")
        out.append("  }")
    for t, part in enumerate(trace.partitions):
        for i in range(part.num_nodes):
            out.append(f"  L{t}_{i} -> L{t + 1}_{int(part.assignment[i])} "
                       f"[style=dashed constraint=false];")
    out.append("}")
    return "\n".join(out) + "\n"
