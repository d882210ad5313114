"""networkx interop: the analysis-ecosystem boundary.

All internal computation stays on numpy edge arrays; these adapters
exist so users can hand generated graphs to the networkx ecosystem (or
bring networkx graphs in as empirical structure sources).  networkx is
an optional dependency (``pip install repro[networkx]``), imported by
the adapter that needs it, so ``import repro`` never loads it.
"""

from __future__ import annotations

import numpy as np

from ..tables import EdgeTable

__all__ = ["to_networkx", "from_networkx", "property_graph_to_networkx"]


def to_networkx(table):
    """Convert an :class:`EdgeTable` to a networkx (Di)Graph."""
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError("to_networkx needs networkx") from exc
    graph = nx.DiGraph() if table.directed else nx.Graph()
    if table.is_bipartite:
        graph.add_nodes_from(
            (f"t{i}" for i in range(table.num_tail_nodes))
        )
        graph.add_nodes_from(
            (f"h{i}" for i in range(table.num_head_nodes))
        )
        graph.add_edges_from(
            (f"t{int(t)}", f"h{int(h)}")
            for t, h in zip(table.tails, table.heads)
        )
        return graph
    graph.add_nodes_from(range(table.num_nodes))
    graph.add_edges_from(
        (int(t), int(h)) for t, h in zip(table.tails, table.heads)
    )
    return graph


def from_networkx(graph, name="imported"):
    """Convert a networkx graph to an :class:`EdgeTable`.

    Node labels are relabelled to dense ints in sorted order.
    """
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    tails = np.fromiter(
        (index[u] for u, _v in graph.edges()),
        dtype=np.int64,
        count=graph.number_of_edges(),
    )
    heads = np.fromiter(
        (index[v] for _u, v in graph.edges()),
        dtype=np.int64,
        count=graph.number_of_edges(),
    )
    return EdgeTable(
        name,
        tails,
        heads,
        num_tail_nodes=len(nodes),
        num_head_nodes=len(nodes),
        directed=graph.is_directed(),
    )


def property_graph_to_networkx(result, edge_name):
    """Convert one edge type of a generated graph, attaching node and
    edge properties as networkx attributes."""
    edge = result.schema.edge_type(edge_name)
    table = result.edges(edge_name)
    graph = to_networkx(table)
    if not table.is_bipartite:
        for prop in result.schema.node_type(edge.tail_type).properties:
            values = result.node_property(edge.tail_type, prop.name).values
            for node in graph.nodes():
                if node < len(values):
                    graph.nodes[node][prop.name] = values[node]
    for prop in edge.properties:
        values = result.edge_property(edge_name, prop.name).values
        for edge_id, (t, h) in enumerate(
            zip(table.tails, table.heads)
        ):
            u = f"t{int(t)}" if table.is_bipartite else int(t)
            v = f"h{int(h)}" if table.is_bipartite else int(h)
            if graph.has_edge(u, v):
                graph.edges[u, v][prop.name] = values[edge_id]
    return graph
