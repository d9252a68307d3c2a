"""A networkx view of a task graph, for tests that check its structure.

networkx is a test-only dependency: the runtime keeps its own adjacency
in :class:`repro.model.taskgraph.TaskGraph`.
"""

import networkx as nx

from repro.model.taskgraph import TaskGraph


def to_digraph(graph: TaskGraph) -> nx.DiGraph:
    """``graph``'s tasks and channels as a :class:`networkx.DiGraph`.

    Nodes are added in ``graph.task_names`` order, edges in
    ``graph.channels`` order.
    """
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.task_names)
    digraph.add_edges_from(channel.key for channel in graph.channels)
    return digraph
