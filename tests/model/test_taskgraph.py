"""Unit tests for task graphs."""

import math
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hardening.transform import harden
from repro.model.task import Channel, Task
from repro.model.taskgraph import Criticality, TaskGraph
from repro.suites import benchmark_names, cruise_reference_plan, get_benchmark
from tests.nxgraph import to_digraph


def diamond_graph(**kwargs):
    """a -> {b, c} -> d."""
    defaults = dict(period=10.0, service_value=1.0)
    defaults.update(kwargs)
    return TaskGraph(
        "g",
        tasks=[
            Task("a", 1.0, 2.0),
            Task("b", 1.0, 3.0),
            Task("c", 2.0, 2.5),
            Task("d", 0.5, 1.0),
        ],
        channels=[
            Channel("a", "b", 1.0),
            Channel("a", "c", 1.0),
            Channel("b", "d", 1.0),
            Channel("c", "d", 1.0),
        ],
        **defaults,
    )


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("", [Task("a", 1, 2)], [], period=10, service_value=1.0)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=0, service_value=1.0)

    def test_empty_task_set_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [], [], period=10, service_value=1.0)

    def test_duplicate_task_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("a", 1, 2)],
                [],
                period=10,
                service_value=1.0,
            )

    def test_unknown_channel_endpoint_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2)],
                [Channel("a", "zz", 1.0)],
                period=10,
                service_value=1.0,
            )

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2)],
                [Channel("a", "b", 1.0), Channel("a", "b", 2.0)],
                period=10,
                service_value=1.0,
            )

    def test_cycle_rejected(self):
        with pytest.raises(ModelError, match=r"cycle through \['a', 'b'\]"):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2)],
                [Channel("a", "b", 1.0), Channel("b", "a", 1.0)],
                period=10,
                service_value=1.0,
            )

    def test_self_loop_rejected(self):
        # Channel itself refuses a self-loop; a graph handed one anyway
        # still finds it.
        with pytest.raises(ModelError, match="'a' -> 'a' is a self-loop"):
            Channel("a", "a", 1.0)
        loop = Channel("a", "b", 1.0)
        object.__setattr__(loop, "dst", "a")
        with pytest.raises(ModelError, match=r"cycle through \['a'\]"):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2)],
                [loop],
                period=10,
                service_value=1.0,
            )

    def test_deadline_defaults_to_period(self):
        graph = diamond_graph()
        assert graph.deadline == graph.period

    def test_explicit_deadline(self):
        graph = diamond_graph(deadline=7.5)
        assert graph.deadline == 7.5

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ModelError):
            diamond_graph(deadline=0.0)


class TestCriticality:
    def test_droppable_requires_service_value(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10)

    def test_droppable_rejects_infinite_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g", [Task("a", 1, 2)], [], period=10, service_value=math.inf
            )

    def test_droppable_rejects_negative_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g", [Task("a", 1, 2)], [], period=10, service_value=-1.0
            )

    def test_nondroppable_has_infinite_service(self):
        graph = TaskGraph(
            "g", [Task("a", 1, 2)], [], period=10, reliability_target=0.5
        )
        assert graph.service_value == math.inf
        assert not graph.droppable
        assert graph.criticality is Criticality.HIGH

    def test_nondroppable_rejects_finite_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2)],
                [],
                period=10,
                reliability_target=0.5,
                service_value=3.0,
            )

    def test_reliability_target_bounds(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10, reliability_target=0.0)
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10, reliability_target=1.5)

    def test_droppable_graph_is_low_criticality(self):
        assert diamond_graph().criticality is Criticality.LOW


class TestStructure:
    def test_len_contains_iter(self):
        graph = diamond_graph()
        assert len(graph) == 4
        assert "a" in graph and "zz" not in graph
        assert [t.name for t in graph] == list(graph.task_names)

    def test_task_lookup(self):
        graph = diamond_graph()
        assert graph.task("b").wcet == 3.0
        with pytest.raises(ModelError):
            graph.task("zz")

    def test_channel_lookup(self):
        graph = diamond_graph()
        assert graph.channel("a", "b").size == 1.0
        with pytest.raises(ModelError):
            graph.channel("b", "a")

    def test_predecessors_successors(self):
        graph = diamond_graph()
        assert graph.predecessors("d") == ["b", "c"]
        assert graph.successors("a") == ["b", "c"]
        assert graph.predecessors("a") == []

    def test_in_out_channels(self):
        graph = diamond_graph()
        assert {c.src for c in graph.in_channels("d")} == {"b", "c"}
        assert {c.dst for c in graph.out_channels("a")} == {"b", "c"}

    def test_sources_sinks(self):
        graph = diamond_graph()
        assert graph.sources == ["a"]
        assert graph.sinks == ["d"]

    def test_topological_order_is_consistent(self):
        graph = diamond_graph()
        order = graph.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for channel in graph.channels:
            assert position[channel.src] < position[channel.dst]

    def test_depth(self):
        graph = diamond_graph()
        assert graph.depth("a") == 0
        assert graph.depth("b") == 1
        assert graph.depth("d") == 2


def longest_chain_depth(digraph: nx.DiGraph, node: str) -> int:
    """Edges on the longest predecessor chain ending at ``node``."""

    @lru_cache(maxsize=None)
    def depth(name: str) -> int:
        return 1 + max((depth(p) for p in digraph.predecessors(name)), default=-1)

    return depth(node)


def assert_matches_networkx(graph: TaskGraph) -> None:
    """The graph's own adjacency agrees with networkx on every query."""
    digraph = to_digraph(graph)
    assert graph.topological_order() == tuple(
        nx.lexicographical_topological_sort(digraph)
    )
    for name in graph.task_names:
        assert graph.predecessors(name) == sorted(digraph.predecessors(name))
        assert graph.successors(name) == sorted(digraph.successors(name))
        assert graph.depth(name) == longest_chain_depth(digraph, name)
    assert graph.sources == sorted(n for n, d in digraph.in_degree() if d == 0)
    assert graph.sinks == sorted(n for n, d in digraph.out_degree() if d == 0)


@st.composite
def random_dags(draw):
    """A random DAG: edges run from lower to higher rank, and the names
    and the insertion order are drawn independently of rank, so neither
    gives the lexicographic topological order away."""
    count = draw(st.integers(min_value=1, max_value=12))
    names = draw(
        st.lists(
            st.text("abcxyz", min_size=1, max_size=3),
            min_size=count, max_size=count, unique=True,
        )
    )
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    inserted = draw(st.permutations(range(count)))
    return TaskGraph(
        "g",
        [Task(names[i], 1.0, 1.0 + i) for i in inserted],
        [Channel(names[i], names[j], 1.0) for i, j in edges],
        period=100.0,
        service_value=1.0,
    )


class TestAdjacency:
    """The Kahn pass against networkx, the reference it replaced."""

    @given(random_dags())
    @settings(max_examples=200, deadline=None)
    def test_random_dags_match_networkx(self, graph):
        assert_matches_networkx(graph)

    @pytest.mark.parametrize("suite", benchmark_names())
    def test_suite_graphs_match_networkx(self, suite):
        for graph in get_benchmark(suite).problem.applications:
            assert_matches_networkx(graph)

    def test_hardened_cruise_graphs_match_networkx(self):
        applications = get_benchmark("cruise").problem.applications
        hardened = harden(applications, cruise_reference_plan())
        for graph in hardened.applications:
            assert_matches_networkx(graph)


class TestAggregates:
    def test_total_wcet(self):
        assert diamond_graph().total_wcet() == pytest.approx(8.5)

    def test_critical_path(self):
        # a(2) -> b(3) -> d(1) = 6 beats a -> c(2.5) -> d = 5.5
        assert diamond_graph().critical_path_wcet() == pytest.approx(6.0)

    def test_critical_path_at_most_total(self):
        graph = diamond_graph()
        assert graph.critical_path_wcet() <= graph.total_wcet()

    def test_utilization(self):
        assert diamond_graph().utilization() == pytest.approx(0.85)


class TestDerive:
    def test_derive_preserves_attributes(self):
        graph = diamond_graph()
        derived = graph.derive(tasks=[Task("only", 1.0, 2.0)], channels=[])
        assert derived.period == graph.period
        assert derived.service_value == graph.service_value
        assert len(derived) == 1

    def test_derive_keeps_reliability_target(self):
        graph = TaskGraph(
            "g", [Task("a", 1, 2)], [], period=10, reliability_target=0.25
        )
        derived = graph.derive(tasks=[Task("b", 1, 2)], channels=[])
        assert derived.reliability_target == 0.25

    def test_equality(self):
        assert diamond_graph() == diamond_graph()
        assert diamond_graph() != diamond_graph(period=20.0)
