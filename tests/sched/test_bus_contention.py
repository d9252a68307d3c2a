"""Tests for the ``message-jobs`` comm backend (bus arbitration as jobs)."""

import pytest

from repro import api
from repro.comm import make_comm, with_comm
from repro.core.analysis import MixedCriticalityAnalysis
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture, Interconnect, Processor
from repro.model.mapping import Mapping
from repro.model.serialization import SystemBundle
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.sched.jobs import BUS_RESOURCE, unroll
from repro.sched.wcrt import WindowAnalysisBackend


MESSAGE_JOBS = make_comm("message-jobs")


def platform(bandwidth=10.0, base_latency=0.0):
    return Architecture(
        [Processor("pe0"), Processor("pe1"), Processor("pe2")],
        Interconnect(bandwidth=bandwidth, base_latency=base_latency),
    )


def crossing_apps():
    """Two producer->consumer graphs whose transfers share the bus."""
    g1 = TaskGraph(
        "g1",
        tasks=[Task("p1", 1.0, 1.0), Task("c1", 1.0, 1.0)],
        channels=[Channel("p1", "c1", 40.0)],  # 4 ms on the bus
        period=20.0,
        reliability_target=1e-6,
    )
    g2 = TaskGraph(
        "g2",
        tasks=[Task("p2", 1.0, 1.0), Task("c2", 1.0, 1.0)],
        channels=[Channel("p2", "c2", 40.0)],
        period=10.0,
        service_value=1.0,
    )
    return ApplicationSet([g1, g2])


def crossing_mapping():
    return Mapping({"p1": "pe0", "c1": "pe1", "p2": "pe0", "c2": "pe2"})


class TestMessageJobs:
    def test_message_jobs_created(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=MESSAGE_JOBS
        )
        bus_jobs = [j for j in jobset.jobs if j.processor == BUS_RESOURCE]
        # 2 graphs x (2 + 4) instances over two hyperperiods.
        assert len(bus_jobs) == 2 + 4
        names = {j.task_name for j in bus_jobs}
        assert names == {"p1>c1", "p2>c2"}

    def test_message_duration_is_transfer_time(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=MESSAGE_JOBS
        )
        message = jobset.job(("p1>c1", 0))
        assert message.bcet == message.wcet == pytest.approx(4.0)

    def test_no_message_for_colocated_channel(self):
        mapping = Mapping({"p1": "pe0", "c1": "pe0", "p2": "pe1", "c2": "pe2"})
        jobset = unroll(crossing_apps(), mapping, platform(), comm=MESSAGE_JOBS)
        names = {j.task_name for j in jobset.jobs}
        assert "p1>c1" not in names
        assert "p2>c2" in names

    def test_disabled_by_default(self):
        jobset = unroll(crossing_apps(), crossing_mapping(), platform())
        assert all(j.processor != BUS_RESOURCE for j in jobset.jobs)

    def test_message_inherits_producer_urgency(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=MESSAGE_JOBS
        )
        # g2 has the shorter period: its producer and message outrank g1's.
        assert (
            jobset.job(("p2>c2", 0)).priority < jobset.job(("p1>c1", 0)).priority
        )
        # A message ranks directly after its own producer.
        assert (
            jobset.job(("p1", 0)).priority < jobset.job(("p1>c1", 0)).priority
        )


class TestNameCollisionGuard:
    def test_adversarial_task_name_rejected(self):
        from repro.errors import AnalysisError

        graph = TaskGraph(
            "g",
            tasks=[Task("p", 1.0, 1.0), Task("c", 1.0, 1.0), Task("p>c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0), Channel("c", "p>c", 10.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([graph])
        mapping = Mapping({"p": "pe0", "c": "pe1", "p>c": "pe2"})
        with pytest.raises(AnalysisError, match="collision"):
            unroll(apps, mapping, platform(), comm=MESSAGE_JOBS)

    def test_same_names_fine_without_contention(self):
        graph = TaskGraph(
            "g",
            tasks=[Task("p", 1.0, 1.0), Task("c", 1.0, 1.0), Task("p>c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0), Channel("c", "p>c", 10.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([graph])
        mapping = Mapping({"p": "pe0", "c": "pe1", "p>c": "pe2"})
        jobset = unroll(apps, mapping, platform())
        assert len(jobset) == 3 * 2


class TestContentionBounds:
    def test_contention_dominates_reservation_model(self):
        apps = crossing_apps()
        mapping = crossing_mapping()
        arch = platform()
        backend = WindowAnalysisBackend()
        reserved = backend.analyze(unroll(apps, mapping, arch))
        contended = backend.analyze(
            unroll(apps, mapping, arch, comm=MESSAGE_JOBS)
        )
        for graph in ("g1", "g2"):
            assert contended.graph_wcrt(graph) >= reserved.graph_wcrt(graph) - 1e-9

    def test_low_priority_transfer_suffers_interference(self):
        apps = crossing_apps()
        bounds = WindowAnalysisBackend().analyze(
            unroll(apps, crossing_mapping(), platform(), comm=MESSAGE_JOBS)
        )
        # g1's transfer (low priority) can wait for both g2 transfers in
        # the hyperperiod window: worst finish >= own path + interference.
        g1_wcrt = bounds.graph_wcrt("g1")
        assert g1_wcrt >= 1.0 + 4.0 + 4.0 + 1.0 - 1e-9

    def test_exclusive_bus_matches_reservation(self):
        # A single cross-PE transfer: contention model = latency model.
        g1 = TaskGraph(
            "solo",
            tasks=[Task("p", 1.0, 2.0), Task("c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([g1])
        mapping = Mapping({"p": "pe0", "c": "pe1"})
        arch = platform()
        backend = WindowAnalysisBackend()
        reserved = backend.analyze(unroll(apps, mapping, arch))
        contended = backend.analyze(
            unroll(apps, mapping, arch, comm=MESSAGE_JOBS)
        )
        assert contended.graph_wcrt("solo") == pytest.approx(
            reserved.graph_wcrt("solo")
        )


class TestThroughAlgorithmOne:
    def test_analysis_accepts_bus_contention(
        self, apps, plan, hardened, architecture, mapping
    ):
        plain = MixedCriticalityAnalysis().analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        contended = MixedCriticalityAnalysis().analyze(
            hardened,
            with_comm(architecture, backend="message-jobs"),
            mapping,
            dropped=("lo",),
        )
        for graph in hardened.applications.graph_names:
            assert contended.wcrt_of(graph) >= plain.wcrt_of(graph) - 1e-9
        # The api's comm_backend keyword selects the same backend.
        bundle = SystemBundle(apps, architecture, mapping, plan)
        via_api = api.analyze(
            bundle, dropped=("lo",), comm_backend="message-jobs"
        )
        assert via_api == contended
