"""The ``message-jobs`` backend.

Message jobs turn every sized cross-processor transfer into a job on one
virtual bus.  The backend must reproduce the historical bus-contention
analysis byte for byte, fold the ARQ margin into each message job, and
leave the simulator on reserved latencies.
"""

import hashlib
import json

import pytest

from repro import api
from repro.comm import make_comm, with_comm
from repro.model.serialization import SystemBundle
from repro.sched.jobs import BUS_RESOURCE, unroll
from repro.sched.priority import assign_priorities
from repro.sim import Simulator
from repro.suites import benchmark_names, get_benchmark
from repro.verify.campaign import scatter_state, state_from_bundle
from repro.verify.oracles import result_digest

#: Per suite: sha256 of the ``result_digest`` JSON of a fast-backend,
#: task-granularity analysis, and the ``JobSet.fingerprint()`` of the
#: nominal unroll — both recorded with the former ``bus_contention=True``
#: flag before message jobs became a comm backend.
LEGACY_PINS = {
    "cruise": (
        "554f1aa78ac6cd6ff24a674fe554366a8525133180dfa46cdeabfe1238d5a5bb",
        "ec0853241eadef00e139b7b1d8d7417b624465118e69525de133175acd1daa6c",
    ),
    "dt-med": (
        "4fe09427fcf37ddc8f51c3beffef436c417eff9600642609a38f6d0787ad5859",
        "2b9406f46f1c9e68141d0986f83bec0c8dbed468c02fbb7d3c5781d980e9757d",
    ),
    "dt-large": (
        "a87cf45bc5326c533be02a77b3353a81af188e5d58c776a9fe296fa9b4f1338e",
        "8703a524760003edbb00c416a9fb40c50b76294502dae99d302b53e642e39d6c",
    ),
    "synth-1": (
        "4d025c3c999fd99e010755643cf04f79a73aecfc9de2110b9e9fb787c49b98f6",
        "faf0d666f65dfc8fb35849e4d77ee92a1104ebabe215fd695e09d502a9cd44c1",
    ),
    "synth-2": (
        "6572671fa4084fa3b672a8a932fba08b35ef2783a86eb8f26f385c57d30fc9bf",
        "8db5c0cec464716bd1d814f3c0ca3142baad208eed043f83e366786cd15464d7",
    ),
}


def _scatter(suite):
    problem = get_benchmark(suite).problem
    bundle = SystemBundle(problem.applications, problem.architecture, None, None)
    return scatter_state(state_from_bundle(bundle, seed=0))


def _bundle(state, architecture=None):
    return SystemBundle(
        state.applications,
        architecture or state.architecture,
        state.mapping,
        state.plan,
    )


def _digest(result):
    text = json.dumps(result_digest(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def cruise():
    return _scatter("cruise")


def test_every_suite_is_pinned():
    assert set(LEGACY_PINS) == set(benchmark_names())


@pytest.mark.parametrize("suite", sorted(LEGACY_PINS))
def test_legacy_digests_and_fingerprints_survive(suite):
    state = _scatter(suite)
    digest, fingerprint = LEGACY_PINS[suite]
    bundle = _bundle(state)
    result = api.analyze(
        bundle, backend="fast", granularity="task",
        dropped=state.dropped, comm_backend="message-jobs",
    )
    assert _digest(result) == digest

    hardened = state.hardened()
    bounds = {
        task.name: hardened.nominal_bounds(task.name)
        for task in hardened.applications.all_tasks
    }
    bounds.update((name, (0.0, 0.0)) for name in hardened.passive_tasks)
    jobset = unroll(
        hardened.applications,
        state.mapping,
        state.architecture,
        comm=make_comm("message-jobs"),
        priorities=assign_priorities(hardened.applications),
        bounds=bounds,
    )
    assert any(job.processor == BUS_RESOURCE for job in jobset.jobs)
    assert jobset.comm_token == ""
    assert jobset.fingerprint() == fingerprint


class TestArq:
    def test_bounds_never_below_flat_with_the_same_budget(self, cruise):
        results = {
            name: api.analyze(
                _bundle(cruise), comm_backend=name, comm_arq=2,
                comm_arq_timeout=1.0, dropped=cruise.dropped,
            )
            for name in ("flat", "message-jobs")
        }
        for graph, verdict in results["message-jobs"].verdicts.items():
            if verdict.dropped:
                continue
            assert verdict.wcrt >= results["flat"].verdicts[graph].wcrt, graph

    def test_message_jobs_span_the_folded_channel_bounds(self, cruise):
        hardened = cruise.hardened()
        architecture = with_comm(cruise.architecture, arq_retries=2)
        bound = make_comm("message-jobs").bind(
            hardened.applications, cruise.mapping, architecture
        )
        jobset = unroll(
            hardened.applications, cruise.mapping, architecture, comm=bound
        )
        fabric = architecture.interconnect
        message = next(j for j in jobset.jobs if j.processor == BUS_RESOURCE)
        src, dst = message.task_name.split(">")
        size = hardened.applications.graph(message.graph_name).channel(
            src, dst
        ).size
        assert message.bcet == fabric.transfer_time(size)
        assert message.wcet == 3 * fabric.transfer_time(size)
        assert jobset.comm_token == bound.fingerprint_token != ""


class TestSimulator:
    def test_reservation_model_matches_flat(self, cruise):
        hardened = cruise.hardened()
        runs = {}
        for name in ("flat", "message-jobs"):
            architecture = with_comm(
                cruise.architecture, backend=name, arq_retries=1,
                arq_timeout=0.5,
            )
            simulator = Simulator(
                hardened, architecture, cruise.mapping,
                dropped=cruise.dropped, collect_trace=True,
            )
            runs[name] = simulator.run()
        processors = {event.processor for event in runs["message-jobs"].trace}
        assert BUS_RESOURCE not in processors
        assert runs["message-jobs"] == runs["flat"]

    def test_monte_carlo_matches_flat(self, cruise):
        flat, contended = (
            api.simulate(
                _bundle(cruise), comm_backend=name, profiles=20, seed=3,
                dropped=cruise.dropped,
            )
            for name in ("flat", "message-jobs")
        )
        assert contended == flat


class TestLegacySpelling:
    def test_consistent_spellings_accepted(self, cruise):
        # A fabric that declares message jobs and a comm_backend override
        # (alone or agreeing with the declaration) are one analysis.
        declared = with_comm(cruise.architecture, backend="message-jobs")
        quick = {"backend": "fast", "granularity": "task"}
        reference = api.analyze(
            _bundle(cruise), comm_backend="message-jobs", **quick
        )
        for bundle, options in (
            (_bundle(cruise, declared), {"comm_backend": "message-jobs"}),
            (_bundle(cruise, declared), {}),
        ):
            result = api.analyze(bundle, **quick, **options)
            assert result == reference

    def test_bus_contention_keyword_is_gone(self, cruise):
        with pytest.raises(TypeError, match="bus_contention"):
            api.analyze(_bundle(cruise), bus_contention=True)
