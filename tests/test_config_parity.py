"""Every front door builds the same typed request.

CLI flag vectors, HTTP payloads, and ``api`` keyword calls all build one
typed request per operation — :class:`~repro.dse.ExploreRequest`,
:class:`~repro.api.AnalyzeRequest` and :class:`~repro.api.SimulateRequest`
— so equivalent spellings are *provably* the same computation (equal
requests, equal canonical options, equal digests).
"""

import argparse
import dataclasses

import pytest

import repro.api as api
from repro.api import AnalyzeRequest, SimulateRequest
from repro.cli import (
    _explore_request_from_args,
    _request_from_args,
    build_parser,
    main,
)
from repro.comm import COMM_BACKENDS
from repro.core.analysis import TRIGGER_GRANULARITIES
from repro.core.factory import ANALYSIS_METHODS, SCHED_BACKENDS
from repro.dse import ExploreRequest, ExplorerConfig, IslandTopology
from repro.dse.request import TOPOLOGY_KINDS
from repro.errors import ReproError
from repro.sched.jobs import SCHED_POLICIES
from repro.serve.encoding import (
    canonical_system,
    explore_request_from_params,
    parse_explore_request,
    request_digest,
    request_key,
)


def _cli_request(argv):
    args = build_parser().parse_args(argv)
    return _explore_request_from_args(args)


class TestFrontDoorParity:
    def test_cli_flags_equal_from_options(self):
        via_cli = _cli_request(
            [
                "explore", "cruise",
                "--generations", "7", "--population", "16", "--seed", "9",
                "--workers", "2", "--islands", "4",
                "--migration-every", "5", "--migrants", "3",
                "--topology", "all", "--backend", "window",
            ]
        )
        direct = ExploreRequest.from_options(
            "cruise",
            generations=7, population=16, seed=9, workers=2,
            islands=4, migration_every=5, migrants=3, topology="all",
            backend="window",
        )
        assert via_cli == direct

    def test_http_payload_equals_from_options(self):
        params = parse_explore_request(
            {
                "system": "cruise",
                "generations": 7,
                "population": 16,
                "seed": 9,
                "workers": 2,
                "islands": 4,
                "migration_every": 5,
                "migrants": 3,
                "topology": "all",
                "backend": "window",
            }
        )
        via_http = explore_request_from_params(params)
        direct = ExploreRequest.from_options(
            "cruise",
            generations=7, population=16, seed=9, workers=2,
            islands=4, migration_every=5, migrants=3, topology="all",
            backend="window", checkpoint_every=2,
        )
        # The HTTP layer inlines the system payload; compare the rest.
        assert via_http.config == direct.config
        assert via_http.topology == direct.topology
        assert via_http.backend == direct.backend
        assert via_http.canonical_options() == direct.canonical_options()

    def test_cli_defaults_equal_http_defaults(self):
        via_cli = _cli_request(
            ["explore", "cruise", "--checkpoint-every", "2"]
        )
        params = parse_explore_request({"system": "cruise"})
        via_http = explore_request_from_params(params)
        assert via_cli.config == via_http.config
        assert via_cli.topology == via_http.topology
        assert via_cli.backend == via_http.backend


class TestCanonicalization:
    def test_equivalent_spellings_digest_identically(self):
        sparse = parse_explore_request({"system": "cruise"})
        explicit = parse_explore_request(
            {
                "system": "cruise",
                "generations": 25,
                "population": 32,
                "offspring_size": 32,
                "archive_size": 32,
                "seed": 0,
                "workers": 1,
                "islands": 1,
                "migration_every": 99,   # meaningless with one island
                "migrants": 7,           # ditto
                "topology": "all",       # ditto
                "backend": None,         # same as "fast"
            }
        )
        assert sparse == explicit
        assert request_digest("explore", sparse) == request_digest(
            "explore", explicit
        )

    def test_non_migrating_topologies_normalize(self):
        zero_migrants = parse_explore_request(
            {"system": "cruise", "islands": 4, "migrants": 0}
        )
        none_kind = parse_explore_request(
            {
                "system": "cruise",
                "islands": 4,
                "topology": "none",
                "migration_every": 3,
            }
        )
        assert zero_migrants["topology"] == "none"
        assert zero_migrants == none_kind

    def test_canonical_options_is_the_wire_body(self):
        request = ExploreRequest.from_options(
            "cruise", generations=5, population=8, islands=2,
            checkpoint_every=2,
        )
        body = dict(request.canonical_options())
        body["system"] = "cruise"
        round_tripped = explore_request_from_params(
            parse_explore_request(body)
        )
        assert round_tripped.config == request.config
        assert round_tripped.topology == request.topology.normalized()
        assert round_tripped.backend == (request.backend or "fast")


class TestConstructionPath:
    def test_full_field_names_go_to_the_constructor(self):
        # Island workers rebuild their config from ``asdict``; the field
        # names are the dataclass's, and from_options takes only the
        # user-facing spellings ``eval_budget`` and ``quarantine``.
        config = ExplorerConfig.from_options(
            population=20, generations=9, seed=4, workers=2,
            mutation_gene_rate=0.2, eval_budget=3.0, quarantine="q.jsonl",
        )
        from dataclasses import asdict

        assert ExplorerConfig(**asdict(config)) == config
        assert config.eval_soft_budget_seconds == 3.0
        assert config.quarantine_path == "q.jsonl"
        for alias in ("eval_soft_budget_seconds", "quarantine_path"):
            with pytest.raises(TypeError, match=alias):
                ExplorerConfig.from_options(**{alias: None})

    def test_shorthand_expands_the_size_triple(self):
        config = ExplorerConfig.from_options(population=24)
        assert (
            config.population_size,
            config.offspring_size,
            config.archive_size,
        ) == (24, 24, 24)

    def test_explicit_sizes_override_population(self):
        config = ExplorerConfig.from_options(
            population=24, archive_size=8
        )
        assert config.population_size == 24
        assert config.archive_size == 8

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ReproError):
            ExplorerConfig.from_options(resume=True)

    def test_checkpointing_defaults_quarantine_path(self, tmp_path):
        config = ExplorerConfig.from_options(
            checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert config.quarantine_path is not None
        assert config.quarantine_path.endswith("quarantine.jsonl")

    def test_bad_topology_rejected(self):
        with pytest.raises(ReproError):
            IslandTopology(islands=0)
        with pytest.raises(ReproError):
            IslandTopology(kind="mesh")
        with pytest.raises(ReproError):
            ExploreRequest.from_options("cruise", backend="bogus")


# ---------------------------------------------------------------------------
# analyze / simulate
# ---------------------------------------------------------------------------

ANALYZE_ARGV = [
    "--method", "naive", "--backend", "fast", "--granularity", "task",
    "--dropped", "log, info", "--policy", "edf", "--comm-backend", "tdma",
    "--comm-arq", "2", "--comm-arq-timeout", "0.5",
]
ANALYZE_OPTIONS = {
    "method": "naive", "backend": "fast", "granularity": "task",
    "dropped": ["info", "log"], "policy": "edf", "comm_backend": "tdma",
    "comm_arq": 2, "comm_arq_timeout": 0.5,
}
SIMULATE_ARGV = [
    "--profiles", "40", "--seed", "7", "--max-faults", "2",
    "--worst-bias", "0.25", "--dropped", "info,log,info", "--policy", "edf",
    "--comm-backend", "noc-xy", "--comm-arq", "1",
]
SIMULATE_OPTIONS = {
    "profiles": 40, "seed": 7, "max_faults": 2, "worst_bias": 0.25,
    "dropped": ["log", "info"], "policy": "edf", "comm_backend": "noc-xy",
    "comm_arq": 1,
}


class _Captured(Exception):
    pass


def _canonical(request):
    """``request`` with its system inlined, as the serve layer holds it."""
    return dataclasses.replace(request, system=canonical_system("cruise"))


def _via_argv(request_type, argv):
    return _canonical(
        _request_from_args(request_type, build_parser().parse_args(argv), "cruise")
    )


def _via_api(monkeypatch, call, **keywords):
    """The request ``api.analyze``/``api.simulate`` builds for keywords."""
    captured = []

    def spy(request, plan, mapping):
        captured.append(request)
        raise _Captured

    monkeypatch.setattr(api, "_prepare", spy)
    with pytest.raises(_Captured):
        call("cruise", **keywords)
    return _canonical(captured[0])


class TestAnalyzeSimulateParity:
    @pytest.mark.parametrize(
        "request_type, command, argv, options",
        (
            (AnalyzeRequest, "analyze", ANALYZE_ARGV, ANALYZE_OPTIONS),
            (SimulateRequest, "simulate", SIMULATE_ARGV, SIMULATE_OPTIONS),
        ),
    )
    def test_every_door_builds_one_request(
        self, monkeypatch, request_type, command, argv, options
    ):
        local = _via_argv(request_type, [command, "cruise", *argv])
        submitted = _via_argv(
            request_type, ["submit", command, "cruise", *argv]
        )
        served = request_type.from_payload({"system": "cruise", **options})
        call = api.analyze if command == "analyze" else api.simulate
        keywords = dict(options, dropped=tuple(reversed(options["dropped"])))
        direct = _via_api(monkeypatch, call, **keywords)
        assert local == submitted == served == direct
        assert len({request_key(r) for r in (local, submitted, served, direct)}) == 1

    @pytest.mark.parametrize(
        "request_type, command",
        ((AnalyzeRequest, "analyze"), (SimulateRequest, "simulate")),
    )
    def test_defaults_agree(self, monkeypatch, request_type, command):
        call = api.analyze if command == "analyze" else api.simulate
        requests = (
            _via_argv(request_type, [command, "cruise"]),
            _via_argv(request_type, ["submit", command, "cruise"]),
            request_type.from_payload({"system": "cruise"}),
            _via_api(monkeypatch, call),
        )
        assert all(r == requests[0] for r in requests)

    def test_options_round_trip_through_the_wire(self):
        served = AnalyzeRequest.from_payload(
            {"system": "cruise", **ANALYZE_OPTIONS}
        )
        assert served.options() == dict(
            ANALYZE_OPTIONS, dropped=sorted(ANALYZE_OPTIONS["dropped"])
        )
        assert request_key(served) == request_digest(
            "analyze", {"system": served.system, **served.options()}
        )


def _subparser(*names):
    parser = build_parser()
    for name in names:
        action = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return {a.dest: a.choices for a in parser._actions if a.choices}


class TestChoicesComeFromRegistries:
    REGISTRIES = {
        "method": ANALYSIS_METHODS,
        "backend": SCHED_BACKENDS,
        "granularity": TRIGGER_GRANULARITIES,
        "policy": SCHED_POLICIES,
        "comm_backend": COMM_BACKENDS,
        "topology": TOPOLOGY_KINDS,
    }

    @pytest.mark.parametrize(
        "command",
        (
            ("analyze",), ("submit", "analyze"),
            ("simulate",), ("submit", "simulate"),
            ("explore",), ("submit", "explore"), ("verify",),
        ),
    )
    def test_choices_equal_registry(self, command):
        choices = _subparser(*command)
        checked = set(choices) & set(self.REGISTRIES)
        assert checked, command
        for dest in checked:
            assert tuple(choices[dest]) == self.REGISTRIES[dest], dest


class TestSimulateRanges:
    @pytest.mark.parametrize(
        "field, value",
        (("profiles", 0), ("seed", -1), ("max_faults", 0), ("worst_bias", 1.5),
         ("worst_bias", -0.1)),
    )
    def test_every_door_rejects_the_same_values(
        self, tmp_path, capsys, field, value
    ):
        from repro.model.serialization import save_system
        from repro.suites.cruise import (
            cruise_reference_plan,
            cruise_sample_mappings,
        )

        cruise = api.load("cruise")
        path = tmp_path / "cruise.json"
        save_system(
            path, cruise.applications, cruise.architecture,
            mapping=cruise_sample_mappings()[1][0],
            plan=cruise_reference_plan(),
        )
        flag = ["--" + field.replace("_", "-"), str(value)]
        with pytest.raises(ReproError, match=field):
            SimulateRequest.from_payload({"system": "cruise", field: value})
        with pytest.raises(ReproError, match=field):
            api.simulate(str(path), **{field: value})
        for argv in (
            ["simulate", str(path), *flag],
            ["submit", "simulate", str(path), "--retries", "0", *flag],
        ):
            assert main(argv) == 2
            assert field in capsys.readouterr().err
