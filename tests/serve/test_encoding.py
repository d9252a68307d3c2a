"""Canonical encoding, request digests, and request validation."""

import json

import pytest

from repro.api import AnalyzeRequest, SimulateRequest, load
from repro.errors import ReproError
from repro.serve.encoding import (
    bundle_from_payload,
    bundle_to_payload,
    canonical_bytes,
    canonical_json,
    canonical_system,
    parse_explore_request,
    request_digest,
    request_key,
)

parse_analyze = AnalyzeRequest.from_payload
parse_simulate = SimulateRequest.from_payload


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_irrelevant(self):
        assert canonical_bytes({"x": 1, "y": 2}) == canonical_bytes(
            {"y": 2, "x": 1}
        )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})


class TestRequestDigest:
    def test_stable_across_dict_order(self):
        a = request_digest("analyze", {"p": 1, "q": 2})
        b = request_digest("analyze", {"q": 2, "p": 1})
        assert a == b

    def test_differs_by_endpoint_and_params(self):
        params = {"p": 1}
        assert request_digest("analyze", params) != request_digest(
            "simulate", params
        )
        assert request_digest("analyze", {"p": 1}) != request_digest(
            "analyze", {"p": 2}
        )

    def test_suite_name_and_inline_payload_coalesce(self):
        inline = bundle_to_payload(load("cruise"))
        by_name = parse_analyze({"system": "cruise"})
        by_payload = parse_analyze({"system": inline})
        assert request_key(by_name) == request_key(by_payload)

    def test_dropped_string_and_list_coalesce(self, bundle):
        payload = bundle_to_payload(bundle)
        a = parse_analyze({"system": payload, "dropped": "lo"})
        b = parse_analyze({"system": payload, "dropped": ["lo"]})
        assert request_key(a) == request_key(b)

    @pytest.mark.parametrize(
        "left, right",
        (
            ({}, {"backend": "window"}),
            ({}, {"backend": None}),
            ({"dropped": ["info", "log"]}, {"dropped": ["log", "info"]}),
            ({"dropped": ["info", "info"]}, {"dropped": ["info"]}),
            ({"dropped": "log, info"}, {"dropped": ["info", "log"]}),
            ({}, {"comm_backend": None}),
        ),
    )
    def test_equivalent_analyze_spellings_coalesce(self, left, right):
        a = parse_analyze({"system": "cruise", **left})
        b = parse_analyze({"system": "cruise", **right})
        assert a == b
        assert request_key(a) == request_key(b)

    def test_dropped_order_and_repeats_give_identical_bytes(self):
        # The reason the canonical drop set may sort and de-duplicate:
        # analysis and simulation reduce it to a frozenset.
        from repro.api import analyze, simulate
        from repro.serve.encoding import (
            analysis_result_to_dict,
            montecarlo_result_to_dict,
        )

        from repro.model.serialization import SystemBundle
        from repro.suites.cruise import (
            cruise_reference_plan,
            cruise_sample_mappings,
        )

        cruise = load("cruise")
        bundle = SystemBundle(
            cruise.applications,
            cruise.architecture,
            cruise_sample_mappings()[1][0],
            cruise_reference_plan(),
        )
        spellings = (("info", "log"), ("log", "info"), ("log", "info", "log"))
        analyzed = {
            canonical_bytes(analysis_result_to_dict(
                analyze(bundle, backend="fast", dropped=d)
            ))
            for d in spellings
        }
        simulated = {
            canonical_bytes(montecarlo_result_to_dict(
                simulate(bundle, profiles=5, seed=2, dropped=d)
            ))
            for d in spellings
        }
        assert len(analyzed) == 1 and len(simulated) == 1

    def test_deadline_is_not_part_of_the_digest(self, bundle):
        payload = bundle_to_payload(bundle)
        plain = parse_analyze({"system": payload})
        timed = parse_analyze({"system": payload, "deadline_seconds": 5})
        assert request_key(plain) == request_key(timed)


class TestResolveSystemPaths:
    def test_paths_disabled_by_default(self, tmp_path):
        from repro.serve.encoding import resolve_system

        with pytest.raises(ReproError, match="allow-local-paths"):
            resolve_system(str(tmp_path / "system.json"))

    def test_suite_names_allowed_without_opt_in(self):
        from repro.serve.encoding import resolve_system

        bundle = resolve_system("cruise")
        assert bundle.applications.graphs

    def test_paths_resolve_when_opted_in(self, bundle, tmp_path):
        from repro.model.serialization import save_system
        from repro.serve.encoding import resolve_system

        path = tmp_path / "system.json"
        save_system(
            path,
            bundle.applications,
            bundle.architecture,
            bundle.mapping,
            bundle.plan,
        )
        loaded = resolve_system(str(path), allow_paths=True)
        assert bundle_to_payload(loaded) == bundle_to_payload(bundle)

    def test_missing_path_does_not_leak_existence_by_default(self, tmp_path):
        # Whether or not the file exists, the gated error is identical.
        from repro.serve.encoding import resolve_system

        present = tmp_path / "present.json"
        present.write_text("{}")
        for spec in (present, tmp_path / "absent.json"):
            with pytest.raises(ReproError, match="unknown suite"):
                resolve_system(str(spec))


class TestBundlePayload:
    def test_round_trip(self, bundle):
        payload = bundle_to_payload(bundle)
        again = bundle_to_payload(bundle_from_payload(payload))
        assert canonical_json(payload) == canonical_json(again)

    def test_payload_is_json_clean(self, bundle):
        json.dumps(bundle_to_payload(bundle))

    def test_missing_sections_rejected(self):
        with pytest.raises(ReproError, match="applications"):
            bundle_from_payload({"architecture": {}})

    def test_canonical_system_inlines_names(self):
        payload = canonical_system("cruise")
        assert payload["applications"] == bundle_to_payload(load("cruise"))[
            "applications"
        ]


class TestParseAnalyze:
    def test_defaults(self, bundle):
        request = parse_analyze({"system": bundle_to_payload(bundle)})
        assert request.method == "proposed"
        assert request.backend == "window"
        assert request.granularity == "job"
        assert request.policy == "fp"
        assert request.dropped == ()
        assert request.comm_backend is None

    def test_unknown_field_rejected(self, bundle):
        with pytest.raises(ReproError, match="unknown field"):
            parse_analyze(
                {"system": bundle_to_payload(bundle), "verbose": True}
            )

    def test_bad_method_rejected(self, bundle):
        with pytest.raises(ReproError, match="method"):
            parse_analyze(
                {"system": bundle_to_payload(bundle), "method": "bogus"}
            )

    @pytest.mark.parametrize("value", (True, False, "true", None))
    def test_bus_contention_is_an_unknown_field(self, bundle, value):
        # The removed alias gets the ordinary unknown-field error, whose
        # accepted list names its replacement.
        with pytest.raises(ReproError, match="unknown field") as info:
            parse_analyze(
                {"system": bundle_to_payload(bundle), "bus_contention": value}
            )
        assert "comm_backend" in str(info.value)

    def test_bus_contention_conflict_rejected(self, bundle):
        with pytest.raises(ReproError, match="unknown field"):
            parse_analyze(
                {
                    "system": bundle_to_payload(bundle),
                    "bus_contention": True,
                    "comm_backend": "tdma",
                }
            )

    def test_comm_fields_accepted(self, bundle):
        request = parse_analyze(
            {
                "system": bundle_to_payload(bundle),
                "comm_backend": "noc-xy",
                "comm_arq": 2,
                "comm_arq_timeout": 1,
            }
        )
        assert (
            request.comm_backend, request.comm_arq, request.comm_arq_timeout
        ) == ("noc-xy", 2, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        (
            ("comm_backend", "token-ring"),
            ("comm_arq", True),
            ("comm_arq", 1.5),
            ("comm_arq", -1),
            ("comm_arq_timeout", "1"),
            ("granularity", 3),
            ("dropped", [1]),
        ),
    )
    def test_bad_values_rejected(self, bundle, field, value):
        with pytest.raises(ReproError, match=field):
            parse_analyze({"system": bundle_to_payload(bundle), field: value})

    def test_unknown_dropped_name_rejected(self, bundle):
        with pytest.raises(ReproError, match="nosuch"):
            parse_analyze(
                {"system": bundle_to_payload(bundle), "dropped": ["nosuch"]}
            )

    def test_system_required(self):
        with pytest.raises(ReproError, match="system"):
            parse_analyze({"method": "proposed"})

    def test_non_object_body_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            parse_analyze([1, 2])

    def test_options_are_the_wire_body(self, bundle):
        request = parse_analyze(
            {
                "system": bundle_to_payload(bundle),
                "dropped": "lo",
                "granularity": "task",
                "comm_backend": "tdma",
            }
        )
        again = parse_analyze({"system": request.system, **request.options()})
        assert again == request


class TestParseSimulate:
    def test_defaults(self, bundle):
        request = parse_simulate({"system": bundle_to_payload(bundle)})
        assert request.profiles == 500
        assert request.seed == 0
        assert request.max_faults == 3
        assert request.worst_bias == 0.5

    def test_worst_bias_bounds(self, bundle):
        with pytest.raises(ReproError, match="worst_bias"):
            parse_simulate(
                {"system": bundle_to_payload(bundle), "worst_bias": 1.5}
            )

    def test_profiles_must_be_positive(self, bundle):
        with pytest.raises(ReproError, match="profiles"):
            parse_simulate(
                {"system": bundle_to_payload(bundle), "profiles": 0}
            )

    @pytest.mark.parametrize(
        "field, value",
        (("profiles", True), ("seed", 1.5), ("max_faults", "2"),
         ("worst_bias", "0.5"), ("worst_bias", None)),
    )
    def test_json_types_checked(self, bundle, field, value):
        with pytest.raises(ReproError, match=field):
            parse_simulate({"system": bundle_to_payload(bundle), field: value})

    def test_bus_contention_is_an_unknown_field(self, bundle):
        with pytest.raises(ReproError, match="unknown field"):
            parse_simulate(
                {"system": bundle_to_payload(bundle), "bus_contention": True}
            )


class TestParseExplore:
    def test_defaults(self, bundle):
        params = parse_explore_request({"system": bundle_to_payload(bundle)})
        assert params["generations"] == 25
        assert params["population"] == 32
        assert params["checkpoint_every"] == 2

    def test_deadline_must_be_positive(self, bundle):
        with pytest.raises(ReproError, match="deadline_seconds"):
            parse_explore_request(
                {"system": bundle_to_payload(bundle), "deadline_seconds": 0}
            )

    def test_bool_not_an_int(self, bundle):
        with pytest.raises(ReproError, match="generations"):
            parse_explore_request(
                {"system": bundle_to_payload(bundle), "generations": True}
            )
