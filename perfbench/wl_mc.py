"""Workload ``mc-cruise``: the WC-Sim Monte-Carlo baseline of Table 2.

Campaigns of ``PROFILES`` random fault profiles (``BiasedSampler(0.5)``,
at most three faults, plus the fault-free run) cycle over the three
Table-2 Cruise sample mappings with ``TABLE2_DROPPED``; campaign seeds
derive from the benchmark seed.  Throughput is simulated profiles per
second; latency is the wall time of one campaign, the unit a served
``simulate`` request runs.
"""

import random
import time
from typing import Dict, List, Tuple

from common import Speedometer, median, metric, own_peak_rss_mb, ratio
from common import tail_percentile, timed_setup

PROFILES = 100
MAX_FAULTS = 3
WORST_BIAS = 0.5

#: Registry counters reported per campaign; they repeat exactly per seed.
COUNTERS = (
    "sim.runs",
    "sim.events_processed",
    "sim.critical_transitions",
    "sched.invocations",
    "analysis.cache.hits",
    "analysis.cache.misses",
)


def setup():
    """Import the program and build the three sample-mapped simulators."""
    from repro.experiments.table2 import TABLE2_DROPPED
    from repro.sim import Simulator
    from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

    architecture = cruise_benchmark().problem.architecture
    hardened, mappings = cruise_sample_mappings()
    simulators = [
        Simulator(hardened, architecture, mapping, dropped=TABLE2_DROPPED)
        for mapping in mappings
    ]
    return hardened, architecture, mappings, simulators


def _campaign(simulator, campaign_seed: int):
    from repro.sim import BiasedSampler, MonteCarloEstimator

    estimator = MonteCarloEstimator(
        simulator, sampler=BiasedSampler(WORST_BIAS), max_faults=MAX_FAULTS
    )
    return estimator.estimate(profiles=PROFILES, seed=campaign_seed)


def _run_unit(simulators, step: Tuple[int, int]) -> dict:
    """One ``(mapping index, campaign seed)`` campaign and its counters."""
    from repro.obs.metrics import metrics

    index, campaign_seed = step
    registry = metrics()
    registry.reset()
    started = time.perf_counter()
    try:
        result, error = _campaign(simulators[index], campaign_seed), None
    except Exception as exc:  # noqa: BLE001 - counted as failed work
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    counters = registry.snapshot()["counters"]
    return {
        "mapping": index,
        "seed": campaign_seed,
        "wall_s": wall,
        "result": result,
        "error": error,
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
    }


def check_bounds(hardened, architecture, mappings, units) -> List[str]:
    """Every simulated worst response stays within the proposed WCRT."""
    from repro.core.analysis import MixedCriticalityAnalysis
    from repro.experiments.table2 import TABLE2_DROPPED

    analysis = MixedCriticalityAnalysis(granularity="job")
    problems = []
    for index, mapping in enumerate(mappings):
        bound = analysis.analyze(hardened, architecture, mapping, TABLE2_DROPPED)
        for unit in units:
            if unit["mapping"] != index or unit["result"] is None:
                continue
            for graph, worst in unit["result"].worst_response.items():
                if graph in TABLE2_DROPPED:
                    continue
                if worst > bound.wcrt_of(graph) + 1e-9:
                    problems.append(
                        f"mapping {index + 1} seed {unit['seed']}: simulated "
                        f"{graph} {worst} exceeds proposed WCRT "
                        f"{bound.wcrt_of(graph)}"
                    )
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    import layers

    (hardened, architecture, mappings, simulators), setup_s = timed_setup(
        setup
    )
    _campaign(simulators[0], 0)  # first-call set-up outside the window
    seeds = random.Random(seed)
    speed = Speedometer()
    units, traced, profile = layers.drive(
        lambda step, _speed: _run_unit(simulators, step),
        lambda index: (index % len(simulators), seeds.getrandbits(31)),
        seconds,
        trace,
        speed,
        min_units=1 if trace else 100,  # p90 needs 100 campaigns
    )
    rss = own_peak_rss_mb()
    factor = speed.factor()

    runs = sum(u["counters"]["sim.runs"] for u in units)
    rate = runs / sum(u["wall_s"] for u in units) * factor
    campaigns = [u["wall_s"] / speed.local(u["speed_mark"]) for u in units]
    out: Dict = {
        "speed_factor": factor,
        "setup_s": setup_s,
        "attempted": len(units) * (PROFILES + 1),
        "failed": sum(PROFILES + 1 for u in units if u["error"] is not None),
        "units": len(units),
        "counters": units[0]["counters"],
        "named": {
            "mc_profiles_per_s": metric(rate, "1/s"),
            "mc_campaign_p50_ms": metric(median(campaigns) * 1e3, "ms"),
        },
        "e2e": {
            "throughput_per_s": metric(rate, "1/s"),
            "latency_p50_ms": metric(median(campaigns) * 1e3, "ms"),
            "latency_p90_ms": metric(
                tail_percentile(campaigns, strict=not trace) * 1e3, "ms"
            ),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }
    problems = [
        f"campaign seed {u['seed']}: {u['error']}" for u in units if u["error"]
    ]
    if trace:
        out["trace"] = layers.trace_summary(units, traced, profile)
        out["trace"]["extra"] = {
            "sim.events": sum(
                u["counters"]["sim.events_processed"] for u in traced
            ),
            "sim.critical_ratio": ratio(
                sum(u["result"].critical_runs for u in traced if u["result"]),
                sum(u["counters"]["sim.runs"] for u in traced),
            ),
        }
        problems.extend(
            layers.check_expected("mc-cruise", out["trace"]["profile"])
        )
        problems.extend(
            f"campaign seed {plain['seed']}: counters differ when traced"
            for plain, again in zip(units, traced)
            if plain["counters"] != again["counters"]
        )
    check_started = time.perf_counter()
    problems.extend(check_bounds(hardened, architecture, mappings, units))
    out["check_s"] = time.perf_counter() - check_started
    out["problems"] = problems
    return out
