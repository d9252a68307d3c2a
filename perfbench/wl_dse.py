"""Workload ``dse-dtlarge``: single-process GA exploration of DT-large.

A run repeats one small exploration unit (``ExploreRequest``, one
island, one worker) with GA seeds derived from the benchmark seed, each
on a fresh evaluator so every unit pays its own private fast-path cache.
Throughput is evaluations per second over all units; latency is the wall
time of one GA generation (offspring variation, repair, evaluation and
SPEA2 selection), taken from the program's progress callback.
"""

import json
import time
from typing import Dict, List, Optional

from common import Speedometer, median, metric, own_peak_rss_mb
from common import ratio, tail_percentile, timed_setup

SUITE = "dt-large"
POPULATION = 16
GENERATIONS = 8

#: Registry counters reported per unit; they repeat exactly per seed.
COUNTERS = (
    "sched.invocations",
    "analysis.cache.hits",
    "analysis.cache.misses",
    "analysis.transitions",
    "analysis.prune.skipped",
    "dse.evaluations",
    "dse.cache_hits",
    "eval.evaluations",
    "eval.feasible",
    "eval.guard.fallbacks",
    "eval.guard.quarantined",
    "sim.runs",
    "sim.events_processed",
)


def setup():
    """Import the program and build the DT-large system."""
    from repro.api import load

    return load(SUITE)


def _run_unit(
    bundle, ga_seed: int, speed: Optional[Speedometer] = None,
    population: int = POPULATION, generations: int = GENERATIONS,
) -> dict:
    """One exploration; with ``speed``, calibrate after every generation.

    Calibrations run inside the progress callback, so their time is
    taken off the unit's work clock; the generation boundaries and the
    unit's wall time are both work time only.
    """
    from repro.dse import ExploreRequest
    from repro.dse.islands import run_explore
    from repro.obs.metrics import metrics

    request = ExploreRequest.from_options(
        bundle, population=population, generations=generations,
        seed=ga_seed, workers=1, islands=1,
    )
    registry = metrics()
    registry.reset()
    marks: List[float] = []
    paused = 0.0

    def progress(_generation, _statistics) -> None:
        nonlocal paused
        now = time.perf_counter()
        marks.append(now - paused)
        if speed is not None:
            speed.sample()
            paused += time.perf_counter() - now

    started = time.perf_counter()
    result = run_explore(request, progress=progress)
    wall = time.perf_counter() - started - paused
    counters = registry.snapshot()["counters"]
    stats = result.statistics
    return {
        "seed": ga_seed,
        "wall_s": wall,
        # marks[0] closes the initial population; later gaps are whole
        # generations of variation + evaluation + selection.
        "generation_s": [b - a for a, b in zip(marks, marks[1:])],
        "evaluations": stats.evaluations,
        "cache_hits": stats.cache_hits,
        "feasible": stats.feasible,
        "failed": stats.guard_failures + stats.fallback_evaluations,
        "pareto": result.pareto,
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
    }


def check_pareto(bundle, units: List[dict]) -> List[str]:
    """Re-evaluate every Pareto point on the reference analysis.

    A fresh evaluator on the pure-python window back-end with no fast
    path must reproduce feasibility, power and service exactly.
    """
    from repro.core.analysis import MixedCriticalityAnalysis
    from repro.core.evaluator import Evaluator
    from repro.core.problem import Problem
    from repro.sched.wcrt import WindowAnalysisBackend

    problem = Problem(bundle.applications, bundle.architecture)
    reference = Evaluator(problem, analysis=MixedCriticalityAnalysis(
        backend=WindowAnalysisBackend(),
        granularity="task",
        comm=problem.comm_model(),
        fast_path=None,
    ))
    problems, seen = [], set()
    for unit in units:
        if not unit["pareto"]:
            problems.append(f"unit seed {unit['seed']}: empty Pareto front")
        for point in unit["pareto"]:
            key = json.dumps(point.design.to_dict(), sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            again = reference.evaluate(point.design)
            if (again.feasible, again.power, again.service) != (
                True, point.power, point.service
            ):
                problems.append(
                    f"unit seed {unit['seed']}: Pareto point "
                    f"({point.power}, {point.service}) re-evaluates to "
                    f"feasible={again.feasible} power={again.power} "
                    f"service={again.service}"
                )
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    import layers

    bundle, setup_s = timed_setup(setup)
    # Lazy imports and first-call set-up inside the program happen here,
    # outside the timed window.
    _run_unit(bundle, -1, population=4, generations=1)
    speed = Speedometer()
    units, traced, profile = layers.drive(
        lambda ga_seed, speed: _run_unit(bundle, ga_seed, speed),
        lambda index: seed * 1000 + index,
        seconds,
        trace,
        speed,
        # p90 needs 100 generations; traced runs only report per-layer data
        min_units=1 if trace else -(-100 // GENERATIONS),
    )
    rss = own_peak_rss_mb()
    factor = speed.factor()

    evaluations = sum(u["evaluations"] for u in units)
    rate = evaluations / sum(u["wall_s"] for u in units) * factor
    # Generations are too short for a steady local factor: one noisy
    # calibration per sample widens the tail, so they share the run's.
    generations = [g / factor for u in units for g in u["generation_s"]]
    out: Dict = {
        "speed_factor": factor,
        "setup_s": setup_s,
        "attempted": evaluations,
        "failed": sum(u["failed"] for u in units),
        "units": len(units),
        "counters": units[0]["counters"],
        "named": {
            "dse_evals_per_s": metric(rate, "1/s"),
            "dse_generation_p50_ms": metric(median(generations) * 1e3, "ms"),
        },
        "e2e": {
            "throughput_per_s": metric(rate, "1/s"),
            "latency_p50_ms": metric(median(generations) * 1e3, "ms"),
            "latency_p90_ms": metric(
                tail_percentile(generations, strict=not trace) * 1e3, "ms"
            ),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }
    problems = []
    if trace:
        out["trace"] = layers.trace_summary(units, traced, profile)
        out["trace"]["extra"] = _trace_extra(traced)
        problems.extend(
            layers.check_expected("dse-dtlarge", out["trace"]["profile"])
        )
        problems.extend(
            f"unit seed {plain['seed']}: counters differ when traced"
            for plain, again in zip(units, traced)
            if plain["counters"] != again["counters"]
        )
    check_started = time.perf_counter()
    problems.extend(check_pareto(bundle, units))
    out["check_s"] = time.perf_counter() - check_started
    out["problems"] = problems
    return out


def _trace_extra(traced: List[dict]) -> Dict[str, float]:
    def total(name: str) -> int:
        return sum(u["counters"][name] for u in traced)

    return {
        "dse.cache_hit_ratio": ratio(
            sum(u["cache_hits"] for u in traced),
            sum(u["cache_hits"] + u["evaluations"] for u in traced),
        ),
        "core.evaluator.feasible_ratio": ratio(
            total("eval.feasible"), total("eval.evaluations")
        ),
        "core.guard.fallbacks": total("eval.guard.fallbacks"),
        "core.analysis.transitions": total("analysis.transitions"),
        "core.analysis.transitions_pruned": total("analysis.prune.skipped"),
        "core.fastpath.hit_ratio": ratio(
            total("analysis.cache.hits"),
            total("analysis.cache.hits") + total("analysis.cache.misses"),
        ),
    }
