"""Per-layer attribution from outside the program.

The traced run wraps each layer's public entry points with spans and
records them, together with the spans the program already opens, into an
in-memory sink on the program's own tracer (:mod:`repro.obs.trace`).
Nothing in ``src/`` changes: the wrappers are installed by rebinding
names at run time and removed afterwards.

A wrapper must replace a name *where the caller looks it up*: the
analysis imports ``unroll`` into its own namespace, so patching
``repro.sched.jobs.unroll`` alone would silently count zero.  Every entry
below therefore names the module the calling code reads the name from,
and :func:`check_expected` fails a traced run in which a span that
should fire on a workload never did.

Self time is a span's duration minus the durations of its direct
children, so summing self time over every span never counts an
interval twice.
"""

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import BenchError, Speedometer

#: ``(module, attribute, span)``: wrap ``module.attribute`` (a function or
#: ``Class.method``) in a span called ``span``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # repro.dse — the GA loop's operators, bound in repro.dse.ga
    ("repro.dse.ga", "repair", "dse.repair"),
    ("repro.dse.ga", "crossover", "dse.operators"),
    ("repro.dse.ga", "mutate", "dse.operators"),
    ("repro.dse.spea2", "Spea2Selector.select", "dse.spea2"),
    ("repro.dse.spea2", "Spea2Selector.fitness", "dse.spea2"),
    ("repro.dse.chromosome", "Chromosome.decode", "dse.decode"),
    # repro.core — evaluator, guard, Algorithm 1, fast path, power
    ("repro.core.guard", "GuardedEvaluator.evaluate", "core.guard"),
    ("repro.core.evaluator", "Evaluator.evaluate", "core.evaluator"),
    ("repro.core.analysis", "MixedCriticalityAnalysis.analyze",
     "core.analysis"),
    ("repro.core.fastpath", "ScheduleCache.get", "core.fastpath"),
    ("repro.core.power", "PowerModel.expected_power", "core.power"),
    # repro.hardening / repro.reliability, bound by their callers
    ("repro.core.evaluator", "harden", "hardening.harden"),
    ("repro.api", "harden", "hardening.harden"),
    ("repro.core.evaluator", "check_reliability", "reliability.check"),
    # repro.sched — unrolling (bound by analysis and simulator), job-set
    # clones and digests, and the two window back-ends
    ("repro.core.analysis", "unroll", "sched.unroll"),
    ("repro.sim.engine", "unroll", "sched.unroll"),
    ("repro.sched.jobs", "JobSet.with_bounds", "sched.with_bounds"),
    ("repro.sched.jobs", "JobSet.fingerprint", "sched.fingerprint"),
    ("repro.sched.fast", "FastWindowAnalysisBackend.analyze", "sched.fast"),
    ("repro.sched.wcrt", "WindowAnalysisBackend.analyze", "sched.wcrt"),
    # repro.sim — one simulated run and fault-profile generation
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.sim.montecarlo", "random_profile", "sim.faults"),
)

#: Spans the program opens itself, folded into the layer that owns them.
PROGRAM_SPANS: Dict[str, str] = {
    "api.explore": "dse.loop",
    "dse.run": "dse.loop",
    "ga.generation": "dse.loop",
    "ga.evaluate_batch": "dse.loop",
    "eval.guarded": "core.guard",
    "analysis.run": "core.analysis",
    "analysis.normal": "core.analysis",
    "analysis.transition": "core.analysis",
    "sched.fast.fixed_point": "sched.fast",
    "sim.campaign": "sim.campaign",
    "api.analyze": "api",
    "api.simulate": "api",
    "serve.request": "serve",
    "serve.batch": "serve",
    "serve.pool_work": "serve",
}

#: Wrapper spans each workload must fire in its traced run.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "dse-dtlarge": (
        "dse.repair", "dse.operators", "dse.spea2", "dse.decode",
        "core.guard", "core.evaluator", "core.analysis", "core.fastpath",
        "core.power", "hardening.harden", "reliability.check",
        "sched.unroll", "sched.with_bounds", "sched.fingerprint",
        "sched.fast",
    ),
    "mc-cruise": ("sim.run", "sim.faults", "sched.unroll"),
    "serve-mixed": (
        "core.analysis", "core.fastpath", "hardening.harden",
        "sched.unroll", "sched.with_bounds", "sched.fingerprint",
        "sched.wcrt", "sim.run", "sim.faults",
    ),
}

#: Wrapper spans a workload must *not* fire: the layers it bypasses.
FORBIDDEN: Dict[str, Tuple[str, ...]] = {
    "dse-dtlarge": ("sim.run", "sched.wcrt"),
    "mc-cruise": (
        "dse.repair", "core.evaluator", "core.analysis", "sched.fast",
        "sched.wcrt", "sched.with_bounds",
    ),
    "serve-mixed": ("dse.repair", "core.evaluator", "sched.fast"),
}


def layer_of(span_name: str) -> str:
    return PROGRAM_SPANS.get(span_name, span_name)


class LayerProfile:
    """Span sink aggregating calls and self time per span name.

    A span's children are the spans that name it as parent *and* the
    spans that ran nested inside it on the same thread.  The two differ
    only where the program re-roots work onto another thread's trace
    (the serving pool runs a request's analysis under the request span):
    the request span then excludes the computation it waited for, and
    the pool's own spans exclude the computation they wrapped.  Children
    finish before their parents, so only live spans are held.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._logical: Dict[str, Dict[str, int]] = {}
        self._nested: Dict[str, List[Tuple[int, str, int]]] = {}
        self.calls: Dict[str, int] = {}
        self.self_us: Dict[str, int] = {}

    def __call__(self, record: dict) -> None:
        duration = record["duration_us"]
        start_us = record["start_us"]
        span_id = record["span_id"]
        name = record["span"]
        with self._lock:
            children = self._logical.pop(span_id, {})
            finished = self._nested.setdefault(record["thread"], [])
            while finished and finished[-1][0] >= start_us:
                _start, child_id, child_us = finished.pop()
                children[child_id] = child_us
            finished.append((start_us, span_id, duration))
            parent = record["parent_id"]
            if parent is not None:
                self._logical.setdefault(parent, {})[span_id] = duration
            own = duration - sum(children.values())
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_us[name] = self.self_us.get(name, 0) + max(own, 0)

    def to_dict(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "self_us": dict(self.self_us)}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)


def layer_totals(profile: dict) -> Dict[str, dict]:
    """``{layer: {"calls": n, "self_s": s}}`` from :meth:`to_dict` data.

    ``calls`` counts the benchmark's wrapper span of that name (program
    spans folded into a layer add self time, not calls).
    """
    totals: Dict[str, dict] = {}
    for name, self_us in profile["self_us"].items():
        entry = totals.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0})
        entry["self_s"] += self_us / 1e6
    for name, calls in profile["calls"].items():
        if name not in PROGRAM_SPANS:
            totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            totals[name]["calls"] += calls
    return totals


def check_expected(workload: str, profile: dict) -> List[str]:
    """Problems with the traced run's span coverage (empty when sound)."""
    calls = profile["calls"]
    problems = [
        f"expected span {name!r} never fired on {workload}"
        for name in EXPECTED[workload]
        if not calls.get(name)
    ]
    problems.extend(
        f"span {name!r} fired on {workload}, which bypasses it"
        for name in FORBIDDEN[workload]
        if calls.get(name)
    )
    return problems


def _traced(fn, name: str):
    from repro.obs.trace import span

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return traced


def install():
    """Rebind every entry point to its traced wrapper.

    Returns the ``(owner, attribute, original)`` triples :func:`uninstall`
    restores.  Wrappers are inert until the program's tracer is enabled.
    """
    saved = []
    for module_name, attribute, span_name in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__.get(leaf) if isinstance(owner, type) else (
            getattr(owner, leaf)
        )
        if original is None:
            raise BenchError(f"{module_name}.{attribute} does not exist")
        setattr(owner, leaf, _traced(original, span_name))
        saved.append((owner, leaf, original))
    return saved


def uninstall(saved) -> None:
    for owner, leaf, original in reversed(saved):
        setattr(owner, leaf, original)


def start(profile: LayerProfile) -> None:
    """Route the program's spans into ``profile``."""
    from repro.obs.trace import tracer

    tracer().enable(profile)


def stop(profile: LayerProfile) -> None:
    from repro.obs.trace import tracer

    tracer().disable()
    tracer().remove_sink(profile)


def drive(
    run_unit: Callable[[object, Optional[Speedometer]], dict],
    unit_input: Callable[[int], object],
    seconds: float,
    trace: bool,
    speed: Speedometer,
    min_units: int = 1,
) -> Tuple[List[dict], List[dict], Optional[LayerProfile]]:
    """Run work units for ``seconds``; returns ``(plain, traced, profile)``.

    At least ``min_units`` units run, so percentiles always have enough
    samples even on a slow machine.

    Untraced, units run back to back on the untouched program, with
    ``speed`` calibrating the machine between them; ``run_unit`` also
    receives ``speed`` to calibrate inside a long unit, and ``None`` on
    traced runs, whose spans must hold program time only.  Traced,
    each input runs twice in a row, first untraced and then with the
    wrappers installed and spans recorded, so machine drift hits both
    sides alike and their ratio is the tracing overhead.
    """
    plain: List[dict] = []
    traced: List[dict] = []
    profile = LayerProfile() if trace else None
    started = time.perf_counter()
    while len(plain) < min_units or time.perf_counter() - started < seconds:
        item = unit_input(len(plain))
        plain.append(run_unit(item, speed))
        speed.record(plain[-1])
        if profile is not None:
            saved = install()
            start(profile)
            try:
                traced.append(run_unit(item, None))
            finally:
                stop(profile)
                uninstall(saved)
    speed.flush()
    return plain, traced, profile


def trace_summary(
    plain: List[dict], traced: List[dict], profile: LayerProfile
) -> dict:
    """Wall time, overhead and span data of the traced half of a run."""
    traced_wall = sum(u["wall_s"] for u in traced)
    return {
        "profile": profile.to_dict(),
        "wall_s": traced_wall,
        "overhead": traced_wall / sum(u["wall_s"] for u in plain) - 1.0,
    }
