"""The repository benchmark: three workloads, one command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dse-dtlarge --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see ``rationale.json`` for why each was chosen and which
end-to-end metric each per-layer metric should move):

* ``dse-dtlarge`` — GA exploration of DT-large (the paper's main flow);
* ``mc-cruise``   — WC-Sim Monte-Carlo campaigns on the Table-2 mappings;
* ``serve-mixed`` — open-loop analyze/simulate traffic against
  ``repro serve``.

With ``--trace 0`` the program runs untouched and the result carries the
end-to-end metrics.  With ``--trace 1`` the run measures the same work
twice, untraced and then traced (spans around each layer's entry points,
see ``layers.py``), and the result carries the per-layer metrics plus the
tracing overhead.  Output checks run after the timed window; any failure
makes the result ``"correct": false`` and the exit code non-zero.

The last stdout line is the result object; the line before it is the
full report (``REPORT {...}``), also written to ``.perfbench/``.
"""

import argparse
import importlib
import json
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    WORK_COUNTERS,
    BenchError,
    emit,
    measure_setup,
    median,
    metric,
    ratio,
    require_source,
    stamp,
    work_dir,
)

WORKLOADS = {
    "dse-dtlarge": "wl_dse",
    "mc-cruise": "wl_mc",
    "serve-mixed": "wl_serve",
}

#: Layers whose wrapper spans report ``<layer>.calls``.
CALL_LAYERS = (
    "dse.repair", "core.evaluator", "hardening.harden", "core.analysis",
    "sched.with_bounds", "sched.fast", "sched.wcrt", "sched.unroll",
    "sim.run",
)

#: Layers reporting ``<layer>.self_s``.
SELF_LAYERS = (
    "dse.repair", "dse.operators", "dse.spea2", "dse.decode", "dse.loop",
    "core.guard", "core.evaluator", "core.analysis", "core.fastpath",
    "core.power", "hardening.harden", "reliability.check",
    "sched.with_bounds", "sched.fingerprint", "sched.fast", "sched.wcrt",
    "sched.unroll", "sim.run", "sim.faults", "sim.campaign", "api", "serve",
)

#: Workload-specific per-layer metrics: ``name -> unit``.
EXTRA_METRICS = {
    "dse.cache_hit_ratio": "ratio",
    "core.evaluator.feasible_ratio": "ratio",
    "core.guard.fallbacks": "count",
    "core.analysis.transitions": "count",
    "core.analysis.transitions_pruned": "count",
    "core.fastpath.hit_ratio": "ratio",
    "core.fastpath.shared_hit_ratio": "ratio",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.critical_ratio": "ratio",
    "serve.analyze_p50_ms": "ms",
    "serve.analyze_p90_ms": "ms",
    "serve.simulate_p50_ms": "ms",
    "serve.simulate_p80_ms": "ms",
    "serve.queue_s": "s",
    "serve.work_s": "s",
    "serve.dedup_hits": "count",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.http_overhead_ms": "ms",
    "bench.generator.late_max_ms": "ms",
}

def layer_metrics(out: dict) -> Dict[str, dict]:
    """Every per-layer metric of a traced run (0 where a layer is idle)."""
    import layers

    trace = out["trace"]
    totals = layers.layer_totals(trace["profile"])
    idle = {"calls": 0, "self_s": 0.0}
    result: Dict[str, dict] = {}
    for name in CALL_LAYERS:
        result[f"{name}.calls"] = metric(totals.get(name, idle)["calls"], "count")
    for name in SELF_LAYERS:
        result[f"{name}.self_s"] = metric(
            totals.get(name, idle)["self_s"], "s"
        )
    extra = dict(trace["extra"])
    events = extra.get("sim.events", 0)
    extra["sim.host_us_per_event"] = ratio(
        totals.get("sim.run", idle)["self_s"] * 1e6, events
    )
    for name, unit in EXTRA_METRICS.items():
        result[name] = metric(extra.get(name, 0), unit)
    for name in WORK_COUNTERS:
        result[f"count.{name}"] = metric(out["counters"].get(name, 0), "count")
    self_sum = sum(entry["self_s"] for entry in totals.values())
    result["bench.trace_overhead"] = metric(trace["overhead"], "ratio")
    result["bench.traced_wall_s"] = metric(trace["wall_s"], "s")
    result["bench.self_sum_s"] = metric(self_sum, "s")
    result["bench.unattributed_share"] = metric(
        1.0 - ratio(self_sum, trace["wall_s"]), "ratio"
    )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the report (result object inside)."""
    require_source()
    module = importlib.import_module(WORKLOADS[name])
    started = time.perf_counter()
    setup_samples = measure_setup(name) if not trace else []
    probes_s = time.perf_counter() - started
    out = module.run(seed, seconds, trace)
    problems: List[str] = list(out["problems"])
    if trace:
        metrics = layer_metrics(out)
        if metrics["bench.self_sum_s"]["value"] > out["trace"]["wall_s"]:
            problems.append("layer self times exceed the traced wall time")
    else:
        # Two fresh probes plus the run's own set-up.
        setup_samples.append(out["setup_s"])
        metrics = dict(out["e2e"])
        metrics["setup_s"] = metric(median(setup_samples), "s")
    result = {
        "correct": not problems,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    named = dict(out["named"])
    named["setup_s"] = metrics.get("setup_s")
    named["peak_rss_mb"] = out["e2e"]["peak_rss_mb"]
    return {
        "stamp": stamp(name, seed, seconds, trace),
        "units": out["units"],
        "setup_samples_s": setup_samples,
        "named": named,
        "counters": out["counters"],
        "speed_factor": out["speed_factor"],
        "phase_s": {
            "setup_probes": probes_s,
            "checks": out["check_s"],
            "total": time.perf_counter() - started,
        },
        "tracing_overhead": out.get("trace", {}).get("overhead"),
        "problems": problems,
        "result": result,
    }


def _save(report: dict) -> None:
    s = report["stamp"]
    path = work_dir() / (
        f"report-{s['workload']}-seed{s['seed']}-trace{int(s['trace'])}.json"
    )
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own interpreter, then one table by name.

    Separate processes keep each workload's peak RSS its own.
    """
    named, correct = {}, True
    for name in sorted(WORKLOADS):
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(completed.stderr)
        reports = [line for line in completed.stdout.splitlines()
                   if line.startswith("REPORT ")]
        if completed.returncode == 2 or not reports:
            return 2
        report = json.loads(reports[-1][len("REPORT "):])
        correct = correct and report["result"]["correct"]
        named[name] = report["named"]
        for key, value in sorted(report["named"].items()):
            print(f"{name:>12}  {key:<28} {value['value']:.4f} {value['unit']}")
    emit({"correct": correct, "named": named})
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    _save(report)
    for problem in report["problems"]:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print("REPORT " + json.dumps(report, sort_keys=True, default=str))
    emit(report["result"])
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
