"""Tests of the benchmark itself: determinism, output shape, failure mode.

Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py -q

The runs are short (``--seconds 1``); traced runs skip the set-up probes
and the untraced percentile floors, so each takes seconds, not minutes.
"""

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, require_source

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _parse(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert lines[-2].startswith("REPORT ")
    return json.loads(lines[-2][len("REPORT "):]), json.loads(lines[-1])


def _traced(workload, seed="7"):
    return _parse(_run(
        "--workload", workload, "--seed", seed, "--seconds", "1",
        "--trace", "1",
    ))


@pytest.mark.parametrize("workload", ["dse-dtlarge", "mc-cruise"])
def test_work_counters_repeat_exactly_for_one_seed(workload):
    first, _ = _traced(workload)
    second, _ = _traced(workload)
    assert first["counters"] == second["counters"]
    work = "dse.evaluations" if workload == "dse-dtlarge" else "sim.runs"
    assert first["counters"][work] > 0
    other, _ = _traced(workload, seed="8")
    assert other["counters"] != first["counters"]


@pytest.mark.parametrize("workload", ["dse-dtlarge", "mc-cruise", "serve-mixed"])
def test_traced_run_reports_every_layer_metric(workload):
    report, result = _traced(workload)
    assert result["correct"], report["problems"]
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name], name
    metrics = result["metrics"]
    assert metrics["bench.self_sum_s"]["value"] <= (
        metrics["bench.traced_wall_s"]["value"]
    )
    assert report["tracing_overhead"] is not None


def test_untraced_run_reports_every_end_to_end_metric():
    report, result = _parse(_run(
        "--workload", "mc-cruise", "--seed", "7", "--seconds", "1",
        "--trace", "0",
    ))
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    stamp = report["stamp"]
    for key in ("git_sha", "python", "numpy", "nproc", "seed",
                "run_seconds"):
        assert key in stamp


def test_serving_inputs_depend_only_on_the_seed():
    require_source()
    import wl_serve

    pool = wl_serve.build_pool(5)
    assert pool == wl_serve.build_pool(5)
    seconds = CONTRACT["run_seconds"]
    schedule = wl_serve.build_schedule(5, pool, seconds)
    assert schedule == wl_serve.build_schedule(5, pool, seconds)
    assert schedule != wl_serve.build_schedule(6, pool, seconds)
    # The percentile floors: ten samples beyond analyze p90, simulate p80.
    kinds = [item["kind"] for item in schedule]
    assert kinds.count("analyze") >= 100 and kinds.count("simulate") >= 50


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "mc-cruise", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
