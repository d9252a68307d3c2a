"""Workload ``serve-mixed``: open-loop traffic against ``repro serve``.

One process drives a ``repro serve`` subprocess (``WORKERS`` worker
threads) over ``CONNECTIONS`` keep-alive connections.  Requests are due
at a fixed rate; each is timed from its due time, so a stalled server
also delays the requests queued behind it, and the generator's lateness
is reported.

The traffic runs over a fixed corpus of repaired random designs from
all five suites (see :func:`build_schedule` for how the seed enters):

* ``analyze`` — job granularity, default window back-end.  Before the
  window every hot design is analyzed once, so the process-wide schedule
  cache serves them as hits; one cold design per suite is first seen
  inside the window and misses;
* ``simulate`` — a small Monte-Carlo campaign on a hot design with a
  fresh seed, so neither dedup nor any cache can absorb it.

Latencies are divided by the machine-speed factor a calibrator
subprocess samples beside the load (see ``common.calibrate``).

Output check: every distinct analyze body must be byte-identical to the
canonical bytes of a direct ``repro.api.analyze`` call on the same input.
"""

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    WORK_COUNTERS,
    BENCH_DIR,
    CALIBRATION_NOMINAL_S,
    ROOT,
    BenchError,
    child_env,
    median,
    metric,
    percentile,
    process_peak_rss_mb,
    ratio,
    tail_percentile,
    timed_setup,
    work_dir,
)

WORKERS = 2
CONNECTIONS = 2
RATE_PER_S = 8.0
SIMULATE_SHARE = 1 / 4
SIMULATE_PROFILES = 8
#: Per suite: ``HOT_PER_SUITE`` designs the server has seen before the
#: window (warmed), then one it first sees inside the window.
HOT_PER_SUITE = 4
DESIGNS_PER_SUITE = HOT_PER_SUITE + 1
ZIPF_EXPONENT = 1.1
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0

SUITES = ("cruise", "dt-med", "dt-large", "synth-1", "synth-2")

#: Seed of the design corpus.  The corpus is the population of designs
#: the service's users hold, the same on every run; the benchmark seed
#: drives the traffic over it.  A per-seed corpus makes the analyze cost
#: mix, and with it every percentile, swing by tens of percent between
#: seeds.
CORPUS_SEED = 2014



# -- inputs ---------------------------------------------------------------


def build_pool(seed: int) -> List[dict]:
    """Repaired random designs of every suite, as request fields."""
    from repro.api import load
    from repro.core.problem import Problem
    from repro.dse.chromosome import random_chromosome
    from repro.dse.repair import repair
    from repro.model.serialization import SystemBundle
    from repro.serve.encoding import bundle_to_payload

    rng = random.Random(seed)
    pool = []
    for suite in SUITES:
        bundle = load(suite)
        problem = Problem(bundle.applications, bundle.architecture)
        for rank in range(DESIGNS_PER_SUITE):
            design = repair(random_chromosome(problem, rng), problem, rng)
            point = design.decode(problem)
            system = bundle_to_payload(SystemBundle(
                bundle.applications, bundle.architecture,
                point.mapping, point.plan,
            ))
            pool.append({
                "suite": suite,
                "cold": rank >= HOT_PER_SUITE,
                "system": system,
                "dropped": sorted(point.dropped),
            })
    return pool


def build_schedule(seed: int, pool: List[dict], seconds: float) -> List[dict]:
    """Due offsets, kinds and designs of every request of one window.

    The window's request multiset is fixed by the corpus: every suite
    draws the same share of analyze traffic, split over its hot designs
    in Zipf proportions (exponent ``ZIPF_EXPONENT``, corpus order), and
    simulate traffic is spread evenly over the hot designs.  The seed
    orders the requests, places the cold designs' first sightings and
    draws the simulate seeds.  Drawing the counts at random instead
    moves the analyze median between suites' cost levels from seed to
    seed.
    """
    rng = random.Random(seed)
    hot = [i for i, d in enumerate(pool) if not d["cold"]]
    cold = [i for i, d in enumerate(pool) if d["cold"]]
    count = int(seconds * RATE_PER_S)
    simulates = round(count * SIMULATE_SHARE)
    analyzes = _apportion(
        _zipf_shares(pool, hot), count - simulates - len(cold)
    ) + cold
    rng.shuffle(analyzes)
    simulated = _apportion({i: 1.0 for i in hot}, simulates)
    rng.shuffle(simulated)
    kinds = ["simulate"] * simulates + ["analyze"] * len(analyzes)
    rng.shuffle(kinds)
    schedule = []
    for index, kind in enumerate(kinds):
        item = {"due": index / RATE_PER_S, "kind": kind}
        if kind == "simulate":
            item["design"] = simulated.pop()
            item["seed"] = rng.getrandbits(31)
        else:
            item["design"] = analyzes.pop()
        schedule.append(item)
    return schedule


def _zipf_shares(pool: List[dict], hot: List[int]) -> Dict[int, float]:
    """Equal share per suite, Zipf over each suite's hot designs."""
    shares = {}
    for suite in SUITES:
        members = [i for i in hot if pool[i]["suite"] == suite]
        scale = sum(r ** -ZIPF_EXPONENT for r in range(1, len(members) + 1))
        for rank, index in enumerate(members, start=1):
            shares[index] = rank ** -ZIPF_EXPONENT / scale
    return shares


def _apportion(shares: Dict[int, float], total: int) -> List[int]:
    """``total`` picks split by ``shares`` (largest remainder)."""
    scale = total / sum(shares.values())
    exact = {key: share * scale for key, share in shares.items()}
    counts = {key: int(value) for key, value in exact.items()}
    by_remainder = sorted(exact, key=lambda k: (counts[k] - exact[k], k))
    for key in by_remainder[:total - sum(counts.values())]:
        counts[key] += 1
    return [key for key in sorted(counts) for _ in range(counts[key])]


def _encoder(pool: List[dict]):
    """Request bodies, with each design's system JSON encoded once."""
    systems = [json.dumps(d["system"], sort_keys=True) for d in pool]

    def body(item: dict) -> bytes:
        design = pool[item["design"]]
        fields = {"dropped": design["dropped"]}
        if item["kind"] == "simulate":
            fields.update(profiles=SIMULATE_PROFILES, seed=item["seed"])
        head = json.dumps(fields, sort_keys=True)[:-1]
        return (head + ', "system": ' + systems[item["design"]] + "}").encode()

    return body


# -- the server -------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a free local port."""

    def __init__(self, process: subprocess.Popen, url: str, log: Path,
                 dump: Optional[Path]):
        self.process = process
        self.url = url
        self.log = log
        self.dump = dump

    @classmethod
    def start(cls, traced: bool) -> "Server":
        directory = work_dir()
        stamp = f"{time.time_ns()}"
        log = directory / f"serve-{stamp}.log"
        argv = ["serve", "--port", "0", "--workers", str(WORKERS)]
        dump = None
        if traced:
            dump = directory / f"spans-{stamp}.json"
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       str(dump), *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        with open(log, "w") as handle:
            process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=handle,
                stderr=subprocess.STDOUT,
            )
        server = cls(process, "", log, dump)
        try:
            server.url = server._await_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def _await_ready(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited early:\n{self.log.read_text()}"
                )
            if url is None:
                for line in self.log.read_text().splitlines():
                    if line.startswith("serving on "):
                        url = line.split()[-1]
            if url is not None:
                try:
                    status, _ = _get(url, "/healthz")
                    if status == 200:
                        return url
                except OSError:
                    pass
            time.sleep(0.02)
        raise BenchError("server never answered /healthz")

    def metrics(self) -> dict:
        status, body = _get(self.url, "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.log.unlink(missing_ok=True)


def _get(url: str, path: str):
    return _request(url, "GET", path, None)


def _post(url: str, path: str, payload: bytes):
    return _request(url, "POST", path, payload)


def _request(url: str, method: str, path: str, payload: Optional[bytes]):
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    connection = http.client.HTTPConnection(
        host, int(port), timeout=REQUEST_TIMEOUT_S
    )
    try:
        connection.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- the load generator ------------------------------------------------------


def run_load(url: str, schedule: List[dict], body) -> List[dict]:
    """Send every scheduled request on time (open loop); return outcomes."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    outcomes: List[Optional[dict]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        connection = None
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            item = schedule[index]
            payload = body(item)
            due = origin + item["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, reply = None, b""
            try:
                if connection is None:
                    connection = http.client.HTTPConnection(
                        host, int(port), timeout=REQUEST_TIMEOUT_S
                    )
                connection.request(
                    "POST", f"/v1/{item['kind']}", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                reply = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                if connection is not None:
                    connection.close()
                connection = None
            done = time.perf_counter()
            outcomes[index] = {
                "kind": item["kind"],
                "design": item["design"],
                "status": status,
                "latency_s": done - due,
                "late_s": max(0.0, sent - due),
                "done": done - origin,
                "body": reply if item["kind"] == "analyze" else b"",
            }
        if connection is not None:
            connection.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _delta(after: dict, before: dict, kind: str, name: str, field=None):
    def read(snapshot):
        entry = snapshot["metrics"][kind].get(name)
        if entry is None:
            return 0
        return entry if field is None else entry[field]

    return read(after) - read(before)


def _warm(server: Server, pool: List[dict], body) -> List[str]:
    """Analyze every hot design once; returns failures."""
    problems = []
    for index, design in enumerate(pool):
        if design["cold"]:
            continue
        try:
            status, _ = _post(server.url, "/v1/analyze", body(
                {"kind": "analyze", "design": index}
            ))
        except (OSError, http.client.HTTPException) as error:
            status = f"{type(error).__name__}: {error}"
        if status != 200:
            problems.append(f"warm-up analyze of design {index}: {status}")
    return problems


def _phase(server: Server, pool, schedule, body, alongside=None) -> dict:
    """Warm the server, drive one window of load at it, stop it.

    ``alongside`` (the output oracle) runs in this thread while the
    warm-up requests wait on the server, so neither adds to the other's
    wall time and neither overlaps the timed window.  A calibrator
    subprocess samples machine speed for the length of the window; the
    phase's ``speed`` factor rescales its latencies.
    """
    traced = server.dump is not None
    calibrator = None
    try:
        warm_problems: List[str] = []
        warming = threading.Thread(
            target=lambda: warm_problems.extend(_warm(server, pool, body))
        )
        warming.start()
        try:
            if alongside is not None:
                alongside()
        finally:
            warming.join()
        before = server.metrics()
        if traced:
            server.process.send_signal(signal.SIGUSR1)
            time.sleep(0.1)  # let the server's main thread start recording
        calibrator = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrator.py"),
             str(schedule[-1]["due"])],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        outcomes = run_load(server.url, schedule, body)
        samples, _ = calibrator.communicate(timeout=60)
        if traced:
            server.process.send_signal(signal.SIGUSR2)
        after = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        if calibrator is not None and calibrator.poll() is None:
            calibrator.kill()
            calibrator.wait(timeout=30)
        server.stop()
    speed = statistics.mean(json.loads(samples)) / CALIBRATION_NOMINAL_S
    profile = None
    if traced:
        if not server.dump.is_file():
            raise BenchError("traced server wrote no span dump")
        profile = json.loads(server.dump.read_text())
        server.dump.unlink()
    return {"outcomes": outcomes, "before": before, "after": after,
            "rss": rss, "profile": profile, "speed": speed,
            "problems": warm_problems}


def _summary(phase: dict) -> dict:
    """Goodput, lateness and speed-normalized latencies (ms) by kind."""
    outcomes = phase["outcomes"]
    ok = [o for o in outcomes if o["status"] == 200]
    by_kind: Dict[str, List[float]] = {"analyze": [], "simulate": []}
    for outcome in outcomes:
        # Failed requests miss every latency limit.
        latency = (
            outcome["latency_s"] * 1e3 / phase["speed"]
            if outcome["status"] == 200 else float("inf")
        )
        by_kind[outcome["kind"]].append(latency)
    span = max(o["done"] for o in outcomes) - min(
        o["done"] - o["latency_s"] for o in outcomes
    )
    return {
        "ok": len(ok),
        "failed": len(outcomes) - len(ok),
        "goodput": len(ok) / span,
        "latency": by_kind,
        "late_max_s": max(o["late_s"] for o in outcomes),
    }


def expected_bodies(pool: List[dict]) -> Dict[int, bytes]:
    """Canonical bytes of a direct ``repro.api.analyze`` per design."""
    from repro.api import analyze
    from repro.serve.encoding import (
        analysis_result_to_dict,
        bundle_from_payload,
        canonical_bytes,
    )

    return {
        index: canonical_bytes(analysis_result_to_dict(analyze(
            bundle_from_payload(design["system"]),
            dropped=tuple(design["dropped"]),
        )))
        for index, design in enumerate(pool)
    }


def check_bodies(
    pool: List[dict], phases: List[dict], expected: Dict[int, bytes]
) -> List[str]:
    """Every served analyze body against the direct call's bytes."""
    served: Dict[int, set] = {}
    for phase in phases:
        for outcome in phase["outcomes"]:
            if outcome["kind"] == "analyze" and outcome["status"] == 200:
                served.setdefault(outcome["design"], set()).add(
                    outcome["body"]
                )
    return [
        f"design {index} ({pool[index]['suite']}): served analyze bytes "
        "differ from a direct repro.api.analyze call"
        for index in sorted(served)
        if served[index] != {expected[index]}
    ]


def run(seed: int, seconds: float, trace: bool) -> dict:
    import layers

    def set_up():
        pool = build_pool(CORPUS_SEED)
        return pool, Server.start(traced=False)

    (pool, server), setup_s = timed_setup(set_up)
    body = _encoder(pool)
    window = seconds / 2 if trace else seconds
    schedule = build_schedule(seed, pool, window)
    expected: Dict[int, bytes] = {}
    plain = _phase(
        server, pool, schedule, body,
        alongside=lambda: expected.update(expected_bodies(pool)),
    )
    summary = _summary(plain)
    analyze_ms = summary["latency"]["analyze"]
    simulate_ms = summary["latency"]["simulate"]
    strict = not trace
    outcomes = plain["outcomes"]
    # Server-side counts depend on request interleaving (dedup, cache
    # fill order), so unlike the other workloads' they need not repeat.
    counters = {
        name: _delta(plain["after"], plain["before"], "counters", name)
        for name in WORK_COUNTERS
    }
    counters.update({
        "requests.analyze": len(analyze_ms),
        "requests.simulate": len(simulate_ms),
        "designs.analyzed": len({
            o["design"] for o in outcomes if o["kind"] == "analyze"
        }),
    })
    out: Dict = {
        "speed_factor": plain["speed"],
        "setup_s": setup_s,
        "attempted": len(outcomes),
        "failed": summary["failed"],
        "units": len(outcomes),
        "counters": counters,
        "named": {
            "serve_analyze_p50_ms": metric(median(analyze_ms), "ms"),
            "serve_analyze_p90_ms": metric(
                tail_percentile(analyze_ms, strict=strict), "ms"),
            "serve_simulate_p50_ms": metric(median(simulate_ms), "ms"),
            # A quarter of the traffic: p80 is the highest percentile with
            # ten samples beyond it.
            "serve_simulate_p80_ms": metric(
                tail_percentile(simulate_ms, 0.8, strict=strict), "ms"),
            "serve_goodput_per_s": metric(summary["goodput"], "1/s"),
            "bench_generator_late_max_ms": metric(
                summary["late_max_s"] * 1e3, "ms"),
        },
        "e2e": {
            "throughput_per_s": metric(summary["goodput"], "1/s"),
            "latency_p50_ms": metric(median(analyze_ms), "ms"),
            "latency_p90_ms": metric(
                tail_percentile(analyze_ms, strict=strict), "ms"),
            "peak_rss_mb": metric(plain["rss"], "MB"),
        },
    }
    phases = [plain]
    problems: List[str] = list(plain["problems"])
    if trace:
        traced = _phase(Server.start(traced=True), pool, schedule, body)
        problems.extend(traced["problems"])
        phases.append(traced)
        out["trace"] = _trace_summary(plain, traced, summary)
        problems.extend(layers.check_expected("serve-mixed", traced["profile"]))
    check_started = time.perf_counter()
    problems.extend(check_bodies(pool, phases, expected))
    out["check_s"] = time.perf_counter() - check_started
    out["problems"] = problems
    return out


def _trace_summary(plain: dict, traced: dict, summary: dict) -> dict:
    """Per-layer data of the traced window; percentiles of the plain one.

    The serving layer's numbers come from the server's ``/metrics``
    deltas over the traced window; the traced wall time is the summed
    client latency, so the unattributed share is the part of request
    time no server span covers (client and HTTP transport).
    """
    before, after = traced["before"], traced["after"]
    outcomes = traced["outcomes"]
    latency_s = sum(o["latency_s"] for o in outcomes)
    plain_latency_s = sum(o["latency_s"] for o in plain["outcomes"])
    # Each window is compared at reference speed: the two servers ran at
    # different moments.
    overhead = (latency_s / traced["speed"]) / (
        plain_latency_s / plain["speed"]
    ) - 1.0
    queue_s = _delta(after, before, "timers", "serve.queue_seconds", "total")
    work_s = _delta(after, before, "timers", "serve.work_seconds", "total")
    batches = _delta(after, before, "histograms", "serve.batch_size", "count")
    batched = _delta(after, before, "histograms", "serve.batch_size", "total")
    cache_before = before["schedule_cache"]
    cache_after = after["schedule_cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    analyze_ms = summary["latency"]["analyze"]
    simulate_ms = summary["latency"]["simulate"]
    return {
        "profile": traced["profile"],
        "wall_s": latency_s,
        "overhead": overhead,
        "extra": {
            "core.fastpath.shared_hit_ratio": ratio(hits, hits + misses),
            "core.analysis.transitions": _delta(
                after, before, "counters", "analysis.transitions"),
            "sim.events": _delta(
                after, before, "counters", "sim.events_processed"),
            "sim.critical_ratio": ratio(
                _delta(after, before, "counters", "sim.critical_transitions"),
                _delta(after, before, "counters", "sim.runs"),
            ),
            "serve.analyze_p50_ms": median(analyze_ms),
            "serve.analyze_p90_ms": percentile(analyze_ms, 0.9),
            "serve.simulate_p50_ms": median(simulate_ms),
            "serve.simulate_p80_ms": percentile(simulate_ms, 0.8),
            "serve.queue_s": queue_s,
            "serve.work_s": work_s,
            "serve.dedup_hits": _delta(
                after, before, "counters", "serve.dedup.hits"),
            "serve.batch_size_mean": ratio(batched, batches),
            "serve.rejected": _delta(after, before, "counters", "serve.rejected"),
            "serve.http_overhead_ms": ratio(
                (latency_s - queue_s - work_s) * 1e3, len(outcomes)),
            "bench.generator.late_max_ms": summary["late_max_s"] * 1e3,
        },
    }
