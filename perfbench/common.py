"""Shared plumbing of the benchmark: paths, statistics, machine speed,
resources, set-up timing and report stamps.

Nothing here imports ``repro``: the runner must be able to fail cleanly
(non-zero exit, no result line) in a directory that holds only the
benchmark, and the setup probes time the program's imports themselves.
"""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The benchmark directory and the checkout root it lives in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for run artefacts (server logs, span dumps); ignored by git.
WORK_DIR = ROOT / ".perfbench"


#: Work counters every report carries, from the program's metrics
#: registry: the first unit's for the in-process workloads (they repeat
#: exactly per seed), the server's window deltas for serve-mixed.
WORK_COUNTERS = (
    "sched.invocations", "analysis.cache.hits", "analysis.cache.misses",
    "dse.evaluations", "eval.feasible", "sim.runs", "sim.events_processed",
)


class BenchError(Exception):
    """The benchmark cannot run or an output check failed."""


def require_source() -> None:
    """Put ``src/`` on the import path, or fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program source not found under {SRC}; run from the root of "
            "a checkout that contains src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty sample."""
    return sorted(values)[_rank(q, len(values))]


def _rank(q: float, count: int) -> int:
    # The epsilon keeps 0.9 * 100 from rounding up to rank 91.
    return max(0, math.ceil(q * count - 1e-9) - 1)


def tail_percentile(
    values: Sequence[float], floor: float = 0.9, strict: bool = True
) -> float:
    """The ``floor`` percentile, refusing samples too small to support it.

    A percentile is only reported when at least ten samples lie beyond it;
    a run too short for that is a sizing error, not a measurement.  The
    traced run halves its timed window and reports no end-to-end
    metrics, so it passes ``strict=False``.
    """
    beyond = len(values) - 1 - _rank(floor, len(values))
    if strict and beyond < 10:
        raise BenchError(
            f"p{int(floor * 100)} needs >= 10 samples beyond it; "
            f"only {len(values)} samples"
        )
    return percentile(values, floor)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- machine speed -----------------------------------------------------------

#: Seconds :func:`calibrate` takes on the reference machine (2-core x86
#: container, CPython 3.11); the scale of every normalized time.
CALIBRATION_NOMINAL_S = 0.030


def calibrate() -> float:
    """Seconds one fixed interpreter kernel takes right now.

    The kernel mixes what the program spends its time on — dict and list
    churn, float arithmetic, sorting, small tuples — and touches no
    program code, so its duration tracks the machine's current speed
    (neighbours on shared hardware, frequency changes) and nothing else.
    """
    started = time.perf_counter()
    total = 0.0
    for rep in range(40):
        table: Dict[int, float] = {}
        for i in range(2000):
            key = (i * 7919 + rep) % 1009
            table[key] = table.get(key, 0.0) + (i % 97) * 0.5
        values = sorted(table.values())
        total += sum(v * 1.0001 for v in values)
        pairs = [(i, str(i)) for i in range(500)]
        total += len({label: pair for pair in pairs for label in pair[1:]})
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - started


class Speedometer:
    """Calibration samples interleaved with measured work.

    After at least ``interval_s`` of recorded work one calibration runs
    (outside the work's own timing) and marks every unit recorded since.
    :meth:`local` is the speed factor around a mark — calibration time
    over reference time, averaged over the ``SMOOTHING`` samples on each
    side, so 1.2 means the machine was 20% slow then; latency samples are
    divided by it.  Throughput is scaled by the run's mean factor
    (:meth:`factor`), which tracks the window's average speed best.
    """

    SMOOTHING = 2

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._pending: List[dict] = []
        self._pending_s = 0.0

    def sample(self) -> int:
        """Calibrate now; returns the sample's mark for :meth:`local`."""
        self.samples.append(calibrate())
        return len(self.samples) - 1

    def record(self, unit: dict) -> None:
        """Queue a unit (with ``wall_s``) for the next calibration."""
        self._pending.append(unit)
        self._pending_s += unit["wall_s"]
        if self._pending_s >= self.interval_s:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            mark = self.sample()
            for unit in self._pending:
                unit["speed_mark"] = mark
            self._pending, self._pending_s = [], 0.0

    def local(self, mark: int) -> float:
        around = self.samples[
            max(0, mark - self.SMOOTHING):mark + self.SMOOTHING + 1
        ]
        return statistics.mean(around) / CALIBRATION_NOMINAL_S

    def factor(self) -> float:
        if not self.samples:
            self.sample()
        return statistics.mean(self.samples) / CALIBRATION_NOMINAL_S


# -- resources ------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- set-up time -------------------------------------------------------------


def timed_setup(build):
    """``(build(), seconds)`` with the seconds at reference machine speed."""
    before = calibrate()
    started = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - started
    factor = (before + calibrate()) / (2 * CALIBRATION_NOMINAL_S)
    return result, elapsed / factor


def measure_setup(workload: str, repeats: int = 2) -> List[float]:
    """Set-up seconds of ``workload`` in ``repeats`` fresh interpreters.

    Each probe imports the program, builds the workload's inputs (and,
    for the serving workload, starts a server until ``/healthz``
    answers), reports its own elapsed time and tears everything down.
    Each sample is divided by the machine-speed factor calibrated just
    before and after its probe.
    """
    samples = []
    for _ in range(repeats):
        before = calibrate()
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise BenchError(
                f"setup probe for {workload} failed:\n{completed.stderr}"
            )
        factor = (before + calibrate()) / (2 * CALIBRATION_NOMINAL_S)
        samples.append(
            float(completed.stdout.strip().splitlines()[-1]) / factor
        )
    return samples


# -- report stamping --------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Provenance of one report: code version, environment, run shape."""
    import numpy

    # Only this checkout's own history counts, not an enclosing repository.
    own = _git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = _git("rev-parse", "HEAD") if own else None
    dirty = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(dirty) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(result: dict) -> None:
    """Print the result object as the last stdout line."""
    print(json.dumps(result, sort_keys=True), flush=True)
