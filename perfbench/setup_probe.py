"""One set-up measurement in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload>`` imports the program,
builds the workload's inputs (for ``serve-mixed`` also the design pool
and a server answering ``/healthz``), prints the elapsed seconds as its
last line and tears down what it started.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

from common import require_source  # noqa: E402


def main(workload: str) -> None:
    require_source()
    if workload == "dse-dtlarge":
        import wl_dse

        wl_dse.setup()
    elif workload == "mc-cruise":
        import wl_mc

        wl_mc.setup()
    elif workload == "serve-mixed":
        import wl_serve

        wl_serve.build_pool(wl_serve.CORPUS_SEED)
        server = wl_serve.Server.start(traced=False)
        try:
            elapsed = time.perf_counter() - STARTED
        finally:
            server.stop()
        print(elapsed)
        return
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(time.perf_counter() - STARTED)


if __name__ == "__main__":
    main(sys.argv[1])
