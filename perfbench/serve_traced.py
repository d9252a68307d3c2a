"""``repro serve`` with the benchmark's layer spans, for the traced run.

Usage: ``python3 perfbench/serve_traced.py DUMP serve [serve options]``.

The entry-point wrappers of ``layers.py`` are installed before the
server starts but record nothing until ``SIGUSR1``; ``SIGUSR2`` stops
recording and writes the per-span calls and self times to ``DUMP``, so
the traced window excludes start-up and warm-up traffic.
"""

import signal
import sys

from common import require_source


def main(argv) -> int:
    require_source()
    import layers
    from repro.cli import main as repro_main

    dump = argv[0]
    layers.install()
    profile = layers.LayerProfile()

    def _start(_signum, _frame):
        layers.start(profile)

    def _stop(_signum, _frame):
        layers.stop(profile)
        profile.dump(dump)

    signal.signal(signal.SIGUSR1, _start)
    signal.signal(signal.SIGUSR2, _stop)
    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
