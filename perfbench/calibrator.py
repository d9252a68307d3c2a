"""Sample machine speed while another process is being measured.

``python3 perfbench/calibrator.py SECONDS`` runs the calibration kernel
of :func:`common.calibrate` about every quarter second for ``SECONDS``
and prints the samples as one JSON list.  The serving workload runs it
beside the load generator, on the core the GIL-bound server leaves free.
"""

import json
import sys
import time

from common import calibrate

PAUSE_S = 0.2


def main(seconds: float) -> None:
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        samples.append(calibrate())
        time.sleep(PAUSE_S)
    print(json.dumps(samples))


if __name__ == "__main__":
    main(float(sys.argv[1]))
