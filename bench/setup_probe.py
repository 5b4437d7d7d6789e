"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is everything a run does before its first timed operation: importing
numpy, scipy and qpklab, starting BLAS, and building the workload's objects.
Prints the raw set-up seconds, then the median of three runs of the clock's
calibration kernel made right after it. `run.py` starts this script several
times, scales each set-up to the reference speed and reports the median as
`setup_s`.

    python3 bench/setup_probe.py <workload>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    workloads.setup(workloads.WORKLOADS[sys.argv[1]])
    setup_s = perf_counter() - T0
    import clock

    calibrations = []
    for _ in range(3):
        start = perf_counter()
        clock.calibration_kernel()
        calibrations.append(perf_counter() - start)
    print(setup_s, sorted(calibrations)[1])


if __name__ == "__main__":
    main()
