"""Print the cold set-up time of one workload and the probe's speed there.

Usage: python3 perfbench/probe_setup.py WORKLOAD SEED SIZE

Prints two numbers: the seconds from just before `import curv` (through the
workload module, which imports it) to built inputs, i.e. until the first
operation could run; then the median time of the calibration probe taken
right afterwards in the same process, which calibrates the first number.
"""
import statistics
import sys
import time


def main() -> None:
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed, size)
    elapsed = time.perf_counter() - t0
    import calibrate

    calibrate.probe()  # the first call pays for lazy set-up in scipy
    samples = []
    for _ in range(9):
        t = time.perf_counter()
        calibrate.probe()
        samples.append(time.perf_counter() - t)
    print(f"{elapsed:.9f} {statistics.median(samples):.9f}")


if __name__ == "__main__":
    main()
