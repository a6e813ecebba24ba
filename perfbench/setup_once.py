"""One timed set-up of a workload, in a fresh process.

    python3 perfbench/setup_once.py <workload>

Imports radnorm, builds and writes the workload's inputs and makes one
warm-up call, then prints the seconds all of that took.  run.py runs it
several times and reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)
import workloads  # noqa: E402


def main(workload: str) -> int:
    os.chdir(run.ROOT)
    cli = run.import_radnorm()
    workloads.write_inputs(workload)
    warm = run.run_op(cli, workloads.warmup_op(workload))
    if warm.rc != 0:
        run.fail(f"warm-up call failed with {warm.rc}: {warm.stderr}")
    print(time.perf_counter() - T0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
