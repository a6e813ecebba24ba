"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs one round of each named workload (all by default) at the reference
seed and writes every operation's CLI JSON to perfbench/reference/.
Re-record only when a change to the program is meant to change its output,
and say so where the change is described.
"""

import json
import os
import sys

import run  # pins the BLAS threads before numpy is imported
import workloads


def main(argv) -> int:
    os.chdir(run.ROOT)
    cli = run.import_radnorm()
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        workloads.write_inputs(workload)
        outputs = {}
        for op in workloads.ops(workload, run.REFERENCE_SEED):
            res = run.run_op(cli, op)
            if res.rc != 0:
                run.fail(f"{op.name} exited with {res.rc}: {res.stderr}")
            outputs[op.name] = json.loads(res.stdout)
        path = os.path.join(run.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"seed": run.REFERENCE_SEED, "outputs": outputs}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
