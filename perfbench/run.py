"""radnorm benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload profile_enum --seed 1 --seconds 25 --trace 0

Runs the workload's CLI operations through `radnorm.cli.main` in-process,
round after round while the next round fits within --seconds, then checks
every output and prints one JSON object as the last line of stdout.  Every
time is scaled to the reference host speed (hostspeed.py): each operation's
seconds are divided by the host factor measured just before and after it,
except on mc_dense, which the factor does not track (README.md).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics and the tracing overhead.
Exits 2 without a result when radnorm cannot be imported from src/ next to
this directory.  See perfbench/README.md.
"""

import os

# Pinned before numpy is imported: BLAS threads on top of --threads would
# oversubscribe the cores (see README.md, known defects).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join("perfbench", "out")
REFERENCE_DIR = os.path.join("perfbench", "reference")
REFERENCE_SEED = 1
SETUP_REPEATS = 5

#: The k-sweep row modes a profile table can report.
KSWEEP_MODES = ("exact", "enumerated", "greedy", "greedy_truncated")

END_TO_END = {"wall_s": "s", "norms_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "bounds.profile_s": "s", "bounds.ksweep_s": "s", "bounds.self_s": "s",
    "bounds.r_heuristic_calls": "count", "bounds.r_heuristic_s": "s",
    "bounds.r_exact_calls": "count", "bounds.r_exact_s": "s",
    "bounds.r_exact_certified_ratio": "ratio",
    **{f"bounds.ksweep_rows.{m}": "count" for m in KSWEEP_MODES},
    "moments.surrogate_calls": "count", "moments.surrogate_s": "s",
    "moments.water_fill_calls": "count", "moments.water_fill_s": "s",
    "moments.power_mean_s": "s",
    "kernel.calls": "count", "kernel.matrices": "count", "kernel.melems": "Melem",
    "kernel.s": "s", "kernel.bounds_s": "s", "kernel.sampler_s": "s",
    "streams.uniform_s": "s", "streams.uniform_mb": "MB", "streams.transform_s": "s",
    "sampler.calls": "count", "sampler.samples": "count", "sampler.mc_s": "s",
    "sampler.self_s": "s",
    "scenarios.self_s": "s", "cli.self_s": "s", "matio.load_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Result:
    op: workloads.Op
    rc: object          # exit code, or None when cli.main raised
    seconds: float
    stdout: str
    stderr: str
    host: float = 1.0   # host factor around the call; seconds / host is scaled time

    @property
    def scaled(self) -> float:
        return self.seconds / self.host


def run_op(cli, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # a traceback is a failed operation, not a crash
        rc = None
        err.write(traceback.format_exc())
    return Result(op, rc, time.perf_counter() - t0, out.getvalue(), err.getvalue())


def run_round(cli, ops, tracer=None, scale=True) -> tuple:
    """(scaled seconds of the round, results).  With `scale` the host factor
    is measured between operations, outside their timing; without, it is 1."""
    host_factor = hostspeed.factor if scale else (lambda: 1.0)
    results = []
    before = host_factor()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        res = run_op(cli, op)
        after = host_factor()
        res.host = (before + after) / 2
        before = after
        results.append(res)
    return sum(r.scaled for r in results), results


def fail(message: str):
    """Stop without a result: exit 2 with the reason on stderr."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_radnorm():
    """Import radnorm.cli from src/ of this checkout; exit 2 when it is absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import radnorm
        from radnorm import cli
    except ImportError as exc:
        fail(f"cannot import radnorm from {src}: {exc}")
    if not os.path.abspath(radnorm.__file__).startswith(src + os.sep):
        fail(f"radnorm was imported from {radnorm.__file__}, not {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read reference outputs {path}: {exc}")


def units_of_work(result: Result) -> int:
    """Sampled matrix norms an MC operation computed; one per profile."""
    payload = json.loads(result.stdout)
    if payload["command"] == "mc":
        return payload["estimate"]["samples"]
    if payload["command"] == "verify":
        return sum(pt["samples"] for pt in payload["report"]["points"])
    return 1


def ksweep_rows(results: list) -> dict:
    counts = {f"bounds.ksweep_rows.{m}": 0 for m in KSWEEP_MODES}
    for res in results:
        if res.rc != 0:
            continue
        payload = json.loads(res.stdout)
        if payload["command"] == "profile":
            for row in payload["profile"]["ksweep"]["table"]:
                key = f"bounds.ksweep_rows.{row['mode']}"
                if key in counts:  # a new mode shows as a drop in the known ones
                    counts[key] += 1
    return counts


def check_outputs(rounds, traced, reference, seed) -> list:
    """(operation name, problems) for every operation run in the rounds."""
    refs = reference["outputs"]
    first = {res.op.name: res.stdout for res in rounds[0][1]}
    verdicts = []
    for is_traced, (_, results) in [(False, r) for r in rounds] + [(True, r) for r in traced]:
        for res in results:
            if res.rc != 0:
                found = [f"exit code {res.rc}: {res.stderr.strip()[-300:]}"]
            elif res.op.name not in refs:
                found = ["no reference output recorded"]
            else:
                try:
                    out = json.loads(res.stdout)
                except ValueError as exc:
                    out, found = None, [f"output is not JSON: {exc}"]
                if out is not None and seed == reference["seed"]:
                    found = checks.compare(refs[res.op.name], out)
                elif out is not None:
                    found = checks.seed_free(refs[res.op.name], out, seed)
                if is_traced and res.stdout != first[res.op.name]:
                    found.append("traced output differs from untraced output")
            verdicts.append((res.op.name, found))
    return verdicts


def run_oracles(cli, seed) -> list:
    """(operation name, problems) for each Monte Carlo oracle check."""
    verdicts = []
    for mc_op, exact_op in workloads.oracle_ops(seed):
        mc, exact = run_op(cli, mc_op), run_op(cli, exact_op)
        if mc.rc != 0 or exact.rc != 0:
            found = [f"exit codes {mc.rc}, {exact.rc}"]
        else:
            found = checks.oracle(mc.stdout, exact.stdout)
        verdicts.append((mc_op.name, found))
    return verdicts


def timed_setup(workload: str) -> float:
    """Median scaled seconds of SETUP_REPEATS set-ups, each in a fresh process."""
    times, raw = [], []
    # the child process may run on either CPU
    before = hostspeed.factor(every_cpu=True)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "setup_once.py"), workload],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
        after = hostspeed.factor(every_cpu=True)
        raw.append(float(proc.stdout.split()[-1]))
        times.append(raw[-1] / ((before + after) / 2))
        before = after
    print("set-ups, scaled (s): " + " ".join(f"{t:.4f}" for t in times))
    print("set-ups, unscaled (s): " + " ".join(f"{t:.4f}" for t in raw))
    return statistics.median(times)


def per_layer(tracer, span_rounds, traced, untraced) -> dict:
    """Median times and first-round counts over the traced rounds."""
    rows = [dict(spans.layer_metrics(s, tracer.names), **ksweep_rows(res))
            for s, (_, res) in zip(span_rounds, traced)]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [row[name] for row in rows]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"note: count {name} differs between traced rounds: {values}")
    out["trace.overhead_ratio"] = (statistics.median(w for w, _ in traced)
                                   / statistics.median(w for w, _ in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    workload, seed = args.workload, args.seed

    cli = import_radnorm()
    reference = load_reference(workload)
    env = environment()
    print("env " + json.dumps(env))
    if env["affinity_cpus"] < 2:
        print("warning: fewer than 2 usable cores; mc_dense runs 2 worker threads",
              file=sys.stderr)

    scale = workload not in workloads.UNSCALED_WORKLOADS
    hostspeed.factor()  # the first call pays for loading LAPACK paths
    setup_s = timed_setup(workload)

    ops = workloads.ops(workload, seed)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced, span_rounds = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        untraced.append(run_round(cli, ops, scale=scale))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(cli, ops, tracer, scale))
            finally:
                tracer.uninstall()
            span_rounds.append(tracer.take())
        # stop when the next round would end past the deadline
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the timed region
    verdicts = check_outputs(untraced, traced, reference, seed)
    ran = ["reference outputs" if seed == reference["seed"]
           else f"seed-free fields and invariants (no reference for seed {seed})"]
    if workload in workloads.MC_WORKLOADS:
        verdicts += run_oracles(cli, seed)
        ran.append("Monte Carlo oracle on ones 2x2 and 3x3")
    if args.trace:
        ran.append("traced outputs byte-identical to untraced")
    print("checks ran: " + "; ".join(ran))
    for name, found in verdicts:
        for problem in found[:3]:
            print(f"check failed: {name}: {problem}")
    attempted = len(verdicts)
    failed = sum(1 for _, found in verdicts if found)
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")

    if args.trace:
        metrics = per_layer(tracer, span_rounds, traced, untraced)
        spans.save(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"),
                   span_rounds, tracer.names)
        units = PER_LAYER
    else:
        walls = [w for w, _ in untraced]
        rates = [sum(units_of_work(r) for r in res) / sum(r.scaled for r in res)
                 if all(r.rc == 0 for r in res) else 0.0
                 for _, res in untraced]
        metrics = {"wall_s": statistics.median(walls),
                   "norms_per_s": statistics.median(rates),
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": setup_s}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for label, rounds in (("untraced", untraced), ("traced", traced)):
        if rounds:
            print(f"{label} rounds, scaled (s): " + " ".join(f"{w:.4f}" for w, _ in rounds))
            print(f"{label} rounds, unscaled (s): "
                  + " ".join(f"{sum(r.seconds for r in res):.4f}" for _, res in rounds))
    if scale:
        hosts = [r.host for _, res in untraced + traced for r in res]
        print(f"host factor: median {statistics.median(hosts):.4f}, "
              f"range {min(hosts):.4f}-{max(hosts):.4f}")
    else:
        print(f"host factor: not applied on {workload}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
