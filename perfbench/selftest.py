"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the `test_*.py` pattern so the library's test suite does not
collect them.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def _bench_run(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def cli():
    os.chdir(run.ROOT)
    module = run.import_radnorm()
    return module


# -- the checker ---------------------------------------------------------------


def test_checker_passes_reference_and_float_noise():
    ref = _reference("profile_enum")["outputs"]["profile:circulant_n16"]
    out = copy.deepcopy(ref)
    out["profile"]["lower_profile"] *= 1 + 1e-13
    assert checks.compare(ref, ref) == []
    assert checks.compare(ref, out) == []


def test_checker_fails_on_perturbed_value():
    ref = _reference("profile_enum")["outputs"]["profile:circulant_n16"]
    out = copy.deepcopy(ref)
    out["profile"]["lower_profile"] *= 1 + 1e-6
    assert checks.compare(ref, out)
    assert checks.seed_free(ref, _with_seed(out, 7), 7)


def test_checker_fails_on_changed_ksweep_mode():
    ref = _reference("profile_search")["outputs"]["profile:sparse_gauss_n128"]
    out = copy.deepcopy(ref)
    row = out["profile"]["ksweep"]["table"][1]
    row["mode"] = "exact" if row["mode"] != "exact" else "greedy"
    assert checks.compare(ref, out)
    assert checks.seed_free(ref, _with_seed(out, 7), 7)


def test_checker_fails_on_changed_removed_set():
    ref = _reference("profile_search")["outputs"]["profile:sparse_gauss_n128"]
    out = copy.deepcopy(ref)
    out["profile"]["ksweep"]["table"][0]["removed"] = [2]
    assert any("removed" in p for p in checks.compare(ref, out))


def test_checker_fails_on_nonzero_exit():
    reference = _reference("mc_dense")
    op = workloads.ops("mc_dense", reference["seed"])[0]
    stdout = json.dumps(reference["outputs"][op.name])
    ok = run.Result(op, 0, 1.0, stdout, "")
    bad = run.Result(op, 4, 1.0, "", "error: numeric failure")
    verdicts = run.check_outputs([(1.0, [ok]), (1.0, [bad])], [], reference, reference["seed"])
    assert verdicts[0] == (op.name, [])
    assert verdicts[1][1] and "exit code 4" in verdicts[1][1][0]


def test_seed_free_check_catches_wrong_moments():
    ref = _reference("mc_dense")["outputs"]["mc:dense_gauss_n128"]
    out = _with_seed(ref, 7)
    out["estimate"]["seed"] = 7
    assert checks.seed_free(ref, out, 7) == []
    out["estimate"]["p_moments"]["40.0"]["estimate"] = out["estimate"]["mean"] / 2
    assert checks.seed_free(ref, out, 7)


def test_oracle_check():
    exact = json.dumps({"value": 2.0})
    near = json.dumps({"estimate": {"mean": 2.01, "stderr": 0.01}})
    far = json.dumps({"estimate": {"mean": 2.05, "stderr": 0.01}})
    assert checks.oracle(near, exact) == []
    assert checks.oracle(far, exact)


def _with_seed(payload, seed):
    out = copy.deepcopy(payload)
    out["flags"]["seed"] = seed
    return out


# -- spans ---------------------------------------------------------------------


def _synthetic(rows):
    """rows: (name id, start, end, parent index)."""
    return {
        "name": np.array([r[0] for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "op": np.zeros(len(rows), dtype=np.int32),
        "extra": np.array([0] * len(rows), dtype=object),
    }


def test_self_time_of_nested_spans():
    # root [0, 10] has children [1, 4] and [3, 6], which overlap as two
    # pool workers would; [1, 4] has a child [2, 3]
    s = _synthetic([(0, 0, 10, -1), (1, 1, 4, 0), (1, 3, 6, 0), (2, 2, 3, 1)])
    assert spans.self_times(s).tolist() == [5.0, 2.0, 3.0, 1.0]


def test_layer_metrics_split_kernel_time_by_enclosing_layer():
    names = ["cli.main", "bounds.profile", "bounds.r_heuristic", "kernel.svd",
             "sampler.mc", "streams.transform"]
    s = _synthetic([
        (0, 0, 30, -1),
        (1, 1, 11, 0), (2, 2, 8, 1), (3, 3, 5, 2), (3, 9, 10, 1),
        (4, 12, 21, 0), (3, 13, 17, 5), (5, 17, 18, 5),
    ])
    s["extra"] = np.array([0, 0, 0, (1, 4), (1, 4), 0, (3, 12), 0], dtype=object)
    m = spans.layer_metrics(s, names)
    assert m["kernel.calls"] == 3 and m["kernel.matrices"] == 5
    assert m["kernel.melems"] == pytest.approx(20e-6)
    assert m["kernel.s"] == 7 and m["kernel.bounds_s"] == 3 and m["kernel.sampler_s"] == 4
    assert m["bounds.profile_s"] == 10 and m["bounds.self_s"] == 7
    assert m["bounds.r_heuristic_calls"] == 1 and m["bounds.r_heuristic_s"] == 6
    assert m["sampler.mc_s"] == 9 and m["sampler.self_s"] == 4
    assert m["streams.transform_s"] == 1
    assert m["cli.self_s"] == 11


def test_traced_outputs_are_byte_identical(cli, tmp_path):
    from radnorm.core import WeightMatrix
    from radnorm.matio import dump_json

    gen = np.random.default_rng(0)
    weighted, zero_one = tmp_path / "w.json", tmp_path / "z.json"
    dump_json(WeightMatrix(gen.standard_normal((8, 8))), weighted)
    dump_json(WeightMatrix((gen.random((10, 10)) < 0.3).astype(float)), zero_one)
    ops = [
        workloads.Op("p", ("profile", "--input", str(weighted))),
        workloads.Op("z", ("profile", "--input", str(zero_one))),
        workloads.Op("m", ("mc", "--input", str(weighted), "--mode", "gaussian",
                           "--p", "2,40", "--samples", "5000", "--threads", "2")),
        workloads.Op("v", ("verify", "--scenario", "union_complete_regimes",
                           "--samples", "100", "--n-cap", "64")),
    ]
    _, plain = run.run_round(cli, ops)
    import radnorm.bounds
    originals = (cli.main, radnorm.bounds.water_fill, np.linalg.svd)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced = run.run_round(cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert [r.rc for r in traced] == [0] * len(ops)
    assert [r.stdout for r in traced] == [r.stdout for r in plain]
    m = spans.layer_metrics(tracer.take(), tracer.names)
    for name in ("bounds.r_heuristic_calls", "bounds.r_exact_calls", "kernel.calls",
                 "sampler.calls", "moments.water_fill_calls"):
        assert m[name] > 0, name
    assert m["streams.uniform_mb"] > 0 and m["scenarios.self_s"] > 0
    # uninstall restores every patched attribute
    assert (cli.main, radnorm.bounds.water_fill, np.linalg.svd) == originals


# -- host speed ----------------------------------------------------------------


def test_host_factor_makes_no_spans_and_restores_affinity(cli):
    cpus = os.sched_getaffinity(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        values = [hostspeed.factor(), hostspeed.factor(every_cpu=True)]
    finally:
        tracer.uninstall()
    assert all(0.05 < v < 50 for v in values)
    assert len(tracer.take()["name"]) == 0
    assert os.sched_getaffinity(0) == cpus


def test_round_time_is_the_sum_of_scaled_operation_times(cli, tmp_path):
    from radnorm.core import WeightMatrix
    from radnorm.matio import dump_json

    path = tmp_path / "ones.json"
    dump_json(WeightMatrix(np.ones((3, 3))), path)
    ops = [workloads.Op("p", ("profile", "--input", str(path)))] * 2
    seconds, results = run.run_round(cli, ops)
    assert all(r.rc == 0 and r.host > 0 for r in results)
    assert seconds == pytest.approx(sum(r.seconds / r.host for r in results))
    seconds, results = run.run_round(cli, ops, scale=False)
    assert [r.host for r in results] == [1.0, 1.0]
    assert seconds == sum(r.seconds for r in results)


# -- the command ---------------------------------------------------------------


def test_metric_names_equal_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect = {0: [m["name"] for m in bench["end_to_end"]],
              1: [m["name"] for m in bench["per_layer"]]}
    for trace in (0, 1):
        proc = _bench_run("--workload", "mc_dense", "--seed", "3",
                          "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == expect[trace]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench_run("--workload", "mc_dense", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
