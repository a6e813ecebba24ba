import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from radnorm import cli, sampler
from radnorm.cli import main
from radnorm.core import EdgeSet, WeightMatrix
from radnorm.matio import dump_json

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    A = WeightMatrix(np.ones((3, 3)) - np.eye(3), symmetric=True)
    dump_json(A, path)
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.json"
    dump_json(WeightMatrix(np.zeros((3, 3))), path)
    return str(path)


@pytest.fixture
def rect_file(tmp_path):
    path = tmp_path / "rect.json"
    dump_json(WeightMatrix(np.ones((2, 3))), path)
    return str(path)


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


class TestProfileCommand:
    def test_k3(self, k3_file, tmp_path):
        code, payload = run_json(["profile", "--input", k3_file], tmp_path)
        assert code == 0
        jsonschema.validate(payload, schema("bound_profile.schema.json"))
        assert payload["profile"]["row_max"] == pytest.approx(math.sqrt(2))

    def test_zero(self, zero_file, tmp_path):
        code, payload = run_json(["profile", "--input", zero_file], tmp_path)
        assert code == 0
        prof = payload["profile"]
        assert prof["lower_profile"] == 0.0
        assert prof["seginer"] == 0.0 and prof["bvh"] == 0.0

    def test_ksweep_table_present(self, tmp_path):
        from radnorm.families import circulant

        b = np.zeros(16)
        b[1] = b[15] = 1.0
        path = tmp_path / "circ.json"
        dump_json(circulant(b).weight_matrix(), path)
        code, payload = run_json(
            ["profile", "--input", str(path), "--exact-threshold", "100000"],
            tmp_path,
        )
        assert code == 0
        table = payload["profile"]["ksweep"]["table"]
        assert [row["k"] for row in table] == [1, 2, 4, 8, 16]

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["profile", "--input", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["profile", "--input", "/nonexistent/x.json"]) == 2

    def test_directory_input_exit_2(self, tmp_path):
        assert main(["profile", "--input", str(tmp_path)]) == 2

    def test_directory_out_exit_2(self, k3_file, tmp_path):
        assert main(["profile", "--input", k3_file, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("exc", [FloatingPointError("overflow"),
                                     np.linalg.LinAlgError("SVD did not converge")])
    def test_numeric_failure_exit_4(self, k3_file, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "bound_profile", fail)
        assert main(["profile", "--input", k3_file]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"n": null, "entries": [[1.0]]}',
        '{"n": 1e400, "entries": [[1.0]]}',
        '{"n": 1.0, "entries": [[1.0]]}',
        '{"n": true, "entries": [[1.0]]}',
        '{"n_rows": "1", "n_cols": 1, "entries": [[1.0]]}',
        '{"n": 1, "entries": [[1.0]], "symmetric": "false"}',
        '{"n": 1, "entries": [[1.0]], "symmetric": 0}',
        '{"n": 1e400, "pairs": []}',
        '{"n": "3", "pairs": [[1, 2]]}',
        '{"n": 3, "pairs": [[1e400, 2]]}',
        '{"n": 3, "pairs": [[1.5, 2]]}',
        '{"n": 3, "pairs": [[1, 2.0]]}',
        '{"n": 3, "pairs": [[true, 3]]}',
    ])
    def test_malformed_header_exit_2(self, tmp_path, capsys, text):
        # sizes must be JSON integers and `symmetric` a JSON boolean
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["profile", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", [("--restarts", "0"), ("--restarts", "-2"),
                                      ("--budget-cap", "0"), ("--budget-cap", "-5"),
                                      ("--exact-threshold", "-1")])
    @pytest.mark.parametrize("weights", ["zero_one", "general"])
    def test_invalid_engine_flag_exit_2(self, k3_file, tmp_path, flag, weights):
        # the 0/1 input never reaches the surrogate ascent, so only a check
        # on the flags themselves rejects the value there
        path = k3_file
        if weights == "general":
            path = str(tmp_path / "w.json")
            dump_json(WeightMatrix(np.random.default_rng(0).standard_normal((4, 4))), path)
        out = tmp_path / "out.json"
        assert main(["profile", "--input", path, *flag, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exit_2(self, k3_file, capsys, seed):
        # a seed fills 64 bits of the Philox key; it used to be reduced mod
        # 2^64, so 0 and 2^64 ran the same restarts
        assert main(["profile", "--input", k3_file, "--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: seed must lie in [0, 2**64), got {seed}\n"


class TestMcCommand:
    def test_json_output(self, k3_file, tmp_path):
        code, payload = run_json(
            ["mc", "--input", k3_file, "--samples", "200", "--seed", "1"], tmp_path
        )
        assert code == 0
        jsonschema.validate(payload, schema("mc_estimate.schema.json"))

    def test_csv_output(self, k3_file, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["mc", "--input", k3_file, "--samples", "64", "--seed", "2",
                     "--format", "csv", "--matrix-id", "k3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "matrix_id,mode,samples,seed,mean,stderr"
        assert lines[1].startswith("k3,rademacher_iid,64,2,")

    def test_csv_quotes_a_matrix_id_with_a_comma(self, k3_file, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["mc", "--input", k3_file, "--samples", "64", "--format", "csv",
                     "--matrix-id", 'a,"b"', "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(header) == len(row) == 6
        assert row[0] == 'a,"b"' and row[1:4] == ["rademacher_iid", "64", "1"]

    def test_csv_with_moments_exit_2(self, k3_file, tmp_path, capsys):
        # a CSV row holds only the mean and stderr, so it cannot carry moments
        out = tmp_path / "out.csv"
        for tail in ([], ["--out", str(out)]):
            assert main(["mc", "--input", k3_file, "--samples", "200", "--format", "csv",
                         "--p", "2,8"] + tail) == 2
            stdout, err = capsys.readouterr()
            assert stdout == "" and err.startswith("error: ")
        assert not out.exists()

    def test_gaussian_zero_matrix(self, zero_file, tmp_path):
        code, payload = run_json(
            ["mc", "--input", zero_file, "--mode", "gaussian", "--samples", "64"],
            tmp_path,
        )
        assert code == 0
        assert payload["estimate"]["mean"] == 0.0

    def test_symmetric_on_rectangular_exit_2(self, rect_file):
        assert main(["mc", "--input", rect_file, "--mode", "rademacher_symmetric",
                     "--samples", "64"]) == 2

    def test_moments_flag(self, k3_file, tmp_path):
        code, payload = run_json(
            ["mc", "--input", k3_file, "--samples", "200", "--p", "2,4"], tmp_path
        )
        assert code == 0
        assert set(payload["estimate"]["p_moments"]) == {"2.0", "4.0"}

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, k3_file, threads):
        assert main(["mc", "--input", k3_file, "--samples", "100",
                     "--threads", threads]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_outside_64_bits_exit_2(self, k3_file, zero_file, capsys, seed):
        # 2^64 and -2^64 used to alias seed 0, and echo themselves; a
        # matrix with no cells draws nothing but still checks its seed
        for path in (k3_file, zero_file):
            assert main(["mc", "--input", path, "--samples", "100", "--seed", str(seed)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    def test_out_of_memory_exit_3(self, k3_file, monkeypatch, capsys):
        # what --samples 100000000000000 did: numpy's _ArrayMemoryError
        # escaped as a traceback with exit 1
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB for an array with shape "
                              "(100000000000000,) and data type float64")

        monkeypatch.setattr(sampler, "_sample_norms", fail)
        assert main(["mc", "--input", k3_file, "--samples", "100000000000000"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate")
        assert err.count("\n") == 1

        def fail_bare(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sampler, "_sample_norms", fail_bare)
        assert main(["mc", "--input", k3_file, "--samples", "100"]) == 3
        assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"

    @pytest.mark.parametrize("mode", ["rademacher_iid", "rademacher_symmetric"])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_norm_outside_its_bound_range_exit_4(self, tmp_path, monkeypatch, capsys,
                                                  mode, factor):
        # on the all-ones 2x2, sign patterns with orthogonal rows reach the
        # row norm sqrt(2) and rank-one ones the Frobenius norm 2, so a
        # kernel 10% off either way leaves the range the plan derives
        path = tmp_path / "ones.json"
        dump_json(WeightMatrix(np.ones((2, 2))), path)
        real = sampler.top_value_max
        monkeypatch.setattr(sampler, "top_value_max",
                            lambda *args: factor * real(*args))
        assert main(["mc", "--input", str(path), "--mode", mode, "--samples", "100"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: sample norm ") and "outside its bound range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", [1e10, 1e-12, 1e306])
    def test_moments_finite_at_extreme_scale(self, tmp_path, scale):
        path = tmp_path / "m.json"
        dump_json(WeightMatrix(scale * np.ones((3, 3))), path)
        code, payload = run_json(
            ["mc", "--input", str(path), "--samples", "500", "--p", "2,32,33"], tmp_path
        )
        assert code == 0
        est = payload["estimate"]
        values = [est["mean"], est["stderr"]]
        values += [v for m in est["p_moments"].values() for v in m.values()]
        assert all(math.isfinite(v) for v in values)
        assert scale <= est["p_moments"]["32.0"]["estimate"] <= 3 * scale


class TestFamilyCommand:
    def test_union_complete(self, tmp_path):
        code, payload = run_json(
            ["family", "--family", "union_complete", "--m", "4", "--d", "3"], tmp_path
        )
        assert code == 0
        jsonschema.validate(payload, schema("family_instance.schema.json"))
        assert payload["instance"]["payload"]["n"] == 16

    def test_random_regular(self, tmp_path):
        code, payload = run_json(
            ["family", "--family", "random_regular", "--n", "100", "--d", "3",
             "--seed", "42"], tmp_path
        )
        assert code == 0
        pairs = payload["instance"]["payload"]["pairs"]
        deg = {}
        for i, j in pairs:
            deg[i] = deg.get(i, 0) + 1
        assert all(v == 3 for v in deg.values())

    def test_circulant(self, tmp_path):
        code, payload = run_json(
            ["family", "--family", "circulant", "--b", "0,1,1"], tmp_path
        )
        assert code == 0
        assert payload["instance"]["payload"]["entries"][0] == [0.0, 1.0, 1.0]
        # ||b||_2 and the self-check's row and column norms would overflow
        # unscaled
        code, payload = run_json(
            ["family", "--family", "circulant", "--b", "1e200,1e200,0"], tmp_path
        )
        assert code == 0
        assert payload["instance"]["predicted"] == pytest.approx(math.sqrt(2) * 1e200)

    def test_infeasible_exit_2(self, tmp_path):
        assert main(["family", "--family", "large_girth", "--n", "5", "--d", "4",
                     "--g-target", "6"]) == 2

    def test_parity_exit_2(self):
        assert main(["family", "--family", "random_regular", "--n", "5", "--d", "3"]) == 2


class TestVerifyCommand:
    def test_small_scenario(self, tmp_path):
        code, payload = run_json(
            ["verify", "--scenario", "circulant_chain", "--samples", "100",
             "--seed", "3"], tmp_path
        )
        assert code == 0
        jsonschema.validate(payload, schema("scenario_report.schema.json"))
        assert payload["report"]["scenario"] == "circulant_chain"
        assert len(payload["report"]["points"]) == 8

    def test_block_counterexample_carries_certified_flags(self, tmp_path):
        code, payload = run_json(
            ["verify", "--scenario", "block_counterexample", "--samples", "16",
             "--n-cap", "64"], tmp_path
        )
        assert code == 0
        jsonschema.validate(payload, schema("scenario_report.schema.json"))
        for pt in payload["report"]["points"]:
            assert pt["subgraph_certified"] is True and pt["ksweep_certified"] is True
            del pt["ksweep_certified"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema("scenario_report.schema.json"))

    @pytest.mark.parametrize("scenario, n_cap", [
        ("union_complete_regimes", "0"), ("block_counterexample", "0"),
        ("union_complete_regimes", "-5"), ("block_counterexample", "-5"),
        ("symmetrization", "64"), ("circulant_chain", "64"),
    ])
    def test_n_cap_rejected_exit_2(self, tmp_path, capsys, scenario, n_cap):
        # --n-cap must be at least 1 and applies only to the sized scenarios
        out = tmp_path / "out.json"
        assert main(["verify", "--scenario", scenario, "--samples", "100",
                     "--n-cap", n_cap, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exit_2(self, capsys, seed):
        assert main(["verify", "--scenario", "union_complete_regimes", "--n-cap", "64",
                     "--samples", "100", "--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    def test_unknown_scenario_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", "nope"])
        assert exc.value.code == 2


class TestOracleCommand:
    def test_subgraph_norm(self, tmp_path):
        epath = tmp_path / "e.json"
        dump_json(EdgeSet(3, tuple((i, j) for i in range(3) for j in range(3))), epath)
        code, payload = run_json(
            ["oracle", "--input", str(epath), "--quantity", "subgraph_norm",
             "--p", "4"], tmp_path
        )
        assert code == 0
        assert payload["value"] == pytest.approx(2.0)

    def test_exact_expectation(self, tmp_path):
        mpath = tmp_path / "m.json"
        dump_json(WeightMatrix(np.ones((2, 2))), mpath)
        code, payload = run_json(
            ["oracle", "--input", str(mpath), "--quantity", "exact_expectation"],
            tmp_path,
        )
        assert code == 0
        assert payload["value"] == pytest.approx((2 + math.sqrt(2)) / 2)
        # 256 sign patterns whose norms, unscaled, sum past the float range
        values = []
        for j in (0, 1016):
            dump_json(WeightMatrix(np.ldexp(np.ones((3, 3)), j)), mpath)
            code, payload = run_json(
                ["oracle", "--input", str(mpath), "--quantity", "exact_expectation"],
                tmp_path,
            )
            assert code == 0
            values.append(payload["value"])
        assert values[1] == np.ldexp(values[0], 1016)

    @pytest.mark.parametrize("mode", ["rademacher_iid", "rademacher_symmetric"])
    def test_exact_expectation_reads_an_edge_list_as_it_is(self, tmp_path, monkeypatch,
                                                           mode):
        # the sampler reads the pairs as cells, as `mc` does: no dense 0/1
        # matrix, and the value of the indicator matrix bit for bit
        E = EdgeSet(4, ((0, 1), (1, 0), (1, 2), (2, 2), (3, 0)))
        epath = tmp_path / "e.json"
        dump_json(E, epath)
        want = cli.exact_small_norm_expectation(E.indicator(), mode)
        monkeypatch.setattr(EdgeSet, "indicator", None)
        code, payload = run_json(["oracle", "--input", str(epath), "--quantity",
                                  "exact_expectation", "--mode", mode], tmp_path)
        assert code == 0
        assert payload["value"] == want

    @pytest.mark.parametrize("argv", [
        ["oracle", "--quantity", "exact_expectation"],
        ["mc", "--format", "csv", "--samples", "64"],
    ])
    def test_non_finite_value_exit_4(self, k3_file, tmp_path, capsys, monkeypatch, argv):
        # JSON has no Infinity or NaN, and a CSV line carries none either:
        # a non-finite value is a numeric failure and prints nothing
        est = cli.mc_norm(WeightMatrix(np.ones((3, 3))), "rademacher_iid", 64, 1)
        monkeypatch.setattr(cli, "exact_small_norm_expectation", lambda A, mode: math.inf)
        monkeypatch.setattr(cli, "mc_norm", lambda *a, **k: dataclasses.replace(
            est, mean=math.inf))
        for out in ([], ["--out", str(tmp_path / "out.txt")]):
            assert main(argv + ["--input", k3_file] + out) == 4
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("quantity", ["subgraph_norm", "x_quantity"])
    @pytest.mark.parametrize("p", ["inf", "-inf", "nan"])
    def test_non_finite_p_exit_2(self, tmp_path, capsys, quantity, p):
        epath = tmp_path / "e.json"
        dump_json(EdgeSet(3, ((0, 1), (1, 0))), epath)
        assert main(["oracle", "--input", str(epath), "--quantity", quantity,
                     f"--p={p}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["-0.5", "-1"])
    def test_negative_p_exit_2(self, tmp_path, capsys, p):
        # -0.5 must not truncate to the valid p = 0
        epath = tmp_path / "e.json"
        dump_json(EdgeSet(3, ((0, 1), (1, 0))), epath)
        assert main(["oracle", "--input", str(epath), "--quantity", "subgraph_norm",
                     f"--p={p}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_fractional_p_uses_floor(self, tmp_path):
        # |F| <= floor(p): a 2x2 block needs 4 positions, so p = 3.9 gives
        # the best 3-set, sqrt((3 + sqrt(5)) / 2), and p = 4 gives 2
        epath = tmp_path / "e.json"
        dump_json(EdgeSet(2, ((0, 0), (0, 1), (1, 0), (1, 1))), epath)
        values = {}
        for p in ("3.9", "4"):
            code, payload = run_json(["oracle", "--input", str(epath), "--quantity",
                                      "subgraph_norm", "--p", p], tmp_path, f"{p}.json")
            assert code == 0 and payload["flags"]["p"] == float(p)
            values[p] = payload["value"]
        assert values["3.9"] == pytest.approx(math.sqrt((3 + math.sqrt(5)) / 2))
        assert values["4"] == pytest.approx(2.0)

    def test_cap_exit_3(self, tmp_path):
        mpath = tmp_path / "big.json"
        dump_json(WeightMatrix(np.ones((16, 16))), mpath)
        assert main(["oracle", "--input", str(mpath), "--quantity", "x_quantity"]) == 3

    def test_exact_expectation_sign_cap_exit_3(self, tmp_path):
        # 25 independent signs, one beyond the enumeration cap
        mpath = tmp_path / "ones5.json"
        dump_json(WeightMatrix(np.ones((5, 5))), mpath)
        assert main(["oracle", "--input", str(mpath), "--quantity", "exact_expectation"]) == 3


class TestDeterminism:
    def test_byte_identical_across_threads(self, k3_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = ["mc", "--input", k3_file, "--samples", "3000", "--seed", "11",
                "--p", "2,8"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_across_threads_over_gram_slices(self, tmp_path, capsys):
        # one 128x128 block per sample: 100 samples span several Gram
        # slices of top_values, and chunks split them differently per
        # thread count
        from radnorm.corpus import corpus_mixed
        from radnorm.spectral import _GRAM_SLICE

        A = dict(corpus_mixed())["dense_gauss_n128"]
        assert 100 * A.entries.size > 4 * _GRAM_SLICE
        path = tmp_path / "dense.json"
        dump_json(A, path)
        outs = []
        for threads in ("1", "2"):
            assert main(["mc", "--input", str(path), "--mode", "gaussian",
                         "--samples", "100", "--seed", "4", "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and '"mean"' in outs[0]

    def test_gaussian_pool_in_a_fresh_process(self, tmp_path, capsys):
        # the fresh process loads scipy.special for its first Gaussian draw,
        # just before the two-thread pool starts; its output is the
        # in-process single-thread output, byte for byte
        import os
        import subprocess
        import sys

        import radnorm

        A = WeightMatrix(np.random.default_rng(3).standard_normal((12, 12)))
        path = tmp_path / "dense.json"
        dump_json(A, path)
        args = ["mc", "--input", str(path), "--mode", "gaussian",
                "--samples", "300", "--seed", "9"]
        assert main(args + ["--threads", "1"]) == 0
        want = capsys.readouterr().out
        script = ("import sys\n"
                  "from radnorm.cli import main\n"
                  "assert 'scipy' not in sys.modules\n"
                  f"code = main({args + ['--threads', '2']!r})\n"
                  "assert 'scipy.special' in sys.modules\n"
                  "sys.exit(code)\n")
        src = str(Path(radnorm.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout == want and '"mean"' in want

    def test_byte_identical_repeat_runs(self, k3_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["profile", "--input", k3_file, "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_entry_point_runs():
    import subprocess
    import sys

    res = subprocess.run(
        [sys.executable, "-m", "radnorm.cli", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert "profile" in res.stdout and "verify" in res.stdout
