"""Golden command set: CLI stdout and exit codes, byte for byte.

    python3 scripts/golden.py record [--jobs N] [--workdir DIR]
    python3 scripts/golden.py check  [--jobs N] [--workdir DIR]
    python3 scripts/golden.py diff   [--rtol R] [--atol A] [--jobs N] [--workdir DIR]

`record` runs every command and writes its stdout to
tests/golden/<name>.out and all exit codes to tests/golden/exit_codes.json.
Re-record only for an intended output change.  `check` runs the same
commands and reports every one whose stdout or exit code differs; it exits
1 when any does.  `diff` runs them and prints, per command, the largest
relative and absolute differences over the numeric fields of stdout (JSON
values, or the numbers of a CSV line); it exits 1 when a number is off by
more than both R relative and A absolute, or when a string, boolean, null,
key, list length, anything under `flags`, `mode` or `removed`, or an exit
code differs; a new or missing key is named, and the keys both sides hold
are still compared.  Run `diff` before re-recording a change that moves low-order
bits, to show every command is within the stated tolerance.  `--jobs N`
runs the commands in N worker processes.
tests/test_golden.py checks the 93 commands marked fast, each about a
second or less: inputs of side <= 16, plus the n = 128 one-magnitude profile
`bench.profile_search.block_singletons_n128_d5`, whose k-sweep has
enumerated and greedy rows on its 0/1 support, the 0/1 profiles in
SUPPORT_ROWS_FAST, whose enumerated k = 1 and k = 2 rows score removal
sets on the support, the general-weight profiles in POWER_ROUTE_FAST,
whose surrogate ascent reaches the
certified power steps of the Gram top pair, `verify
union_complete_regimes` at --n-cap 64 and at the benchmark's --n-cap
1024 (`bench.mc_blocks`), whose many same-shape Monte Carlo blocks take
the pruned block maximum, `verify block_counterexample
--n-cap 64`, whose k-sweep masks the support's index arrays, and the
`family` and `oracle` commands.

The 210 commands cover every square input of side <= 64 in the three
corpora (default flags, --exact-threshold 150 and --restarts 1), the
benchmark's profile and Monte Carlo operations, --budget-cap,
--exact-threshold and --seed variants, scaled and one-magnitude inputs
(`dense_gauss_n16` times 2^-40 among them, where the profile's absolute
tie bands would act at the input's scale if it were not normalized),
the path P3 and the cycle C4, `mc` in all three modes, `mc` in
symmetric mode on a directed edge list with diagonal pairs, every `verify`
scenario, one small `family` instance per generator, the three `oracle`
quantities, three commands whose sums of finite values pass the float
range unscaled (`mc` and `oracle exact_expectation` on 1e306 times the
3x3 all-ones matrix, `family circulant --b 1e200,1e200,0`), and the error
exits.

Commands run in-process through `radnorm.cli.main`, with input files
written to `inputs/` under a scratch working directory (default
golden-work/ at the checkout root), so the input paths echoed in stdout
are the same wherever the set runs.  The outputs were recorded with
OPENBLAS_NUM_THREADS=1, which this script sets before numpy loads.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import contextlib
import io
import json
import math
import pathlib
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

GOLDEN = ROOT / "tests" / "golden"
WORKDIR = ROOT / "golden-work"

#: Profiles of side > 16 marked fast: their surrogate ascent has Gram
#: sides of at least spectral.POWER_PAIR_MIN, so they pin the certified
#: power route (`spectral._certified_top`) byte for byte.
POWER_ROUTE_FAST = ("profile.mixed.heavy_n40.r1", "profile.mixed.dense_gauss_n64.r1")

#: 0/1 profiles of sides 32 and 48 marked fast (each under 0.1 s): their
#: enumerated k = 1 and k = 2 rows pin the support scorer
#: (`bounds._support_scores`) on removal sets of one and two indices.
SUPPORT_ROWS_FAST = ("profile.01.union_complete_m8_d3", "profile.01.bernoulli_n48",
                     "profile.01.random_regular_n32_d3.cap50")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    fast: bool


def _inputs() -> dict:
    """name -> (object to dump, side) for every input the set uses."""
    import numpy as np

    from radnorm.core import EdgeSet, WeightMatrix
    from radnorm.corpus import corpus_mixed, corpus_symmetric, corpus_zero_one

    out = {}
    for tag, corpus in (("mixed", corpus_mixed()), ("sym", corpus_symmetric()),
                        ("01", corpus_zero_one())):
        for name, A in corpus:
            out[f"{tag}.{name}"] = (A, A.n_rows)
    mixed = dict(corpus_mixed())
    sym = dict(corpus_symmetric())
    signs = np.where(np.random.Generator(np.random.Philox(key=5)).random((12, 12)) < 0.5,
                     -1.0, 1.0)
    uc = mixed["union_complete_m4_d2"].entries
    extra = {
        # one magnitude with mixed signs: the exact path scaled by 2.5
        "onemag.uc_m4_d2_signed": WeightMatrix(2.5 * uc * signs),
        "onemag.sym_x3": WeightMatrix(3.0 * sym["complete_k8"].entries, symmetric=True),
        # far from 1 in both directions
        "scaled.dense_gauss_n16_tiny": WeightMatrix(1e-200 * mixed["dense_gauss_n16"].entries),
        "scaled.dense_gauss_n16_2m40": WeightMatrix(np.ldexp(mixed["dense_gauss_n16"].entries,
                                                             -40)),
        "scaled.sym_gauss_n12_huge":
            WeightMatrix(1e200 * sym["sym_gauss_n12"].entries, symmetric=True),
        "scaled.uc_m4_d2_huge": WeightMatrix(1e250 * uc),
        # near the top of the float range: every norm is finite, but a sum
        # of them is not unless it is scaled
        "scaled.ones3_1e306": WeightMatrix(1e306 * np.ones((3, 3))),
        "P3": WeightMatrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                           symmetric=True),
        "C4": EdgeSet.from_one_based(4, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3),
                                         (4, 1), (1, 4)]),
        # a directed edge list with diagonal pairs: in symmetric mode a pair
        # (i, j) without (j, i) still reads the sign of its lower position
        "directed_diag_n5": EdgeSet.from_one_based(5, [(1, 2), (1, 3), (2, 2), (2, 3),
                                                       (3, 1), (3, 4), (4, 4), (4, 3),
                                                       (5, 1), (5, 2), (2, 5)]),
        "rect_2x3": WeightMatrix(np.ones((2, 3))),
    }
    for name, obj in extra.items():
        out[name] = (obj, obj.n if isinstance(obj, EdgeSet) else obj.n_rows)
    return out


def _path(name: str) -> str:
    return f"inputs/{name}.json"


def write_inputs(workdir: pathlib.Path) -> None:
    from radnorm.matio import dump_json

    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    for name, (obj, _) in _inputs().items():
        dump_json(obj, workdir / _path(name))
    (workdir / "inputs" / "broken.json").write_text("{not json\n")
    # headers that parse as JSON but are not sizes: null, and 1e400 (inf)
    (workdir / "inputs" / "n_null.json").write_text('{"n": null, "entries": [[1.0]]}\n')
    (workdir / "inputs" / "edges_n_huge.json").write_text('{"n": 1e400, "pairs": []}\n')
    # pair indices that are not JSON integers
    (workdir / "inputs" / "edges_bad_index.json").write_text(
        '{"n": 3, "pairs": [[1.5, 2], [true, 3]]}\n')


def commands() -> list:
    """Every command of the golden set, in a fixed order."""
    inputs = _inputs()
    cmds = []

    def add(name, argv, fast):
        cmds.append(Command(name, tuple(argv),
                            fast or name in POWER_ROUTE_FAST + SUPPORT_ROWS_FAST))

    def general(name):
        A = inputs[name][0]
        return not A.is_zero_one()

    corpus = [k for k in inputs if k.split(".")[0] in ("mixed", "sym", "01")]
    for name in corpus:
        side = inputs[name][1]
        if side > 64:
            continue
        # general weights of side 16 at the default threshold enumerate
        # 1,956 subsets per profile: correct but too slow for the fast subset
        slow16 = side == 16 and general(name)
        base = ["profile", "--input", _path(name)]
        add(f"profile.{name}", base, side <= 16 and not slow16)
        add(f"profile.{name}.t150", base + ["--exact-threshold", "150"], side <= 16)
        add(f"profile.{name}.r1", base + ["--restarts", "1"], side <= 16 and not slow16)

    # the benchmark's profile operations at its reference seed
    for name in ("circulant_n16", "dense_gauss_n16", "sym_gauss_n16"):
        add(f"bench.profile_enum.{name}",
            ["profile", "--input", _path(f"mixed.{name}"), "--exact-threshold", "150",
             "--seed", "1"], True)
    for name in ("sparse_gauss_n128", "block_singletons_n128_d5"):
        add(f"bench.profile_search.{name}",
            ["profile", "--input", _path(f"mixed.{name}"), "--seed", "1"],
            name.startswith("block_singletons"))
    # the benchmark's Monte Carlo operations at its reference seed
    add("bench.mc_blocks.union_complete_regimes",
        ["verify", "--scenario", "union_complete_regimes", "--samples", "200",
         "--n-cap", "1024", "--threads", "1", "--seed", "1"], True)
    for name in ("dense_gauss_n128", "sparse_gauss_n256"):
        add(f"bench.mc_dense.{name}",
            ["mc", "--input", _path(f"mixed.{name}"), "--mode", "gaussian",
             "--p", "2,8,40", "--samples", "300", "--threads", "2", "--seed", "1"], False)

    for name, cap in (("01.random_regular_n32_d3", "50"), ("01.bernoulli_n48", "50"),
                      ("01.block_singletons_n64_d4", "2000"), ("sym.union_k4x4", "10"),
                      ("mixed.union_complete_m8_d3", "1")):
        add(f"profile.{name}.cap{cap}",
            ["profile", "--input", _path(name), "--budget-cap", cap],
            inputs[name][1] <= 16)
    for name in ("mixed.dense_gauss_n16", "sym.sym_gauss_n12", "mixed.cauchy_n24"):
        side = inputs[name][1]
        add(f"profile.{name}.t0", ["profile", "--input", _path(name),
                                   "--exact-threshold", "0"], side <= 16)
        add(f"profile.{name}.t20.seed7",
            ["profile", "--input", _path(name), "--exact-threshold", "20",
             "--seed", "7", "--restarts", "5"], side <= 16)

    for name in ("onemag.uc_m4_d2_signed", "onemag.sym_x3", "scaled.dense_gauss_n16_tiny",
                 "scaled.dense_gauss_n16_2m40", "scaled.sym_gauss_n12_huge",
                 "scaled.uc_m4_d2_huge", "P3", "C4"):
        side = inputs[name][1]
        add(f"profile.{name}.t150",
            ["profile", "--input", _path(name), "--exact-threshold", "150"], side <= 16)
    for name in ("onemag.uc_m4_d2_signed", "P3", "C4"):
        add(f"profile.{name}.default", ["profile", "--input", _path(name)], True)

    # larger inputs: greedy rows and the enumerated (n > 16) rows
    for name in ("mixed.sparse_gauss_n256", "mixed.block_singletons_n256_d7",
                 "mixed.band_n128_w3", "mixed.dense_gauss_n128"):
        add(f"profile.{name}", ["profile", "--input", _path(name)], False)

    for mode in ("rademacher_iid", "rademacher_symmetric", "gaussian"):
        for name in ("sym.sym_gauss_n12", "mixed.sparse_gauss_n64", "C4"):
            side = inputs[name][1]
            add(f"mc.{mode}.{name}",
                ["mc", "--input", _path(name), "--mode", mode, "--samples", "400",
                 "--seed", "3"], side <= 16)
        add(f"mc.{mode}.p.mixed.dense_gauss_n16",
            ["mc", "--input", _path("mixed.dense_gauss_n16"), "--mode", mode,
             "--samples", "300", "--p", "2,8,40", "--threads", "2"], True)
    add("mc.rademacher_symmetric.directed_diag_n5",
        ["mc", "--input", _path("directed_diag_n5"), "--mode", "rademacher_symmetric",
         "--samples", "400", "--seed", "3"], True)
    add("mc.csv.P3", ["mc", "--input", _path("P3"), "--format", "csv",
                      "--matrix-id", "p3", "--samples", "200"], True)

    from radnorm.scenarios import SCENARIOS
    for scenario in SCENARIOS:
        argv = ["verify", "--scenario", scenario, "--samples", "100", "--seed", "2"]
        if scenario in ("union_complete_regimes", "block_counterexample"):
            argv += ["--n-cap", "64"]
        # union_complete_regimes: 7 to 32 same-shape blocks per group pins the
        # pruned block maximum; block_counterexample pins its masked k-sweep
        add(f"verify.{scenario}", argv,
            scenario in ("union_complete_regimes", "block_counterexample"))

    # one small instance per family generator
    for name, argv in (
            ("union_complete", ["--m", "2", "--d", "3"]),
            ("random_regular", ["--n", "10", "--d", "3", "--seed", "4"]),
            ("large_girth", ["--n", "20", "--d", "3", "--g-target", "5", "--seed", "2"]),
            ("one_cycle_neighborhood", ["--n", "16", "--d", "3", "--r", "2", "--seed", "3"]),
            ("block_plus_singletons", ["--n", "8", "--d", "3"]),
            ("circulant", ["--b", "1,0.5,-0.25,2"])):
        add(f"family.{name}", ["family", "--family", name] + argv, True)

    # the brute-force oracles on tiny inputs
    add("oracle.subgraph_norm.C4", ["oracle", "--input", _path("C4"),
                                    "--quantity", "subgraph_norm", "--p", "3"], True)
    add("oracle.exact_expectation.P3",
        ["oracle", "--input", _path("P3"), "--quantity", "exact_expectation",
         "--mode", "rademacher_symmetric"], True)
    add("oracle.x_quantity.P3", ["oracle", "--input", _path("P3"),
                                 "--quantity", "x_quantity"], True)

    # extreme scales: sums of finite values that would overflow unscaled
    add("mc.rademacher_iid.scaled.ones3_1e306",
        ["mc", "--input", _path("scaled.ones3_1e306"), "--mode", "rademacher_iid",
         "--samples", "1000"], True)
    add("oracle.exact_expectation.scaled.ones3_1e306",
        ["oracle", "--input", _path("scaled.ones3_1e306"), "--quantity",
         "exact_expectation"], True)
    add("family.circulant.huge", ["family", "--family", "circulant",
                                  "--b", "1e200,1e200,0"], True)

    # error exits: parse and usage errors (2) and resource caps (3)
    add("error.missing_input", ["profile", "--input", "inputs/missing.json"], True)
    add("error.broken_json", ["profile", "--input", "inputs/broken.json"], True)
    add("error.rectangular_profile", ["profile", "--input", _path("rect_2x3")], True)
    add("error.restarts_zero_general",
        ["profile", "--input", _path("mixed.dense_gauss_n16"), "--restarts", "0"], True)
    add("error.bad_mode", ["mc", "--input", _path("P3"), "--mode", "uniform"], True)
    add("error.too_few_samples", ["mc", "--input", _path("P3"), "--samples", "0"], True)
    add("error.unknown_scenario", ["verify", "--scenario", "nope"], True)
    add("error.family_cap", ["family", "--family", "union_complete", "--m", "100000",
                             "--d", "100"], True)
    add("error.family_odd_regular", ["family", "--family", "random_regular", "--n", "5",
                                     "--d", "3"], True)
    add("error.circulant_without_b", ["family", "--family", "circulant"], True)
    add("error.n_null", ["profile", "--input", "inputs/n_null.json"], True)
    add("error.edges_n_huge", ["profile", "--input", "inputs/edges_n_huge.json"], True)
    add("error.exact_expectation_cap",
        ["oracle", "--input", _path("mixed.dense_gauss_n16"), "--quantity",
         "exact_expectation"], True)
    add("error.oracle_p_inf", ["oracle", "--input", _path("C4"), "--quantity",
                               "subgraph_norm", "--p", "inf"], True)
    add("error.oracle_p_negative", ["oracle", "--input", _path("C4"), "--quantity",
                                    "subgraph_norm", "--p=-0.5"], True)
    add("error.edges_bad_index", ["oracle", "--input", "inputs/edges_bad_index.json",
                                  "--quantity", "subgraph_norm", "--p", "2"], True)
    add("error.n_cap_zero", ["verify", "--scenario", "union_complete_regimes",
                             "--n-cap", "0"], True)
    add("error.n_cap_unsized", ["verify", "--scenario", "symmetrization",
                                "--n-cap", "64"], True)
    return cmds


def run_one(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    from radnorm.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _worker_init(workdir: str) -> None:
    os.chdir(workdir)


def run_all(cmds: list, workdir: pathlib.Path, jobs: int) -> list:
    """[(exit code, stdout)] of every command, run with `workdir` as cwd."""
    write_inputs(workdir)
    if jobs <= 1:
        prev = os.getcwd()
        os.chdir(workdir)
        try:
            return [run_one(c.argv) for c in cmds]
        finally:
            os.chdir(prev)
    with ProcessPoolExecutor(jobs, mp_context=get_context("spawn"),
                             initializer=_worker_init, initargs=(str(workdir),)) as pool:
        return list(pool.map(run_one, [c.argv for c in cmds]))


def load_expected() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def mismatches(cmds: list, results: list) -> list:
    """Names of the commands whose exit code or stdout differ from the record."""
    codes = load_expected()
    bad = []
    for cmd, (rc, stdout) in zip(cmds, results):
        path = GOLDEN / f"{cmd.name}.out"
        if codes.get(cmd.name) != rc or not path.exists() or path.read_text() != stdout:
            bad.append(cmd.name)
    return bad


#: Subtrees compared exactly by `diff`, numbers included.
EXACT_KEYS = frozenset({"flags", "mode", "removed"})


def _parse(stdout: str):
    """stdout as JSON, or else as its list of comma- and space-separated
    tokens, each a float where it parses as one."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        tokens = [t for t in re.split(r"[\s,]+", stdout) if t]
        out = []
        for token in tokens:
            try:
                out.append(float(token))
            except ValueError:
                out.append(token)
        return out


def _leaf_pairs(ref, out, path="", exact=False):
    """(path, ref, out, exact) for every leaf of two parsed outputs, or
    (path, what, None, None) where their shapes differ.  Two objects with
    different keys name the keys each lacks, and their shared keys are
    still compared."""
    if isinstance(ref, dict) or isinstance(out, dict):
        if not (isinstance(ref, dict) and isinstance(out, dict)):
            yield path, "keys or lengths differ", None, None
            return
        added = [key for key in out if key not in ref]
        missing = [key for key in ref if key not in out]
        if added:
            yield path, f"new keys {added}", None, None
        if missing:
            yield path, f"missing keys {missing}", None, None
        for key in ref:
            if key in out:
                yield from _leaf_pairs(ref[key], out[key], f"{path}.{key}",
                                       exact or key in EXACT_KEYS)
    elif isinstance(ref, list) or isinstance(out, list):
        if not (isinstance(ref, list) and isinstance(out, list)) or len(ref) != len(out):
            yield path, "keys or lengths differ", None, None
            return
        for k, (r, o) in enumerate(zip(ref, out)):
            yield from _leaf_pairs(r, o, f"{path}[{k}]", exact)
    else:
        yield path, ref, out, exact


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_outputs(ref: str, out: str, rtol: float, atol: float) -> tuple:
    """(largest relative difference, largest absolute difference, problems)
    between two stdouts, over their numeric fields outside EXACT_KEYS."""
    rel = abs_ = 0.0
    problems = []
    for path, r, o, exact in _leaf_pairs(_parse(ref), _parse(out)):
        if exact is None:
            problems.append(f"{path}: {r}")
        elif _is_number(r) and _is_number(o) and not exact:
            if r == o or (math.isnan(r) and math.isnan(o)):
                continue
            d = abs(r - o)
            if not math.isfinite(d):
                problems.append(f"{path}: {o!r} recorded as {r!r}")
                continue
            rel = max(rel, d / max(abs(r), abs(o)))
            abs_ = max(abs_, d)
            if d > atol and d > rtol * max(abs(r), abs(o)):
                problems.append(f"{path}: {o!r} recorded as {r!r}")
        elif type(r) is not type(o) or r != o:
            problems.append(f"{path}: {o!r} recorded as {r!r}")
    return rel, abs_, problems


def diff(cmds: list, results: list, rtol: float, atol: float) -> int:
    """Print each command's largest differences from the record; 1 if any
    command is outside the tolerance, else 0."""
    codes = load_expected()
    bad = 0
    for cmd, (rc, stdout) in zip(cmds, results):
        path = GOLDEN / f"{cmd.name}.out"
        if not path.exists() or cmd.name not in codes:
            rel, abs_, problems = 0.0, 0.0, ["no record"]
        else:
            rel, abs_, problems = compare_outputs(path.read_text(), stdout, rtol, atol)
            if codes[cmd.name] != rc:
                problems.append(f"exit code {rc} recorded as {codes[cmd.name]}")
        bad += bool(problems)
        print(f"{'DIFF' if problems else 'ok  '} rel {rel:.2e} abs {abs_:.2e} {cmd.name}")
        for problem in problems[:5]:
            print(f"     {problem}")
    print(f"{len(cmds) - bad}/{len(cmds)} commands within rtol {rtol:g}, atol {atol:g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["record", "check", "diff"])
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workdir", default=str(WORKDIR))
    args = parser.parse_args(argv)
    cmds = commands()
    results = run_all(cmds, pathlib.Path(args.workdir).resolve(), args.jobs)
    if args.mode == "diff":
        return diff(cmds, results, args.rtol, args.atol)
    if args.mode == "record":
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for cmd, (_, stdout) in zip(cmds, results):
            (GOLDEN / f"{cmd.name}.out").write_text(stdout)
        codes = {cmd.name: rc for cmd, (rc, _) in zip(cmds, results)}
        (GOLDEN / "exit_codes.json").write_text(
            json.dumps(dict(sorted(codes.items())), indent=1) + "\n")
        print(f"recorded {len(cmds)} commands")
        return 0
    bad = mismatches(cmds, results)
    for name in bad:
        print(f"MISMATCH {name}")
    print(f"{len(cmds) - len(bad)}/{len(cmds)} commands match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
