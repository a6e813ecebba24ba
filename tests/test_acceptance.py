"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line (visible with pytest -s, and in
the captured output otherwise) and enforces both the stated tolerance and
the stated runtime cap.  The theory being validated holds up to universal
constants, so most criteria are property or oracle-equivalence checks;
the two exactly-computable expectations are asserted against exhaustive
enumeration.
"""

import math
import time

import numpy as np
import pytest

from radnorm.bounds import bound_profile, r_exact_01
from radnorm.core import EdgeSet, WeightMatrix, log_clamped
from radnorm.corpus import corpus_mixed
from radnorm.moments import exact_lp_enumeration, hitczenko_surrogate
from radnorm.oracles import (
    connected_count_bound,
    enumerate_connected,
    subgraph_norm_enum,
)
from radnorm.sampler import exact_small_norm_expectation, mc_norm
from radnorm.scenarios import run_scenario


def report(num: int, desc: str, ok: bool, elapsed: float, cap: float, extra: str = ""):
    status = "PASS" if ok and elapsed < cap else "FAIL"
    tail = f" | {extra}" if extra else ""
    print(f"[ACCEPTANCE {num:2d}] {status} {desc} ({elapsed:.1f}s < {cap:.0f}s){tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"
    assert elapsed < cap, f"criterion {num} exceeded its runtime cap"


def test_criterion_01_exact_expectation_2x2():
    t0 = time.time()
    A = WeightMatrix(np.ones((2, 2)))
    want = exact_small_norm_expectation(A, "rademacher_iid")
    assert want == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-12)
    est = mc_norm(A, "rademacher_iid", 100_000, seed=1)
    ok = abs(est.mean - want) <= 3 * est.stderr
    report(1, "mc mean of all-ones 2x2 within 3 stderr of (2+sqrt 2)/2",
           ok, time.time() - t0, 5,
           f"mc={est.mean:.5f} exact={want:.5f} stderr={est.stderr:.5f}")


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        count = int(rng.integers(1, 13))
        allp = [(i, j) for i in range(n) for j in range(n)]
        idx = rng.choice(len(allp), size=min(count, len(allp)), replace=False)
        E = EdgeSet(n, tuple(allp[i] for i in idx))
        p = int(rng.integers(1, 7))
        got = r_exact_01(E, p).lower
        want = subgraph_norm_enum(E, p)
        worst = max(worst, abs(got - want))
    report(2, "subgraph search equals exhaustive oracle on 100 edge sets",
           worst <= 1e-9, time.time() - t0, 60, f"max |diff|={worst:.2e}")


def test_criterion_03_full_block_structure():
    t0 = time.time()
    ok = True
    details = []
    for d in (2, 3, 4):
        E = EdgeSet(d, tuple((i, j) for i in range(d) for j in range(d)))
        for p in range(1, 2 * d + 1):
            got = r_exact_01(E, p).lower
            want = subgraph_norm_enum(E, p)
            if abs(got - want) > 1e-12:
                ok = False
                details.append(f"d={d} p={p}: {got} != {want}")
    spot = r_exact_01(
        EdgeSet(3, tuple((i, j) for i in range(3) for j in range(3))), 4
    ).lower
    ok = ok and spot == pytest.approx(2.0, abs=1e-12)
    report(3, "full-block subgraph optimum matches brute force (d=3,p=4 -> 2.0)",
           ok, time.time() - t0, 30, "; ".join(details) or f"spot={spot}")


def test_criterion_04_connected_count_bound():
    t0 = time.time()
    rng = np.random.default_rng(4)
    violations = 0
    graphs = 0
    while graphs < 50:
        n = int(rng.integers(3, 14))
        edges = []
        deg = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25 and deg[i] < 4 and deg[j] < 4:
                    edges.append((i, j))
                    deg[i] += 1
                    deg[j] += 1
        from radnorm.core import GraphView

        G = GraphView.from_edges(n, edges)
        if G.max_degree == 0:
            continue
        graphs += 1
        k = int(rng.integers(1, 7))
        for v in range(n):
            if len(enumerate_connected(G, v, k, 1)) > connected_count_bound(G, k, 1):
                violations += 1
    report(4, "connected-subset counts within (4d)^(k-1) on 50 graphs",
           violations == 0, time.time() - t0, 30, f"violations={violations}")


def test_criterion_05_union_complete_regimes():
    t0 = time.time()
    rep = run_scenario("union_complete_regimes", samples=2000, seed=1)
    spread = rep.summary["spread"]
    report(5, "union-of-complete-graphs ratio spread <= 4 over d=1..8",
           spread is not None and spread <= 4.0, time.time() - t0, 600,
           f"spread={spread:.2f}")


def test_criterion_06_block_counterexample_gap():
    t0 = time.time()
    rep = run_scenario("block_counterexample", samples=2000, seed=1, n=2048)
    # the mean tracks sqrt(d) at constant level across the grid
    track = [pt["mc_mean"] / math.sqrt(pt["params"]["d"]) for pt in rep.points]
    tracking_ok = all(1.0 <= r <= 2.5 for r in track)
    end = rep.points[-1]
    assert end["params"]["d"] == int(log_clamped(2048))
    gap_ok = end["ratio"] > 1.5
    # the d = 5 and d = 6 subgraph searches hit the 200,000-node budget and
    # must say so; every other exact term of the grid is certified
    uncertified = [pt["params"]["d"] for pt in rep.points if not pt["subgraph_certified"]]
    flags_ok = uncertified == [5, 6] and all(pt["ksweep_certified"] for pt in rep.points)
    report(6, "one-sided upper overshoots truth by >1.5x at d ~ Log n",
           tracking_ok and gap_ok and flags_ok, time.time() - t0, 300,
           f"end ratio={end['ratio']:.2f}; mc/sqrt(d) in "
           f"[{min(track):.2f}, {max(track):.2f}]; uncertified subgraph d={uncertified}")


def test_criterion_07_two_sided_sandwich_corpus():
    t0 = time.time()
    lower_ratios = []
    upper_ratios = []
    for name, A in corpus_mixed():
        prof = bound_profile(A)
        est = mc_norm(A, "rademacher_iid", 400, seed=7)
        if est.mean == 0.0:
            continue
        lower_ratios.append(prof.lower_profile / est.mean)
        upper_ratios.append(est.mean / prof.conjectured_upper_profile)
    c1 = max(lower_ratios)
    c2 = max(upper_ratios)
    spread_lower = max(lower_ratios) / min(lower_ratios)
    spread_upper = max(upper_ratios) / min(upper_ratios)
    ok = spread_lower <= 10.0 and spread_upper <= 10.0
    report(7, "profile brackets mc on the 30-matrix corpus, spreads <= 10",
           ok, time.time() - t0, 900,
           f"fitted C1={c1:.2f} C2={c2:.2f} "
           f"spreads=({spread_lower:.2f}, {spread_upper:.2f})")


def test_criterion_08_symmetrization():
    t0 = time.time()
    rep = run_scenario("symmetrization", samples=800, seed=3)
    ok = all(pt["holds"] for pt in rep.points)
    report(8, "symmetric-sign mean <= 2 iid mean + 4 stderr on 10 matrices",
           ok, time.time() - t0, 300,
           f"max sym/iid={max(pt['ratio'] for pt in rep.points):.2f}")


def test_criterion_09_hitczenko_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(9)
    violations = 0
    worst = (1.0, 1.0)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        a = rng.standard_normal(n)
        for p in (1, 2, 4, 8):
            total = hitczenko_surrogate(a, p).total
            exact = exact_lp_enumeration(a, p)
            ratio = exact / total
            worst = (min(worst[0], ratio), max(worst[1], ratio))
            if not (0.1 <= ratio <= 10.0):
                violations += 1
    report(9, "exact L_p within [0.1, 10] of the surrogate on 50 vectors",
           violations == 0, time.time() - t0, 120,
           f"ratio range=[{worst[0]:.3f}, {worst[1]:.3f}]")


def test_criterion_10_moment_equivalence():
    t0 = time.time()
    rep = run_scenario("moment_equivalence", samples=600, seed=5)
    ratios = [pt["ratio"] for pt in rep.points]
    ok = all(1 / 3 <= r <= 3 for r in ratios)
    report(10, "Log-n moment within factor 3 of mean + R estimate (0/1 corpus)",
           ok, time.time() - t0, 600,
           f"ratio range=[{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    from radnorm.cli import main
    from radnorm.matio import dump_json

    mfile = tmp_path / "m.json"
    dump_json(WeightMatrix(np.ones((6, 6)) - np.eye(6), symmetric=True), mfile)
    outs = []
    for threads in ("1", "4"):
        for rep_i in range(2):
            out = tmp_path / f"mc_{threads}_{rep_i}.json"
            assert main(["mc", "--input", str(mfile), "--samples", "4000",
                         "--seed", "11", "--p", "2,8", "--threads", threads,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
    prof_outs = []
    for rep_i in range(2):
        out = tmp_path / f"prof_{rep_i}.json"
        assert main(["profile", "--input", str(mfile), "--seed", "2",
                     "--out", str(out)]) == 0
        prof_outs.append(out.read_bytes())
    ok = len(set(outs)) == 1 and len(set(prof_outs)) == 1
    report(11, "byte-identical JSON across repeat runs and --threads",
           ok, time.time() - t0, 60)
