import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from radnorm.bounds import (
    EngineConfig,
    bound_profile,
    bvh_bound,
    ksweep_term,
    r_estimate,
    r_exact_01,
    r_heuristic,
    seginer_bound,
    trivial_degree_bound,
)
from radnorm.core import EdgeSet, WeightMatrix, log_clamped
from radnorm.corpus import corpus_mixed
from radnorm.families import block_plus_singletons, union_complete
from radnorm.oracles import subgraph_norm_enum
from radnorm.sampler import mc_norm


def full_block_edges(d, n=None):
    n = n or d
    return EdgeSet(n, tuple((i, j) for i in range(d) for j in range(d)))


class TestClosedFormBounds:
    def test_seginer_identity_2(self):
        # Log 2 clamps to 1, rows and columns have unit norms
        assert seginer_bound(WeightMatrix(np.eye(2))) == pytest.approx(2.0)

    def test_seginer_all_ones_3(self):
        want = math.log(3) ** 0.25 * 2 * math.sqrt(3)
        assert seginer_bound(WeightMatrix(np.ones((3, 3)))) == pytest.approx(want)

    def test_seginer_zero(self):
        assert seginer_bound(WeightMatrix(np.zeros((4, 4)))) == 0.0

    def test_bvh_all_ones_2(self):
        got = bvh_bound(WeightMatrix(np.ones((2, 2))))
        assert got == pytest.approx(2 * math.sqrt(2) + 1)

    def test_bvh_zero(self):
        assert bvh_bound(WeightMatrix(np.zeros((3, 3)))) == 0.0

    def test_bvh_single_entry(self):
        assert bvh_bound(WeightMatrix([[5.0]])) == pytest.approx(15.0)

    def test_trivial_degree_k3(self):
        A = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]], symmetric=True)
        assert trivial_degree_bound(A) == 2.0

    def test_trivial_degree_zero(self):
        assert trivial_degree_bound(WeightMatrix(np.zeros((3, 3)))) == 0.0

    def test_trivial_degree_complete(self):
        d = 5
        A = union_complete(1, d).weight_matrix()
        assert trivial_degree_bound(A) == float(d)


class TestRExact01:
    def test_full_block_p4(self):
        # brute force over all subsets of up to 4 of the 9 pairs: a 2x2
        # all-ones block is optimal with norm 2
        br = r_exact_01(full_block_edges(3), 4)
        assert br.lower == pytest.approx(2.0, abs=1e-12)
        assert br.upper == br.lower and br.certified

    def test_p1_single_entry(self):
        br = r_exact_01(EdgeSet(4, ((0, 1), (2, 3), (1, 1))), 1)
        assert br.lower == pytest.approx(1.0)

    def test_full_block_p9_whole_set(self):
        br = r_exact_01(full_block_edges(3), 9)
        assert br.lower == pytest.approx(3.0)

    def test_floor_p_cut(self):
        a = r_exact_01(full_block_edges(3), 4.0)
        b = r_exact_01(full_block_edges(3), 4.9)
        assert a.lower == b.lower

    def test_p_validation(self):
        with pytest.raises(ValueError):
            r_exact_01(full_block_edges(2), 0.5)

    def test_empty_set(self):
        br = r_exact_01(EdgeSet(3, ()), 2)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4]
            if not pairs:
                continue
            E = EdgeSet(n, tuple(pairs))
            vals = [r_exact_01(E, p).lower for p in range(1, 7)]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_equals_oracle_small(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            count = int(rng.integers(1, 13))
            allp = [(i, j) for i in range(n) for j in range(n)]
            idx = rng.choice(len(allp), size=min(count, len(allp)), replace=False)
            E = EdgeSet(n, tuple(allp[i] for i in idx))
            p = int(rng.integers(1, 7))
            br = r_exact_01(E, p)
            assert br.certified
            assert br.lower == pytest.approx(subgraph_norm_enum(E, p), abs=1e-9)

    def test_budget_truncation_flags_lower_only(self):
        # a large sparse random support with a tiny node budget
        rng = np.random.default_rng(47)
        pairs = {(int(rng.integers(40)), int(rng.integers(40))) for _ in range(160)}
        E = EdgeSet(40, tuple(pairs))
        br = r_exact_01(E, 6, budget_cap=50)
        assert br.lower <= br.upper + 1e-12
        if not br.certified:
            full = r_exact_01(E, 6, budget_cap=10 ** 8)
            assert br.lower <= full.lower + 1e-9
            assert full.lower <= br.upper + 1e-9

    def test_p_at_least_edges_gives_full_norm(self):
        E = EdgeSet(4, ((0, 1), (1, 2), (2, 3)))
        want = float(np.linalg.svd(E.indicator().entries, compute_uv=False)[0])
        assert r_exact_01(E, 10).lower == pytest.approx(want)

    def test_whole_set_beyond_full_decomposition_is_certified(self):
        # K_{20,20} + K_{18,20} + 500 diagonal singletons: side 540 is past
        # FULL_DECOMPOSITION_MAX, where fixed power steps would not reach
        # 20 exactly (the gap to sqrt(360) is small); the whole-set value
        # is the kernel's exact one, so the bracket is certified
        pairs = [(i, j) for i in range(20) for j in range(20)]
        pairs += [(20 + i, 20 + j) for i in range(18) for j in range(20)]
        pairs += [(i, i) for i in range(40, 540)]
        E = EdgeSet(540, tuple(pairs))
        want = float(np.linalg.svd(E.indicator().entries, compute_uv=False)[0])
        br = r_exact_01(E, len(pairs))
        assert br.certified and br.upper == br.lower
        eps = np.finfo(float).eps
        np.testing.assert_allclose(br.lower, want, rtol=16 * eps, atol=0)

    def test_branch_and_bound_equals_enumeration(self):
        # exercise the connected-subset search itself against the dumb
        # oracle, |E| <= 12 and p <= 6; the star seed and the caps settle
        # most sets before the recursion, so 100 sets leave it a few dozen
        from radnorm import bounds

        rng = np.random.default_rng(59)
        searched = 0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            count = int(rng.integers(2, 13))
            allp = [(i, j) for i in range(n) for j in range(n)]
            idx = rng.choice(len(allp), size=min(count, len(allp)), replace=False)
            pairs = sorted(allp[i] for i in idx)
            p = int(rng.integers(1, 7))
            m = min(p, len(pairs))
            if m >= len(pairs):
                continue
            rows, cols = (np.array(x) for x in zip(*pairs))
            with mock.patch.object(bounds, "top_values", wraps=bounds.top_values) as spy:
                value, complete, _ = bounds._search_01(rows, cols, m, 10 ** 8)
            # more than the whole-set value: the recursion scored a leaf
            searched += spy.call_count > 1
            assert complete
            E = EdgeSet(n, tuple(pairs))
            assert value == pytest.approx(subgraph_norm_enum(E, p), abs=1e-9)
        assert searched >= 10

    @pytest.mark.parametrize("E, p, budget", [
        (union_complete(2, 3).matrix, 4, 50),
        (block_plus_singletons(16, 4).matrix, 8, 200),
    ])
    def test_search_stops_certified_at_the_cap(self, E, p, budget):
        # the best set reaches sqrt(m) inside a root's recursion, long
        # before the node budget runs out
        br = r_exact_01(E, p, budget_cap=budget)
        assert br.certified
        assert br.upper == br.lower == pytest.approx(math.sqrt(p), abs=1e-12)


class TestRHeuristic:
    def test_single_entry(self):
        br = r_heuristic(WeightMatrix([[1.0]]), 4, seed=1)
        assert br.lower == pytest.approx(1.0)
        assert br.loose_constants and not br.certified

    def test_zeroed_diagonal_support(self):
        A = WeightMatrix(np.zeros((2, 2)))
        br = r_heuristic(A, 2, seed=1)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_all_ones_seed_floor(self):
        # the basis-pair seed alone scores the surrogate of one coefficient
        A = WeightMatrix(np.ones((4, 4)))
        br = r_heuristic(A, 2, seed=1)
        assert br.lower >= 1.0 - 1e-12

    def test_bracket_order_on_corpus(self):
        for name, A in corpus_mixed()[:12]:
            br = r_heuristic(A, log_clamped(A.n_rows), seed=2)
            assert br.lower <= br.upper + 1e-9, name

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            r_heuristic(WeightMatrix([[1.0]]), 2, restarts=0)


class TestKsweep:
    def test_zero_matrix(self):
        value, table = ksweep_term(WeightMatrix(np.zeros((4, 4))))
        assert value == 0.0
        assert all(row["value"] == 0.0 for row in table)

    def test_single_edge_n2(self):
        # at every k >= 1 the inner min may remove an endpoint, killing
        # the only entry, so the whole term vanishes
        A = EdgeSet(2, ((0, 1),)).indicator()
        value, table = ksweep_term(A)
        assert value == 0.0
        assert [row["k"] for row in table] == [1, 2]
        assert table[0]["mode"] == "exact"

    def test_grid_is_doubling_plus_n(self):
        A = WeightMatrix(np.zeros((12, 12)))
        _, table = ksweep_term(A)
        assert [row["k"] for row in table] == [1, 2, 4, 8, 12]

    def test_published_min_monotone_at_fixed_moment(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            n = int(rng.integers(4, 10))
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
            _, table = ksweep_term(WeightMatrix(a))
            seen = {}
            for row in table:
                p = row["moment"]
                if p in seen:
                    assert row["value"] <= seen[p] + 1e-12
                seen[p] = row["value"]

    def test_exact_leq_greedy(self):
        # forcing the greedy path can never undershoot the exact min
        inst = block_plus_singletons(10, 3)
        A = inst.weight_matrix()
        exact_cfg = EngineConfig(exact_threshold=10 ** 6)
        greedy_cfg = EngineConfig(exact_threshold=0)
        v_exact, t_exact = ksweep_term(A, exact_cfg)
        v_greedy, t_greedy = ksweep_term(A, greedy_cfg)
        for re_, rg in zip(t_exact, t_greedy):
            if rg["mode"].startswith("greedy") and re_["mode"] == "exact":
                assert re_["value"] <= rg["value"] + 1e-9

    def test_greedy_matches_exact_on_block_family(self):
        # the block-plus-singletons instance: greedy removal should find
        # the block, matching the exact inner min at every grid point
        for n, d in [(8, 2), (12, 3)]:
            A = block_plus_singletons(n, d).weight_matrix()
            v_exact, t_exact = ksweep_term(A, EngineConfig(exact_threshold=10 ** 6))
            v_greedy, t_greedy = ksweep_term(A, EngineConfig(exact_threshold=0))
            assert v_greedy == pytest.approx(v_exact, abs=1e-9)
            for re_, rg in zip(t_exact, t_greedy):
                assert rg["value"] == pytest.approx(re_["value"], abs=1e-9)

    def test_removed_sets_reported_one_based(self):
        A = EdgeSet(2, ((0, 1),)).indicator()
        _, table = ksweep_term(A)
        for row in table:
            assert all(1 <= i <= 2 for i in row["removed"])


class TestBoundProfile:
    def test_zero_matrix(self):
        prof = bound_profile(WeightMatrix(np.zeros((3, 3))))
        assert prof.lower_profile == 0.0
        assert prof.conjectured_upper_profile == 0.0
        assert prof.seginer == 0.0 and prof.bvh == 0.0

    def test_k3(self):
        A = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]], symmetric=True)
        prof = bound_profile(A)
        assert prof.row_max == pytest.approx(math.sqrt(2))
        assert prof.col_max == pytest.approx(math.sqrt(2))
        assert prof.trivial_degree == 2.0
        assert prof.mode == "exact01"

    def test_whole_set_eigensolves_only_where_they_can_lower_the_cap(self):
        # a 0/1 search takes the eigensolve of its whole set only when a
        # 3-step power bound leaves it able to lower the cap; without that
        # gate this profile runs 99 eigensolves at side >= 100
        A = dict(corpus_mixed())["block_singletons_n128_d5"]
        eigvalsh = np.linalg.eigvalsh
        sides = []

        def counted(a, *args, **kwargs):
            sides.append(a.shape[-1])
            return eigvalsh(a, *args, **kwargs)

        with mock.patch("numpy.linalg.eigvalsh", counted):
            bound_profile(A)
        assert sum(side >= 100 for side in sides) <= 33

    def test_union_complete_cross_check(self):
        inst = union_complete(4, 3)
        A = inst.weight_matrix()
        prof = bound_profile(A)
        n, d = 16, 3
        assert prof.row_max == pytest.approx(math.sqrt(d))
        assert prof.seginer == pytest.approx(
            log_clamped(n) ** 0.25 * 2 * math.sqrt(d)
        )
        assert prof.bvh == pytest.approx(2 * math.sqrt(d) + math.sqrt(log_clamped(n)))
        assert prof.trivial_degree == float(d)
        assert prof.lower_profile == pytest.approx(
            prof.row_max + prof.col_max + prof.ksweep_value
        )
        assert prof.conjectured_upper_profile == prof.lower_profile
        # the k-sweep term for this family sits at the min(d, sqrt(Log k))
        # scale; at n = 16 that is between 1 and d
        assert 1.0 - 1e-9 <= prof.ksweep_value <= d + 1e-9

    def test_named_log_factors(self):
        A = union_complete(2, 2).weight_matrix()
        prof = bound_profile(A)
        assert prof.loglog_degree_upper == pytest.approx(
            log_clamped(log_clamped(prof.degree)) * (prof.row_max + prof.r_logn.upper)
        )
        assert prof.logloglog_upper == pytest.approx(
            log_clamped(log_clamped(log_clamped(prof.n)))
            * (prof.row_max + prof.col_max + prof.r_logn.upper)
        )

    def test_json_round_trip_keys(self):
        prof = bound_profile(WeightMatrix(np.eye(3)))
        d = prof.to_json_dict()
        assert d["flags"]["mode"] in ("exact01", "heuristic")
        assert isinstance(d["ksweep"]["table"], list)
        assert d["flags"]["grid"] == [row["k"] for row in d["ksweep"]["table"]]

    def test_lower_profile_tracks_mc_on_sample(self):
        # constant-level check on a few corpus instances: profile within a
        # factor 10 of the Monte Carlo mean, both directions
        for name, A in corpus_mixed()[:6]:
            prof = bound_profile(A)
            est = mc_norm(A, "rademacher_iid", 400, 3)
            if est.mean == 0:
                continue
            ratio = prof.lower_profile / est.mean
            assert 0.1 <= ratio <= 10.0, (name, ratio)


class TestREstimateDispatch:
    def test_zero_one_routes_exact(self):
        A = union_complete(2, 2).weight_matrix()
        br = r_estimate(A, 3.0)
        assert br.mode == "exact01"

    def test_one_magnitude_routes_exact_scaled(self):
        A = union_complete(2, 2).weight_matrix()
        base = r_estimate(A, 3.0)
        br = r_estimate(WeightMatrix(-3.0 * A.entries), 3.0)
        assert br.mode == "exact01" and br.certified
        assert br.lower == 3.0 * base.lower and br.upper == 3.0 * base.upper

    def test_weighted_routes_heuristic(self):
        A = WeightMatrix(np.random.default_rng(3).standard_normal((5, 5)))
        br = r_estimate(A, 3.0)
        assert br.mode == "heuristic"


def _invariance_cases():
    k8 = np.ones((8, 8)) - np.eye(8)
    blocks = block_plus_singletons(64, 3).weight_matrix().entries
    cases = {"ones3": np.ones((3, 3)), "k8": k8, "block_singletons_n64_d3": blocks}
    return [pytest.param(a, id=name) for name, a in cases.items()]


class TestProfileInvariance:
    """The profile depends on |a_ij| only, and scales with a."""

    @pytest.mark.parametrize("a", _invariance_cases())
    def test_sign_flips(self, a):
        base = bound_profile(WeightMatrix(a)).lower_profile
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=a.shape)
        assert bound_profile(WeightMatrix(-a)).lower_profile == base
        assert bound_profile(WeightMatrix(signs * a)).lower_profile == base

    @pytest.mark.parametrize("a", _invariance_cases())
    def test_power_of_two_scaling(self, a):
        base = bound_profile(WeightMatrix(a)).lower_profile
        for j in (-30, 30):
            got = bound_profile(WeightMatrix(np.ldexp(a, j))).lower_profile
            assert got == np.ldexp(base, j)

    def test_r_heuristic_is_finite_and_exact_at_2_700(self):
        # the squares of 2^700 a overflow unless the input is normalized
        a = dict(corpus_mixed())["dense_gauss_n16"].entries
        base = r_heuristic(WeightMatrix(a), 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = r_heuristic(WeightMatrix(np.ldexp(a, 700)), 3.0)
        assert math.isfinite(got.upper)
        assert got.lower == np.ldexp(base.lower, 700)
        assert got.upper == np.ldexp(base.upper, 700)

    def test_ksweep_term_is_finite_and_exact_at_2_700(self):
        a = dict(corpus_mixed())["dense_gauss_n16"].entries
        config = EngineConfig(exact_threshold=20)  # exact and greedy rows
        value, table = ksweep_term(WeightMatrix(a), config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_table = ksweep_term(WeightMatrix(np.ldexp(a, 700)), config)
        assert math.isfinite(got)
        assert got == np.ldexp(value, 700)
        assert got_table == [{**row, "value": float(np.ldexp(row["value"], 700))}
                             for row in table]

    @pytest.mark.parametrize("j", [-660, 660])
    def test_extreme_scale_is_exact_and_finite(self, j):
        # general weights with max|a| in [1/2, 1); the low threshold gives
        # greedy rows as well as exact ones
        g = np.random.default_rng(8).standard_normal((12, 12))
        a = 0.75 * g / np.abs(g).max()
        config = EngineConfig(exact_threshold=20)
        base = bound_profile(WeightMatrix(a), config).to_json_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bound_profile(WeightMatrix(np.ldexp(a, j)), config).to_json_dict()
        json.dumps(got, allow_nan=False)
        for key in ("row_max", "col_max", "max_abs", "seginer", "bvh", "trivial_degree",
                    "lower_profile", "conjectured_upper_profile", "loglog_degree_upper",
                    "logloglog_upper"):
            assert got[key] == np.ldexp(base[key], j), key
        for key in ("lower", "upper"):
            assert got["r_logn"][key] == np.ldexp(base["r_logn"][key], j)
        assert got["ksweep"]["value"] == np.ldexp(base["ksweep"]["value"], j)
        modes = set()
        for row, ref in zip(got["ksweep"]["table"], base["ksweep"]["table"], strict=True):
            assert row["value"] == np.ldexp(ref["value"], j)
            assert (row["removed"], row["mode"]) == (ref["removed"], ref["mode"])
            modes.add(row["mode"])
        assert {"exact", "greedy"} <= modes
