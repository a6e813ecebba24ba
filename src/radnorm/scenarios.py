"""Verification scenarios: run a family grid, estimate norms by Monte
Carlo, compare against the predicted scales, and summarize the ratio
spread.

Every scenario emits a ScenarioReport with one record per grid point.
Records always carry the seed and sample count that produced them, the
cheap bound terms, and the ratio of the Monte Carlo mean to the predicted
scale; the summary is the min, max, and spread (max over min) of those
ratios (the spread is null when the smallest ratio is 0).  All predicted
scales are constant-free, so only the spread is meaningful, never the
absolute level.

A family point hands the instance's own matrix to the sampler and to the
cheap bounds.  A 0/1 family is an EdgeSet, and both read its index
arrays (`sampler._cells`, `bounds.bound_inputs`), so no dense n x n
matrix is built for it.  `block_counterexample` marks each exact search
behind its published terms as certified or not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    EngineConfig,
    _exact_01,
    bound_inputs,
    bvh_bound,
    k_grid,
    r_estimate,
    seginer_bound,
    trivial_degree_bound,
)
from .core import log_clamped
from .corpus import corpus_symmetric, corpus_zero_one
from .families import (
    block_plus_singletons,
    circulant,
    expander_check,
    large_girth_instance,
    one_cycle_neighborhood_instance,
    random_regular,
    union_complete,
)
from .sampler import mc_norm
from .streams import check_seed


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    samples: int
    seed: int
    grid: list
    points: list
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "samples": self.samples,
            "seed": self.seed,
            "grid": self.grid,
            "points": self.points,
            "summary": self.summary,
        }


def _cheap_bounds(M) -> dict:
    """The closed-form bounds of a WeightMatrix or an EdgeSet."""
    inputs = bound_inputs(M)
    return {
        "seginer": seginer_bound(M, inputs),
        "bvh": bvh_bound(M, inputs),
        "trivial_degree": trivial_degree_bound(M, inputs),
    }


def _summarize(points: list, ratio_key: str = "ratio") -> dict:
    ratios = [pt[ratio_key] for pt in points if pt.get(ratio_key) is not None]
    if not ratios:
        return {"min_ratio": None, "max_ratio": None, "spread": None}
    lo, hi = min(ratios), max(ratios)
    return {
        "min_ratio": lo,
        "max_ratio": hi,
        "spread": hi / lo if lo > 0 else None,
    }


def _record(inst, est, **fields) -> dict:
    """A family grid point: the keys every family record shares, then the
    scenario's own `fields` in the order given."""
    return {
        "family": inst.family,
        "params": inst.params,
        "predicted": inst.predicted,
        "formula": inst.formula,
        "mc_mean": est.mean,
        "mc_stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "bounds": _cheap_bounds(inst.matrix),
        **fields,
    }


def _report(name: str, samples: int, seed: int, points: list) -> ScenarioReport:
    return ScenarioReport(name, samples, seed, [pt["params"] for pt in points],
                          points, _summarize(points))


def _family_point(inst, samples: int, seed: int, threads: int) -> dict:
    est = mc_norm(inst.matrix, "rademacher_iid", samples, seed, threads)
    ratio = est.mean / inst.predicted if inst.predicted > 0 else None
    return _record(inst, est, ratio=ratio)


def _grid_scenario(name: str, instances, samples, seed, threads) -> ScenarioReport:
    points = [_family_point(inst, samples, seed, threads) for inst in instances]
    return _report(name, samples, seed, points)


def scenario_union_complete_regimes(samples=2000, seed=1, threads=1, n_cap=2048,
                                    d_values=tuple(range(1, 9))) -> ScenarioReport:
    instances = [union_complete(max(1, n_cap // (d + 1)), d) for d in d_values]
    return _grid_scenario("union_complete_regimes", instances, samples, seed, threads)


def scenario_large_girth(samples=400, seed=1, threads=1) -> ScenarioReport:
    instances = [
        large_girth_instance(n, 3, g, seed + i)
        for i, (n, g) in enumerate([(64, 5), (128, 5), (256, 6)])
    ]
    return _grid_scenario("large_girth", instances, samples, seed, threads)


def scenario_tangle_free(samples=400, seed=1, threads=1) -> ScenarioReport:
    instances = [
        one_cycle_neighborhood_instance(n, 3, r, seed + i)
        for i, (n, r) in enumerate([(64, 2), (128, 2), (256, 3)])
    ]
    return _grid_scenario("tangle_free", instances, samples, seed, threads)


def scenario_random_regular(samples=400, seed=1, threads=1) -> ScenarioReport:
    instances = [
        random_regular(n, 3, seed + i) for i, n in enumerate([64, 128, 256])
    ]
    return _grid_scenario("random_regular", instances, samples, seed, threads)


def _expander_instance(n: int, seed: int):
    """random_regular(n, 3, seed) relabelled with its spectral gap lambda
    as the predicted scale."""
    inst = random_regular(n, 3, seed)
    d, lam = expander_check(inst.matrix)
    return dataclasses.replace(inst, family="expander", params={"n": n, "d": d},
                               predicted=lam, formula="lambda")


def scenario_expander(samples=400, seed=1, threads=1) -> ScenarioReport:
    instances = [_expander_instance(n, seed + i) for i, n in enumerate([64, 128, 256])]
    return _grid_scenario("expander", instances, samples, seed, threads)


def scenario_block_counterexample(samples=2000, seed=1, threads=1, n=2048) -> ScenarioReport:
    """The family where the one-sided upper scale overshoots the truth.

    Reports both the one-sided right-hand side (row + col + subgraph term
    at Log n) and the two-sided style right-hand side (row + col + the
    k-sweep surrogate, which for this family settles at the singleton
    norm), so the gap is visible point by point.  `subgraph_certified`
    says whether the subgraph term's exact search completed, and
    `ksweep_certified` whether every search of the k-sweep did; a search
    that hits `budget_cap` reports the best value it found.
    """
    log_n = log_clamped(n)
    d_lo = max(1, int(math.isqrt(int(log_n))))
    d_hi = max(d_lo, int(log_n))
    points = []
    config = EngineConfig()
    for d in range(d_lo, d_hi + 1):
        inst = block_plus_singletons(n, d)
        est = mc_norm(inst.matrix, "rademacher_iid", samples, seed, threads)
        row = math.sqrt(d)
        rows, cols = inst.matrix.index_arrays()
        subgraph = _exact_01(rows, cols, log_n, config.budget_cap)
        rhs_one_sided = row + row + subgraph.lower
        # k-sweep surrogate via the canonical removals (block rows first,
        # then singletons); each term upper-bounds the true inner min, and
        # the last grid point n removes everything
        ksweep = 0.0
        ksweep_certified = True
        for k in k_grid(n)[:-1]:
            kept = np.ones(n, dtype=bool)
            kept[:min(k, d)] = False
            kept[d:d + k - min(k, d)] = False
            on = kept[rows] & kept[cols]
            if on.any():
                term = _exact_01(rows[on], cols[on], log_clamped(k), config.budget_cap)
                ksweep = max(ksweep, term.lower)
                ksweep_certified &= term.certified
        rhs_two_sided = row + row + ksweep
        points.append(_record(
            inst, est,
            rhs_one_sided=rhs_one_sided,
            rhs_two_sided=rhs_two_sided,
            subgraph_term=subgraph.lower,
            subgraph_certified=subgraph.certified,
            ksweep_certified=ksweep_certified,
            ratio=rhs_one_sided / est.mean if est.mean > 0 else None,
            ratio_two_sided=rhs_two_sided / est.mean if est.mean > 0 else None,
        ))
    return _report("block_counterexample", samples, seed, points)


def scenario_circulant_chain(samples=600, seed=1, threads=1) -> ScenarioReport:
    """Sandwich check for circulant weights: ||b||_2 + R(Log n) below the
    Monte Carlo mean (up to constants) and the triple-log multiple above,
    for the eight basis vectors b = e_k of length n = 64.
    """
    n = 64
    config = EngineConfig()
    log_n = log_clamped(n)
    lll = log_clamped(log_clamped(log_clamped(n)))
    points = []
    for k in range(8):
        b = np.zeros(n)
        b[k] = 1.0
        inst = circulant(b)
        inst = dataclasses.replace(inst, params={"n": inst.params["n"], "index": k})
        est = mc_norm(inst.matrix, "rademacher_iid", samples, seed, threads)
        r = r_estimate(inst.matrix, log_n, config)
        chain_low = inst.predicted + r.lower
        chain_high = lll * (inst.predicted + r.lower)
        points.append(_record(
            inst, est,
            chain_low=chain_low,
            chain_high=chain_high,
            r_mode=r.mode,
            loose_constants=True,
            mc_within_chain=bool(chain_low / 10 <= est.mean <= 10 * chain_high),
            ratio=est.mean / chain_low if chain_low > 0 else None,
        ))
    return _report("circulant_chain", samples, seed, points)


def scenario_symmetrization(samples=800, seed=1, threads=1) -> ScenarioReport:
    """Symmetric-sign mean against twice the independent-sign mean."""
    points = []
    for name, A in corpus_symmetric():
        sym = mc_norm(A, "rademacher_symmetric", samples, seed, threads)
        iid = mc_norm(A, "rademacher_iid", samples, seed, threads)
        slack = 4.0 * (sym.stderr + iid.stderr)
        points.append(
            {
                "matrix": name,
                "params": {"n": A.n_rows},
                "sym_mean": sym.mean,
                "sym_stderr": sym.stderr,
                "iid_mean": iid.mean,
                "iid_stderr": iid.stderr,
                "samples": samples,
                "seed": seed,
                "holds": bool(sym.mean <= 2.0 * iid.mean + slack),
                "ratio": sym.mean / iid.mean if iid.mean > 0 else None,
            }
        )
    return _report("symmetrization", samples, seed, points)


def scenario_moment_equivalence(samples=600, seed=1, threads=1) -> ScenarioReport:
    """(E ||.||^{2 floor(Log n)})^{1/(2 floor(Log n))} against the mean plus
    the R-estimate at the same moment, on the 0/1 corpus."""
    config = EngineConfig()
    points = []
    for name, A in corpus_zero_one():
        n = A.n_rows
        p = 2 * int(log_clamped(n))
        est = mc_norm(A, "rademacher_iid", samples, seed, threads, p_list=[p])
        moment, moment_se = est.p_moments[float(p)]
        r = r_estimate(A, float(p), config)
        rhs = est.mean + r.lower
        points.append(
            {
                "matrix": name,
                "params": {"n": n, "p": p},
                "mc_mean": est.mean,
                "mc_stderr": est.stderr,
                "moment": moment,
                "moment_stderr": moment_se,
                "r_lower": r.lower,
                "r_certified": r.certified,
                "samples": samples,
                "seed": seed,
                "ratio": moment / rhs if rhs > 0 else None,
            }
        )
    return _report("moment_equivalence", samples, seed, points)


_DISPATCH = {
    "union_complete_regimes": scenario_union_complete_regimes,
    "large_girth": scenario_large_girth,
    "tangle_free": scenario_tangle_free,
    "random_regular": scenario_random_regular,
    "expander": scenario_expander,
    "block_counterexample": scenario_block_counterexample,
    "circulant_chain": scenario_circulant_chain,
    "symmetrization": scenario_symmetrization,
    "moment_equivalence": scenario_moment_equivalence,
}

SCENARIOS = tuple(_DISPATCH)


def run_scenario(name: str, samples: int | None = None, seed: int = 1,
                 threads: int = 1, **kwargs) -> ScenarioReport:
    if name not in _DISPATCH:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    fn = _DISPATCH[name]
    check_seed(seed)  # before any family is built or searched
    if samples is None:
        return fn(seed=seed, threads=threads, **kwargs)
    return fn(samples=samples, seed=seed, threads=threads, **kwargs)
