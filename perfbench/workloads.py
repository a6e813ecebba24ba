"""The benchmark's workloads: fixed inputs and the CLI operations of one
round.

Inputs are the fixed `corpus_mixed` matrices; only the seed passed to
`--seed` of `profile`, `mc` and `verify` comes from the benchmark's seed
argument.  Operation sizes are chosen so that one round takes a few
seconds on a 2-core box and a run holds several rounds; see README.md
for why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Where set-up writes the input files, relative to the checkout root.
INPUT_DIR = os.path.join("perfbench", "out", "inputs")

PROFILE_ENUM = ("circulant_n16", "dense_gauss_n16", "sym_gauss_n16")
PROFILE_SEARCH = ("sparse_gauss_n128", "block_singletons_n128_d5")
MC_DENSE = ("dense_gauss_n128", "sparse_gauss_n256")

#: Tiny all-ones inputs: the warm-up call and the Monte Carlo oracle.
ONES = {"ones_2x2": 2, "ones_3x3": 3}

WORKLOADS = ("profile_enum", "profile_search", "mc_blocks", "mc_dense")
MC_WORKLOADS = ("mc_blocks", "mc_dense")
#: Workloads whose operation times are not scaled by the host factor:
#: mc_dense's large batched SVDs slow down far less than the calibration
#: task when the host is busy, so scaling would add noise (README.md).
UNSCALED_WORKLOADS = ("mc_dense",)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `name` keys its reference output."""

    name: str
    argv: tuple


def input_path(name: str) -> str:
    return os.path.join(INPUT_DIR, f"{name}.json")


def ops(workload: str, seed: int) -> list:
    """The operations of one round of `workload`, in order."""
    s = str(seed)
    if workload == "profile_enum":
        # --exact-threshold 150 enumerates the k = 1 and k = 2 grid rows
        # exactly (16 + 120 subsets) and leaves k = 4 and k = 8 to greedy
        return [Op(f"profile:{m}", ("profile", "--input", input_path(m),
                                    "--exact-threshold", "150", "--seed", s))
                for m in PROFILE_ENUM]
    if workload == "profile_search":
        return [Op(f"profile:{m}", ("profile", "--input", input_path(m), "--seed", s))
                for m in PROFILE_SEARCH]
    if workload == "mc_blocks":
        return [Op("verify:union_complete_regimes",
                   ("verify", "--scenario", "union_complete_regimes", "--samples", "200",
                    "--n-cap", "1024", "--threads", "1", "--seed", s))]
    if workload == "mc_dense":
        return [Op(f"mc:{m}", ("mc", "--input", input_path(m), "--mode", "gaussian",
                               "--p", "2,8,40", "--samples", "300", "--threads", "2",
                               "--seed", s))
                for m in MC_DENSE]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str) -> Op:
    """A tiny call on the same command path, made once during set-up."""
    path = input_path("ones_3x3")
    if workload in MC_WORKLOADS:
        return Op("warmup", ("mc", "--input", path, "--samples", "100", "--threads", "1"))
    return Op("warmup", ("profile", "--input", path))


def oracle_ops(seed: int) -> list:
    """Pairs of (Monte Carlo op, exact-expectation op) on the all-ones inputs."""
    pairs = []
    for name in ONES:
        path = input_path(name)
        pairs.append((
            Op(f"oracle-mc:{name}", ("mc", "--input", path, "--mode", "rademacher_iid",
                                     "--samples", "4000", "--threads", "1",
                                     "--seed", str(seed))),
            Op(f"oracle-exact:{name}", ("oracle", "--input", path, "--quantity",
                                        "exact_expectation", "--mode", "rademacher_iid")),
        ))
    return pairs


def write_inputs(workload: str) -> None:
    """Build the workload's input matrices and write them as JSON files."""
    import numpy as np
    from radnorm.core import WeightMatrix
    from radnorm.corpus import corpus_mixed
    from radnorm.matio import dump_json

    os.makedirs(INPUT_DIR, exist_ok=True)
    needed = {"profile_enum": PROFILE_ENUM, "profile_search": PROFILE_SEARCH,
              "mc_dense": MC_DENSE}.get(workload, ())
    corpus = dict(corpus_mixed())
    for name in needed:
        dump_json(corpus[name], input_path(name))
    for name, n in ONES.items():
        dump_json(WeightMatrix(np.ones((n, n))), input_path(name))
