"""Command line interface.

Subcommands: profile, mc, family, verify, oracle.  Exit codes: 0 success,
2 usage or parse error, 3 resource cap, 4 numeric failure (a non-finite
number in the output included, which JSON cannot hold).  Outputs are
deterministic for a fixed flag set; --threads (default from RNL_THREADS)
only caps workers and never changes a byte of output, so it is not echoed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import EngineConfig, bound_profile
from .core import CapExceededError, WeightMatrix, EdgeSet
from .families import (
    GenerationError,
    block_plus_singletons,
    circulant,
    large_girth_instance,
    one_cycle_neighborhood_instance,
    random_regular,
    union_complete,
)
from .matio import ParseError, load_input
from .oracles import subgraph_norm_enum, x_quantity
from .sampler import exact_small_norm_expectation, mc_norm, mc_norm_moments
from .scenarios import SCENARIOS, run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("RNL_THREADS", "1")))
    except ValueError:
        return 1


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    """Write the payload as strict JSON; a non-finite number is a numeric
    failure (exit 4) and writes nothing."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite number in the output ({exc})") from None
    _emit(text + "\n", out)


def _load_matrix(path: str) -> WeightMatrix:
    obj = load_input(path)
    return obj if isinstance(obj, WeightMatrix) else obj.indicator()


def cmd_profile(args) -> int:
    A = _load_matrix(args.input)
    config = EngineConfig(
        exact_threshold=args.exact_threshold,
        budget_cap=args.budget_cap,
        seed=args.seed,
        restarts=args.restarts,
    )
    profile = bound_profile(A, config)
    payload = {
        "command": "profile",
        "flags": {
            "input": args.input,
            "exact_threshold": args.exact_threshold,
            "budget_cap": args.budget_cap,
            "seed": args.seed,
            "restarts": args.restarts,
        },
        "profile": profile.to_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_mc(args) -> int:
    A = load_input(args.input)  # the sampler reads an edge set's pairs as they are
    p_list = [float(x) for x in args.p.split(",")] if args.p else []
    if p_list:
        est = mc_norm_moments(A, p_list, args.samples, args.seed,
                              mode=args.mode, threads=args.threads)
    else:
        est = mc_norm(A, args.mode, args.samples, args.seed, threads=args.threads)
    if args.format == "csv":
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            raise FloatingPointError("non-finite number in the output")
        header = "matrix_id,mode,samples,seed,mean,stderr\n"
        _emit(header + est.csv_row(args.matrix_id) + "\n", args.out)
        return EXIT_OK
    payload = {
        "command": "mc",
        "flags": {
            "input": args.input,
            "mode": args.mode,
            "samples": args.samples,
            "seed": args.seed,
            "p": p_list,
            "matrix_id": args.matrix_id,
        },
        "estimate": est.to_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _parse_b(text: str) -> np.ndarray:
    return np.asarray([float(x) for x in text.split(",")])


def cmd_family(args) -> int:
    fam = args.family
    if fam == "union_complete":
        inst = union_complete(args.m, args.d)
    elif fam == "random_regular":
        inst = random_regular(args.n, args.d, args.seed)
    elif fam == "large_girth":
        inst = large_girth_instance(args.n, args.d, args.g_target, args.seed)
    elif fam == "one_cycle_neighborhood":
        inst = one_cycle_neighborhood_instance(args.n, args.d, args.r, args.seed)
    elif fam == "block_plus_singletons":
        inst = block_plus_singletons(args.n, args.d)
    elif fam == "circulant":
        if not args.b:
            raise ValueError("circulant requires --b")
        inst = circulant(_parse_b(args.b))
    else:
        raise ValueError(f"unknown family {fam!r}")
    payload = {
        "command": "family",
        "flags": {"family": fam, "seed": args.seed},
        "instance": inst.to_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


#: The scenarios that take a size, with the keyword --n-cap sets.
_SIZED_SCENARIOS = {"union_complete_regimes": "n_cap", "block_counterexample": "n"}


def cmd_verify(args) -> int:
    kwargs = {}
    if args.n_cap is not None:
        if args.scenario not in _SIZED_SCENARIOS:
            raise ValueError(f"--n-cap applies only to {', '.join(_SIZED_SCENARIOS)}")
        if args.n_cap < 1:
            raise ValueError(f"--n-cap must be at least 1, got {args.n_cap}")
        kwargs[_SIZED_SCENARIOS[args.scenario]] = args.n_cap
    report = run_scenario(
        args.scenario, samples=args.samples, seed=args.seed,
        threads=args.threads, **kwargs,
    )
    payload = {
        "command": "verify",
        "flags": {
            "scenario": args.scenario,
            "samples": args.samples,
            "seed": args.seed,
            "n_cap": args.n_cap,
        },
        "report": report.to_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if not np.isfinite(args.p) or args.p < 0:
        raise ValueError(f"--p must be finite and nonnegative, got {args.p}")
    if args.quantity == "subgraph_norm":
        obj = load_input(args.input)
        if isinstance(obj, WeightMatrix):
            obj = EdgeSet.from_matrix(obj)
        # |F| <= floor(p), as in r_exact_01
        value = subgraph_norm_enum(obj, math.floor(args.p))
    elif args.quantity == "exact_expectation":
        # an edge list's pairs are the cells, as in `mc`
        value = exact_small_norm_expectation(load_input(args.input), args.mode)
    elif args.quantity == "x_quantity":
        value = x_quantity(_load_matrix(args.input))
    else:
        raise ValueError(f"unknown oracle quantity {args.quantity!r}")
    payload = {
        "command": "oracle",
        "flags": {
            "input": args.input,
            "quantity": args.quantity,
            "p": args.p,
            "mode": args.mode,
        },
        "value": value,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radnorm",
        description="Bounds and Monte Carlo validation for spectral norms of "
                    "sign-modulated weight matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="evaluate every bound term for a matrix")
    p.add_argument("--input", required=True)
    engine = EngineConfig()
    p.add_argument("--exact-threshold", type=int, default=engine.exact_threshold)
    p.add_argument("--budget-cap", type=int, default=engine.budget_cap)
    p.add_argument("--restarts", type=int, default=engine.restarts)
    p.add_argument("--seed", type=int, default=engine.seed)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("mc", help="Monte Carlo norm estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="rademacher_iid",
                   choices=["rademacher_iid", "rademacher_symmetric", "gaussian"])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--p", default="", help="comma-separated moment orders")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--matrix-id", default="matrix")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("family", help="generate an example-family instance")
    p.add_argument("--family", required=True,
                   choices=["union_complete", "random_regular", "large_girth",
                            "one_cycle_neighborhood", "block_plus_singletons",
                            "circulant"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--g-target", type=int, default=4)
    p.add_argument("--b", default="", help="comma-separated circulant weights")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify", help="run a verification scenario")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n-cap", type=int, default=None)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force oracle quantities")
    p.add_argument("--input", required=True)
    p.add_argument("--quantity", required=True,
                   choices=["subgraph_norm", "exact_expectation", "x_quantity"])
    p.add_argument("--p", type=float, default=1,
                   help="subgraph_norm: subsets of at most floor(p) positions; "
                        "finite and nonnegative")
    p.add_argument("--mode", default="rademacher_iid",
                   choices=["rademacher_iid", "rademacher_symmetric"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # first: LinAlgError is a ValueError
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceededError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
