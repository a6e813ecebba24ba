"""Command line interface.

Subcommands: profile, mc, family, verify, oracle.  Exit codes: 0 success,
2 usage or parse error, 3 resource cap (a failed allocation included), 4
numeric failure (a non-finite number in the output included, which JSON
cannot hold, and a Monte Carlo norm outside its bound range).  Outputs are
deterministic for a fixed flag set; --threads (default 1) only caps
workers and never changes a byte of output, so it is not echoed.

The choices and defaults come from the library: `profile` has one flag
per `EngineConfig` field and echoes them in field order, `mc --mode` and
`oracle --mode` offer `sampler.MODES` and `sampler.EXACT_MODES`, and
`family --family` offers the keys of `_FAMILIES`, which also dispatches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
from .sampler import EXACT_MODES, MODES, exact_small_norm_expectation, mc_norm
from .scenarios import SCENARIOS, run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4


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
    config = EngineConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(EngineConfig)})
    profile = bound_profile(A, config)
    payload = {
        "command": "profile",
        "flags": {"input": args.input, **dataclasses.asdict(config)},
        "profile": profile.to_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_mc(args) -> int:
    p_list = [float(x) for x in args.p.split(",")] if args.p else []
    if p_list and args.format == "csv":
        raise ValueError("--p needs --format json: a CSV row holds only the mean and stderr")
    A = load_input(args.input)  # the sampler reads an edge set's pairs as they are
    est = mc_norm(A, args.mode, args.samples, args.seed, args.threads, p_list)
    if args.format == "csv":
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            raise FloatingPointError("non-finite number in the output")
        header = "matrix_id,mode,samples,seed,mean,stderr\n"
        _emit(header + est.csv_row(args.matrix_id), args.out)
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


def _circulant(args):
    if not args.b:
        raise ValueError("circulant requires --b")
    return circulant(np.asarray([float(x) for x in args.b.split(",")]))


#: Each family's generator, called with the parsed `family` flags.
_FAMILIES = {
    "union_complete": lambda a: union_complete(a.m, a.d),
    "random_regular": lambda a: random_regular(a.n, a.d, a.seed),
    "large_girth": lambda a: large_girth_instance(a.n, a.d, a.g_target, a.seed),
    "one_cycle_neighborhood":
        lambda a: one_cycle_neighborhood_instance(a.n, a.d, a.r, a.seed),
    "block_plus_singletons": lambda a: block_plus_singletons(a.n, a.d),
    "circulant": _circulant,
}


def cmd_family(args) -> int:
    inst = _FAMILIES[args.family](args)
    payload = {
        "command": "family",
        "flags": {"family": args.family, "seed": args.seed},
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
    else:
        value = x_quantity(_load_matrix(args.input))
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
    for f in dataclasses.fields(EngineConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("mc", help="Monte Carlo norm estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="rademacher_iid", choices=MODES)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--p", default="", help="comma-separated moment orders")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--matrix-id", default="matrix")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("family", help="generate an example-family instance")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
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
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force oracle quantities")
    p.add_argument("--input", required=True)
    p.add_argument("--quantity", required=True,
                   choices=["subgraph_norm", "exact_expectation", "x_quantity"])
    p.add_argument("--p", type=float, default=1,
                   help="subgraph_norm: subsets of at most floor(p) positions; "
                        "finite and nonnegative")
    p.add_argument("--mode", default="rademacher_iid", choices=EXACT_MODES)
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
