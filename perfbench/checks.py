"""Output checks for the benchmark's operations.

Three kinds, each returning a list of problems (empty when the output
passes):

* `compare`: against the reference output recorded for the reference
  seed.  Numbers match within RTOL relative (ATOL absolute near zero),
  which a wrong answer fails and a reordered float sum passes; the
  subtrees under EXACT_KEYS (`flags`, the k-sweep `mode`, `removed`) and
  all strings, booleans and nulls must match exactly.
* `seed_free`: for any other seed.  The fields that do not depend on the
  seed are compared with the reference in the same way, and the output's
  internal invariants are checked.
* `oracle`: a Monte Carlo mean must lie within ORACLE_SIGMAS standard
  errors of the exact expectation computed by enumeration.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-9
ATOL = 1e-12
EXACT_KEYS = frozenset({"flags", "mode", "removed"})
ORACLE_SIGMAS = 4.0

#: Profile fields that depend on the matrix only, never on the seed.
PROFILE_SEED_FREE = ("n", "row_max", "col_max", "max_abs", "degree", "seginer",
                     "bvh", "trivial_degree", "flags")


def compare(ref, out, path: str = "", exact: bool = False) -> list:
    """Differences between a reference JSON value and an output value."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            return [f"{path}: keys differ"]
        problems = []
        for key in ref:
            problems += compare(ref[key], out[key], f"{path}.{key}",
                                exact or key in EXACT_KEYS)
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{path}: list length differs"]
        problems = []
        for k, (r, o) in enumerate(zip(ref, out)):
            problems += compare(r, o, f"{path}[{k}]", exact)
        return problems
    numeric = (isinstance(ref, (int, float)) and not isinstance(ref, bool)
               and isinstance(out, (int, float)) and not isinstance(out, bool))
    if numeric and not exact:
        if math.isclose(ref, out, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {out!r} differs from reference {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{path}: {out!r} differs from reference {ref!r}"]
    return []


def _without_seed(payload: dict) -> dict:
    payload = dict(payload)
    payload["flags"] = {k: v for k, v in payload["flags"].items() if k != "seed"}
    return payload


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _profile_invariants(prof: dict) -> list:
    problems = []
    table = prof["ksweep"]["table"]
    if not _close(prof["ksweep"]["value"], max(row["value"] for row in table)):
        problems.append("ksweep.value is not the table maximum")
    if not _close(prof["lower_profile"],
                  prof["row_max"] + prof["col_max"] + prof["ksweep"]["value"]):
        problems.append("lower_profile is not row_max + col_max + ksweep")
    if prof["r_logn"]["lower"] > prof["r_logn"]["upper"] * (1 + RTOL) + ATOL:
        problems.append("r_logn bracket out of order")
    if [row["k"] for row in table] != prof["flags"]["grid"]:
        problems.append("ksweep grid disagrees with the table")
    return problems


def seed_free(ref: dict, out: dict, seed: int) -> list:
    """Checks of an output at a seed that has no reference of its own."""
    command = out.get("command")
    if command != ref.get("command"):
        return ["command differs from reference"]
    problems = compare(_without_seed(ref)["flags"], _without_seed(out)["flags"], ".flags",
                       exact=True)
    if out["flags"].get("seed") != seed:
        problems.append(".flags.seed is not the run's seed")
    if command == "profile":
        rp, op = ref["profile"], out["profile"]
        if rp["flags"]["mode"] == "exact01":
            # the 0/1 path is exact search: nothing in it uses the seed
            problems += compare(rp, op, ".profile")
        else:
            for key in PROFILE_SEED_FREE:
                problems += compare(rp[key], op[key], f".profile.{key}")
            problems += compare(rp["r_logn"]["upper"], op["r_logn"]["upper"],
                                ".profile.r_logn.upper")
            problems += compare([(r["k"], r["moment"], r["mode"]) for r in rp["ksweep"]["table"]],
                                [(r["k"], r["moment"], r["mode"]) for r in op["ksweep"]["table"]],
                                ".profile.ksweep.table[k, moment, mode]")
        problems += _profile_invariants(op)
    elif command == "mc":
        est = out["estimate"]
        problems += compare(ref["estimate"]["samples"], est["samples"], ".estimate.samples")
        if est["seed"] != seed:
            problems.append(".estimate.seed is not the run's seed")
        if not (est["mean"] > 0 and est["stderr"] >= 0):
            problems.append(".estimate: mean must be positive, stderr nonnegative")
        # power means of one sample set never decrease with p
        chain = [est["mean"]] + [m["estimate"] for _, m in
                                 sorted(est["p_moments"].items(), key=lambda kv: float(kv[0]))]
        if any(b < a * (1 - RTOL) for a, b in zip(chain, chain[1:])):
            problems.append(".estimate moments decrease with p")
    elif command == "verify":
        rr, orep = ref["report"], out["report"]
        if orep["seed"] != seed:
            problems.append(".report.seed is not the run's seed")
        problems += compare(rr["grid"], orep["grid"], ".report.grid")
        if len(rr["points"]) != len(orep["points"]):
            return problems + [".report.points: length differs"]
        for k, (rp, op) in enumerate(zip(rr["points"], orep["points"])):
            for key in ("family", "params", "predicted", "formula", "samples", "bounds"):
                problems += compare(rp[key], op[key], f".report.points[{k}].{key}")
            if not (op["mc_mean"] > 0 and op["mc_stderr"] >= 0):
                problems.append(f".report.points[{k}]: mean must be positive, "
                                "stderr nonnegative")
            if op["ratio"] is not None and not _close(op["ratio"], op["mc_mean"] / op["predicted"]):
                problems.append(f".report.points[{k}].ratio is not mc_mean / predicted")
        ratios = [p["ratio"] for p in orep["points"] if p["ratio"] is not None]
        if ratios and not (_close(orep["summary"]["min_ratio"], min(ratios))
                           and _close(orep["summary"]["max_ratio"], max(ratios))):
            problems.append(".report.summary disagrees with the points")
    else:
        problems.append(f"no seed-free check for command {command!r}")
    return problems


def oracle(mc_text: str, exact_text: str) -> list:
    """The Monte Carlo mean must land near the enumerated expectation."""
    est = json.loads(mc_text)["estimate"]
    exact = json.loads(exact_text)["value"]
    gap = abs(est["mean"] - exact)
    if gap <= ORACLE_SIGMAS * est["stderr"]:
        return []
    return [f"mc mean {est['mean']!r} is {gap / est['stderr']:.2f} stderr from exact {exact!r}"]
