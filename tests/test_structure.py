"""Structural guard: each duplicated numeric decision lives in one module.

Top singular values and pairs come from the spectral kernel, and the
brute-force oracles keep their own independent SVD.  Every power-of-two
exponent is chosen by `spectral.pow2_scaled`, so `frexp` is named in the
kernel alone.  Exhaustive sign patterns come from `core.sign_patterns`,
and breadth-first search from `core.bfs_distances`.  A new copy of any of them elsewhere in the package
fails here, so a change of method stays a one-file change.  Edge sets are
built only where a support enters or leaves the program (input, families,
output).  Past that point a support travels as the edge set itself or as
its index arrays: the sampler's plan and the cheap bounds read an edge
set's cells without building its dense 0/1 matrix, and the bound engine
and the scenarios' exact searches carry index arrays.
scipy is named only in `streams`, which loads it for Gaussian draws alone,
so every other command runs on numpy and the standard library.
Comments and string literals are ignored.  Every `EngineConfig` knob is
also a `profile` flag, so no knob is left that no caller sets, and
library surface deleted because no result used it stays deleted.  The exact
0/1 search's star seed and cap are written once.
"""

import argparse
import dataclasses
import io
import pathlib
import os
import re
import subprocess
import sys
import tokenize

import pytest

import radnorm
from radnorm.bounds import EngineConfig
from radnorm.cli import build_parser

PACKAGE = pathlib.Path(radnorm.__file__).parent

RULES = {
    "singular value decomposition": (re.compile(r"\bsvd\b"), {"spectral.py", "oracles.py"}),
    "power iteration on A^T A": (re.compile(r"\.T\s*@\s*\("), {"spectral.py"}),
    "sign-pattern bit trick": (re.compile(r"\[\s*:\s*,\s*None\s*\]\s*>>"), {"core.py"}),
    "BFS frontier loop": (re.compile(r"frontier\s*=\s*nxt"), {"core.py"}),
    "edge-set construction": (re.compile(r"\bEdgeSet(\(|\.from_)"),
                              {"core.py", "families.py", "cli.py", "matio.py"}),
    "scipy import": (re.compile(r"\bscipy\b"), {"streams.py"}),
    "power-of-two exponent": (re.compile(r"\bfrexp\b"), {"spectral.py"}),
}


#: Names deleted because no result used them.
DELETED = ("trace_power_norm", "neighborhood_sets", "LevelSets", "level_sets",
           "dual_surrogate", "empirical_lp", "rearrange_desc", "greedy_cover",
           "sign_bilinear_max", "SignBilinearResult", "SIGN_SIDE_CAP",
           "witness_s", "witness_t", "_pairs_norm", "best_set",
           "_proxy_after_removal", "off_diagonal_max_abs", "_surrogate_stack",
           "_SubsetSearch", "_BudgetExhausted", "_CapReached", "_surrogate_at",
           "PROFILE_EXPONENT_MAX", "_SQUARE_SAFE", "mc_norm_moments",
           "_default_threads", "_pairs_value", "_MASK64")

#: The exact 0/1 search's star seed sqrt(min(max(rmax, cmax), m)) and cap
#: sqrt(min(rmax, m) * min(cmax, m)), with or without numpy: written once,
#: in `bounds._star_cap`, which the search and the greedy chain's degree
#: screen both call, so the screen cannot fork the rule.
STAR_CAP = {
    "star seed": re.compile(r"sqrt\(\s*(np\.)?min(imum)?\(\s*(np\.)?max(imum)?\("),
    "degree cap": re.compile(
        r"sqrt\(\s*(np\.)?min(imum)?\(\s*\w+\s*,\s*\w+\s*\)\s*\*\s*(np\.)?min(imum)?\("),
}


def code_only(path: pathlib.Path) -> str:
    """The file's source with comments and string literals blanked out."""
    lines = path.read_text().splitlines(keepends=True)
    out = [list(line) for line in lines]
    tokens = tokenize.generate_tokens(io.StringIO("".join(lines)).readline)
    for tok in tokens:
        if tok.type not in (tokenize.STRING, tokenize.COMMENT):
            continue
        (r0, c0), (r1, c1) = tok.start, tok.end
        for r in range(r0, r1 + 1):
            row = out[r - 1]
            lo = c0 if r == r0 else 0
            hi = c1 if r == r1 else len(row)
            for c in range(lo, hi):
                if row[c] != "\n":
                    row[c] = " "
    return "".join("".join(row) for row in out)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_one_home_per_decision(rule):
    pattern, allowed = RULES[rule]
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in allowed:
            continue
        for lineno, line in enumerate(code_only(path).splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.name}:{lineno}")
    assert not offenders, f"{rule} outside {sorted(allowed)}: {offenders}"


def test_rules_see_the_kernel():
    # the patterns still match the one place each decision lives
    for rule, (pattern, allowed) in RULES.items():
        assert any(pattern.search(code_only(PACKAGE / name)) for name in allowed), rule


def test_engine_config_knobs_are_profile_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defaults = {a.dest: a.default for a in sub.choices["profile"]._actions}
    unset = [f.name for f in dataclasses.fields(EngineConfig) if f.name not in defaults]
    assert not unset, f"EngineConfig fields without a profile flag: {unset}"
    drifted = [f.name for f in dataclasses.fields(EngineConfig)
               if defaults[f.name] != f.default]
    assert not drifted, f"profile flag defaults differ from EngineConfig: {drifted}"


@pytest.mark.parametrize("rule", sorted(STAR_CAP))
def test_star_and_cap_written_once(rule):
    pattern = STAR_CAP[rule]
    found = [(path.name, lineno) for path in sorted(PACKAGE.glob("*.py"))
             for lineno, line in enumerate(code_only(path).splitlines(), 1)
             if pattern.search(line)]
    assert len(found) == 1 and found[0][0] == "bounds.py", f"{rule}: {found}"


@pytest.mark.parametrize("name", DELETED)
def test_deleted_surface_stays_deleted(name):
    assert not hasattr(radnorm, name)
    pattern = re.compile(rf"\b{name}\b")
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if pattern.search(code_only(path))]
    assert not offenders, f"{name} is back in {offenders}"


#: Tiny runs of every command that never draws a Gaussian, in one fresh
#: interpreter; none of them may load scipy.
NO_SCIPY_SCRIPT = """
import json, sys, tempfile, pathlib
import radnorm.cli
from radnorm.cli import main
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"import radnorm.cli loaded {loaded}"
tmp = pathlib.Path(tempfile.mkdtemp())
(tmp / "m.json").write_text(json.dumps(
    {"n": 3, "entries": [[0, 1, 2], [1, 0, -1], [2, -1, 0]], "symmetric": True}))
(tmp / "e.json").write_text(json.dumps({"n": 3, "pairs": [[1, 2], [2, 1], [2, 3]]}))
m, e, out = str(tmp / "m.json"), str(tmp / "e.json"), str(tmp / "out")
runs = [
    ["profile", "--input", m],
    ["mc", "--input", m, "--mode", "rademacher_iid", "--samples", "100"],
    ["verify", "--scenario", "union_complete_regimes", "--n-cap", "64", "--samples", "100"],
    ["family", "--family", "union_complete", "--m", "2", "--d", "2"],
    ["oracle", "--input", e, "--quantity", "subgraph_norm", "--p", "2"],
]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"the commands loaded {loaded}"
"""


def test_commands_without_gaussians_never_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
