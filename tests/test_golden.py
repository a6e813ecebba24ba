"""The fast part of the golden command set, 93 of its 210 commands: CLI
stdout and exit codes on inputs of side <= 16, on one n = 128 profile of
a 0/1 support, on three 0/1 profiles of sides 32 and 48 whose enumerated
k = 1 and k = 2 rows score removal sets on the support, on two
general-weight profiles of sides 40 and 64 whose surrogate ascent takes
certified power steps, of `verify union_complete_regimes` at --n-cap 64
and at the benchmark's --n-cap 1024 (the pruned Monte Carlo block
maximum), of `verify block_counterexample` at --n-cap 64 (the masked
k-sweep) and of the small `family` and `oracle` commands, equal the
recorded outputs in tests/golden/, byte for byte.
The whole set runs with `python3 scripts/golden.py check`; the tolerance
rule of its `diff` mode is checked on small outputs."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_fast_golden_commands_match(tmp_path):
    golden = load_golden()
    cmds = [c for c in golden.commands() if c.fast]
    assert len(cmds) == 93
    results = golden.run_all(cmds, tmp_path, jobs=1)
    assert golden.mismatches(cmds, results) == []


def test_every_command_has_a_record():
    golden = load_golden()
    names = [c.name for c in golden.commands()]
    assert len(set(names)) == len(names)
    assert sorted(golden.load_expected()) == sorted(names)
    assert all((golden.GOLDEN / f"{name}.out").exists() for name in names)


def test_diff_tolerance_and_exact_fields():
    golden = load_golden()
    ref = '{"flags": {"seed": 1}, "mean": 2.0, "stderr": 0.0, "mode": "exact", "ok": true}'
    moved = '{"flags": {"seed": 1}, "mean": 2.0000000000001, "stderr": 2e-17, ' \
            '"mode": "exact", "ok": true}'
    rel, abs_, problems = golden.compare_outputs(ref, moved, 1e-13, 1e-15)
    assert problems == [] and rel == 1.0 and abs_ == pytest.approx(1e-13, rel=1e-3)
    assert golden.compare_outputs(ref, moved, 1e-14, 1e-15)[2] == [".mean: 2.0000000000001 "
                                                                  "recorded as 2.0"]
    for changed in (moved.replace('"exact"', '"greedy"'), moved.replace("true", "false"),
                    moved.replace('"seed": 1', '"seed": 1.0'), moved.replace('"ok"', '"no"')):
        assert golden.compare_outputs(ref, changed, 1.0, 1.0)[2]
    # a new key is named, and the keys both sides hold are still compared
    added = ref.replace('"ok": true', '"ok": true, "certified": false')
    assert golden.compare_outputs(ref, added, 0.0, 0.0)[2] == [": new keys ['certified']"]
    assert golden.compare_outputs(added, moved.replace('"ok": true', '"ok": false'),
                                  1.0, 1.0)[2] == [": missing keys ['certified']",
                                                   ".ok: False recorded as True"]
    csv = "id,mean\np3,1.4142135623730956\n"
    assert golden.compare_outputs(csv, csv.replace("956", "951"), 1e-15, 0)[2] == []
    assert golden.compare_outputs(csv, csv.replace("p3", "p4"), 1.0, 1.0)[2]
