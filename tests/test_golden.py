"""The fast part of the golden command set, 77 of its 199 commands: CLI
stdout and exit codes on inputs of side <= 16, on one n = 128 profile of
a 0/1 support, and of the small `family` and `oracle` commands, equal the
recorded outputs in tests/golden/, byte for byte.  The whole set runs
with `python3 scripts/golden.py check`."""

import importlib.util
import pathlib
import sys

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
    assert len(cmds) >= 70
    results = golden.run_all(cmds, tmp_path, jobs=1)
    assert golden.mismatches(cmds, results) == []


def test_every_command_has_a_record():
    golden = load_golden()
    names = [c.name for c in golden.commands()]
    assert len(set(names)) == len(names)
    assert sorted(golden.load_expected()) == sorted(names)
    assert all((golden.GOLDEN / f"{name}.out").exists() for name in names)
