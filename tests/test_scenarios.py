import dataclasses
import math

import pytest

from radnorm import scenarios
from radnorm.bounds import EngineConfig
from radnorm.cli import main
from radnorm.core import EdgeSet
from radnorm.scenarios import SCENARIOS, run_scenario


def test_unknown_scenario():
    with pytest.raises(ValueError):
        run_scenario("nope")


@pytest.mark.parametrize("name, n_cap, message", [
    ("symmetrization", 64,
     "--n-cap applies only to union_complete_regimes, block_counterexample"),
    ("block_counterexample", 0, "--n-cap must be at least 1, got 0"),
])
def test_n_cap_rule_before_any_work(name, n_cap, message):
    # the size rule lives with the scenarios; the seed is not even read
    with pytest.raises(ValueError) as exc:
        run_scenario(name, samples=100, seed=-1, n_cap=n_cap)
    assert str(exc.value) == message


def test_scenario_names_complete():
    assert set(SCENARIOS) == {
        "union_complete_regimes", "large_girth", "tangle_free",
        "random_regular", "expander", "block_counterexample",
        "circulant_chain", "symmetrization", "moment_equivalence",
    }


def test_union_complete_small_grid():
    rep = run_scenario("union_complete_regimes", samples=150, seed=2,
                       n_cap=256, d_values=(1, 2, 3))
    assert len(rep.points) == 3
    assert rep.summary["spread"] >= 1.0
    for pt in rep.points:
        assert pt["seed"] == 2 and pt["samples"] == 150
        assert pt["mc_mean"] > 0 and pt["predicted"] > 0
        assert "seginer" in pt["bounds"]


def test_large_girth_ratios_moderate():
    rep = run_scenario("large_girth", samples=120, seed=3)
    for pt in rep.points:
        assert 0.2 <= pt["ratio"] <= 5.0


def test_tangle_free_runs():
    rep = run_scenario("tangle_free", samples=120, seed=3)
    assert len(rep.points) == 3
    assert rep.summary["spread"] < 10


def test_random_regular_sqrt_d_scale():
    rep = run_scenario("random_regular", samples=120, seed=4)
    for pt in rep.points:
        assert 0.5 <= pt["ratio"] <= 4.0


def test_expander_lambda_scale():
    rep = run_scenario("expander", samples=120, seed=5)
    for pt in rep.points:
        # E||eps_E|| <~ lambda; random 3-regular lambda ~ 2 sqrt(2)
        assert pt["predicted"] >= 2 * math.sqrt(2) - 0.5
        assert pt["ratio"] <= 2.0


def test_block_counterexample_gap():
    rep = run_scenario("block_counterexample", samples=150, seed=1, n=512)
    last = rep.points[-1]
    assert last["rhs_one_sided"] > last["rhs_two_sided"]
    assert last["ratio"] > last["ratio_two_sided"]


def test_union_complete_regimes_builds_no_dense_indicator(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("a family point built its dense indicator")

    monkeypatch.setattr(EdgeSet, "indicator", refuse)
    out = tmp_path / "out.json"
    assert main(["verify", "--scenario", "union_complete_regimes", "--samples", "16",
                 "--n-cap", "128", "--out", str(out)]) == 0
    assert out.exists()


def test_block_counterexample_certified_flags(monkeypatch):
    rep = run_scenario("block_counterexample", samples=16, seed=1, n=64)
    assert all(pt["subgraph_certified"] and pt["ksweep_certified"] for pt in rep.points)
    # a one-node budget cuts the d = 2 subgraph search short: the point keeps
    # its best value and says it is not certified
    monkeypatch.setattr(scenarios, "EngineConfig",
                        lambda: dataclasses.replace(EngineConfig(), budget_cap=1))
    cut = run_scenario("block_counterexample", samples=16, seed=1, n=64)
    assert not cut.points[0]["subgraph_certified"]
    assert all(c["subgraph_term"] <= r["subgraph_term"]
               for c, r in zip(cut.points, rep.points))


def test_circulant_chain_flags():
    rep = run_scenario("circulant_chain", samples=120, seed=6)
    assert all(pt["mc_within_chain"] for pt in rep.points)
    assert all(pt["loose_constants"] for pt in rep.points)


def test_symmetrization_holds():
    rep = run_scenario("symmetrization", samples=150, seed=7)
    assert all(pt["holds"] for pt in rep.points)


def test_moment_equivalence_window():
    rep = run_scenario("moment_equivalence", samples=150, seed=8)
    for pt in rep.points:
        assert 1 / 3 <= pt["ratio"] <= 3


def test_report_round_trips_to_json():
    import json

    rep = run_scenario("circulant_chain", samples=100, seed=9)
    text = json.dumps(rep.to_json_dict())
    back = json.loads(text)
    assert back["scenario"] == "circulant_chain"
    assert len(back["points"]) == len(rep.points)


def test_summary_spread_is_null_when_the_smallest_ratio_is_zero():
    # hi / 0 has no JSON value; a missing ratio is skipped
    points = [{"ratio": 0.0}, {"ratio": 2.0}, {"ratio": None}]
    assert scenarios._summarize(points) == {"min_ratio": 0.0, "max_ratio": 2.0,
                                            "spread": None}
    assert scenarios._summarize(points[1:])["spread"] == 1.0
