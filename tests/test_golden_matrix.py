"""Every built-in scenario x strategy, oracle-check and the default theory
sweep write the bytes pinned in tests/golden_matrix.json, and every pair at
its scenario's full budget those pinned in tests/golden_full.json (see
tests/golden_matrix.py, which writes both files)."""

import json
from dataclasses import replace

import pytest

import golden_matrix
from bapp import sim, strategies
from bapp.scenario import load_scenario
from bapp.strategies import StrategyKind

PINS = json.loads(golden_matrix.PINS.read_text())
FULL_PINS = json.loads(golden_matrix.FULL_PINS.read_text())


def test_pins_cover_every_pair():
    assert PINS["trials"] == golden_matrix.TRIALS
    assert list(PINS["pairs"]) == golden_matrix.pairs()
    assert len(PINS["pairs"]) == 36


@pytest.mark.parametrize("pair", sorted(PINS["pairs"]))
def test_pair_matches_pin(pair, tmp_path):
    pin = PINS["pairs"][pair]
    assert golden_matrix.pair_digest(pair, pin["rounds"], str(tmp_path)) == pin["sha256"]


def test_full_pins_cover_every_pair_at_its_budget():
    assert FULL_PINS["trials"] == golden_matrix.TRIALS
    assert list(FULL_PINS["pairs"]) == golden_matrix.pairs()
    for pair, pin in FULL_PINS["pairs"].items():
        assert pin["rounds"] == golden_matrix.full_budget(pair)


@pytest.mark.slow
@pytest.mark.parametrize("pair", sorted(FULL_PINS["pairs"]))
def test_full_budget_pair_matches_pin(pair, tmp_path):
    pin = FULL_PINS["pairs"][pair]
    assert golden_matrix.pair_digest(pair, pin["rounds"], str(tmp_path)) == pin["sha256"]


def test_oracle_check_matches_pin():
    assert golden_matrix.oracle_check_digest() == PINS["oracle_check"]


def test_theory_sweep_matches_pin(tmp_path):
    assert golden_matrix.theory_sweep_digest(str(tmp_path)) == PINS["theory_sweep_sha256"]


@pytest.mark.parametrize("pair", [p for p in golden_matrix.pairs() if p.endswith("/bapp-tid")])
def test_bapp_tid_pairs_reach_phase_two(pair):
    config, _ = load_scenario(pair.split("/")[0])
    assert PINS["pairs"][pair]["rounds"] >= config.trigger.phase_switch + 2


def test_matrix_holds_a_miss_replan(monkeypatch):
    # plan_round plans a std-itp or bapp-tid round once, for all of its
    # sectors, and again, for the rest of them, only at a sector whose
    # decision changed after the round was planned
    pair = "energy-15x7/bapp-tid"
    config, _ = load_scenario(pair.split("/")[0])
    config = replace(config, strategy=StrategyKind.BAPP_TID,
                     deployment_budget=PINS["pairs"][pair]["rounds"])
    assert config.relocate and config.team_size > 1
    rounds, misses = [], []
    plan_paths = strategies.plan_paths

    def spy(belief, start, plan, channel, groups):
        # each round opens with one pass over all of its sectors
        if len(groups) == config.team_size:
            rounds.append(len(rounds) + 1)
        else:
            misses.append(rounds[-1])
        return plan_paths(belief, start, plan, channel, groups)

    monkeypatch.setattr(strategies, "plan_paths", spy)
    for trial in range(golden_matrix.TRIALS):
        rounds.clear()
        misses.clear()
        got = sim.run_trial(config, trial)
        assert len(rounds) == got.rounds_executed
        assert misses and max(misses) == config.deployment_budget
