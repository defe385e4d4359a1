"""Every built-in scenario x strategy, oracle-check and the default theory
sweep write the bytes pinned in tests/golden_matrix.json (see
tests/golden_matrix.py, which writes that file)."""

import json
from dataclasses import replace

import pytest

import golden_matrix
from bapp import sim
from bapp.scenario import load_scenario
from bapp.strategies import StrategyKind

PINS = json.loads(golden_matrix.PINS.read_text())


def test_pins_cover_every_pair():
    assert PINS["trials"] == golden_matrix.TRIALS
    assert list(PINS["pairs"]) == golden_matrix.pairs()
    assert len(PINS["pairs"]) == 36


@pytest.mark.parametrize("pair", sorted(PINS["pairs"]))
def test_pair_matches_pin(pair, tmp_path):
    pin = PINS["pairs"][pair]
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
    # run_trial calls select_deployment for a std-itp or bapp-tid sector only
    # when the sector's decision changed after its round was planned
    pair = "energy-15x7/bapp-tid"
    misses = []
    select = sim.select_deployment

    def spy(strategy, fleet, *args, **kwargs):
        misses.append(fleet.deployment_index + 1)
        return select(strategy, fleet, *args, **kwargs)

    monkeypatch.setattr(sim, "select_deployment", spy)
    config, _ = load_scenario(pair.split("/")[0])
    config = replace(config, strategy=StrategyKind.BAPP_TID,
                     deployment_budget=PINS["pairs"][pair]["rounds"])
    assert config.relocate and config.team_size > 1
    for trial in range(golden_matrix.TRIALS):
        misses.clear()
        sim.run_trial(config, trial)
        assert misses and max(misses) == config.deployment_budget
