"""Scenario loading is the one place a mission is checked.

Bad files and flags must fail there with a ScenarioError, which the CLI
turns into one stderr line and exit code 2 before any trial runs.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp.cli import main
from bapp.errors import ScenarioError
from bapp.scenario import builtin_scenarios, load_scenario, scenario_to_text
from bapp.sim import MissionConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TINY = ("rows = 5\ncols = 5\nhorizon = 4\ndeployment_budget = 4\n"
        "hazard_density = 0.08\nbeam_width = 8\ntrials = 2\nmaster_seed = 11\n")

# every key of the scenario schema, in file order
KEYS = [line.split(" = ")[0] for line in scenario_to_text("proof-10x10").splitlines()[1:]]


def test_shipped_files_match_builtins():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.txt")) == list(builtin_scenarios())
    for name in builtin_scenarios():
        assert (SCENARIO_DIR / f"{name}.txt").read_bytes() == scenario_to_text(name).encode()


@pytest.mark.parametrize("extra_lines, extra_args", [
    pytest.param("", ["--trials", "0"], id="flag-trials-0"),
    pytest.param("", ["--seed", "-1"], id="flag-seed-negative"),
    pytest.param("hazard_density = 1.0", [], id="hazard-density-1"),
    pytest.param("hazard_density = inf", [], id="hazard-density-inf"),
    pytest.param("disposable_stock = 0\nhighfid_stock = 0", [], id="empty-fleet"),
    pytest.param("horizon = 0", [], id="horizon-0"),
    pytest.param("beam_width = 0", [], id="beam-width-0"),
    pytest.param("sig_alpha_min = 0", [], id="sig-alpha-min-0"),
    pytest.param("tid_alpha_explore = 0", ["--strategy", "bapp-tid"], id="tid-alpha-explore-0"),
    pytest.param("rows = 0", [], id="rows-0"),
    pytest.param("trials = 0", [], id="trials-0"),
    pytest.param("explore_radius = nan", [], id="explore-radius-nan"),
    pytest.param("master_seed = -1", [], id="master-seed-negative"),
    pytest.param("deployment_budget = " + "9" * 400, [], id="budget-400-digits"),
])
def test_bad_input_exits_2_before_any_trial(tmp_path, capsys, extra_lines, extra_args):
    scen = tmp_path / "bad.txt"
    scen.write_text(TINY + extra_lines + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out), *extra_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (out / "deployments.csv").exists()


VALUES = st.one_of(
    st.integers().map(str),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "true", "off", "center", "bapp-sig", "channel", ""]),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(entries=st.dictionaries(st.sampled_from(KEYS), VALUES))
def test_fuzzed_scenario_loads_or_raises_scenario_error(tmp_path_factory, entries):
    # only loads: a tiny sig_step makes a bapp-sig trial arbitrarily long
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    try:
        config, trials = load_scenario(str(path))
    except ScenarioError:
        return
    assert isinstance(config, MissionConfig)
    assert trials >= 1
