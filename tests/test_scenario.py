"""Scenario loading is the one place a mission is checked.

Bad files and flags must fail there with a ScenarioError, which the CLI
turns into one stderr line and exit code 2 before any trial runs or any
CSV is written; bad theory-sweep and oracle-check flags fail the same way.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp.cli import main
from bapp.errors import ScenarioError
from bapp.scenario import builtin_scenarios, load_scenario, scenario_to_text
from bapp.sim import MissionConfig
from bapp.strategies import MAX_SWEEP_STEPS, sig_sweep_grid

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
    pytest.param("sig_alpha_min = 0.1\nsig_halfwidth = 0.5\nsig_step = 2.0",
                 ["--strategy", "bapp-sig"], id="sig-sweep-empty"),
    pytest.param("sig_halfwidth = 1e300\nsig_step = 1e-300",
                 ["--strategy", "bapp-sig"], id="sig-sweep-overflow"),
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
    # only loads: a bapp-sig trial may plan up to MAX_SWEEP_STEPS + 1 paths a deployment
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    try:
        config, trials = load_scenario(str(path))
    except ScenarioError:
        return
    assert isinstance(config, MissionConfig)
    assert trials >= 1
    for alpha_hat in (config.sig.alpha_min, config.sig.alpha_max):
        assert 1 <= len(sig_sweep_grid(alpha_hat, config.sig)) <= MAX_SWEEP_STEPS + 1


@pytest.mark.parametrize("flags", [
    pytest.param(["--alpha-grid", "0,1"], id="alpha-0"),
    pytest.param(["--alpha-grid", ","], id="alpha-empty"),
    pytest.param(["--prior-grid", "1.5"], id="prior-above-1"),
])
def test_bad_theory_sweep_flag_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["theory-sweep", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (out / "theory_sweep.csv").exists()


@pytest.mark.parametrize("flags", [
    pytest.param(["--seed", "-1"], id="seed-negative"),
    pytest.param(["--plans", "-3"], id="plans-negative"),
    pytest.param(["--plans", "0"], id="plans-0"),
])
def test_bad_oracle_check_flag_exits_2_before_any_check(capsys, flags):
    assert main(["oracle-check", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
