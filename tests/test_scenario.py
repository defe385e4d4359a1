"""Scenario loading is the one place a mission is checked.

Bad files and flags must fail there with a ScenarioError, which the CLI
turns into one stderr line and exit code 2 before any trial runs or any
CSV is written; bad theory-sweep and oracle-check flags fail the same way.
"""

import dataclasses
import enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp import cli
from bapp.cli import main
from bapp.coordination import RelocationPolicy
from bapp.errors import ParameterError, ScenarioError
from bapp.experiment import MAX_SWEEP_ROWS, theory_sweep
from bapp.planner import PlanConfig
from bapp.scenario import _SCHEMA, builtin_scenarios, load_scenario, scenario_to_text
from bapp.sim import MissionConfig
from bapp.strategies import MAX_SWEEP_STEPS, SigPolicy, TriggerPolicy, sig_sweep_grid

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TINY = ("rows = 5\ncols = 5\nhorizon = 4\ndeployment_budget = 4\n"
        "hazard_density = 0.08\nbeam_width = 8\ntrials = 2\nmaster_seed = 11\n")


def library_default(cls, name):
    """The default of dataclass field `name` of `cls`, from its default or factory."""
    [f] = [f for f in dataclasses.fields(cls) if f.name == name]
    return f.default if f.default is not dataclasses.MISSING else f.default_factory()


# scenario key -> the library default the schema restates
SAME_DEFAULT = {
    **{key: library_default(MissionConfig, key) for key in (
        "lethality", "hazard_density", "team_size", "deployment_budget", "strategy", "relocate")},
    "disposable_gamma": library_default(MissionConfig, "disposable").malfunction_rate,
    "highfid_gamma": library_default(MissionConfig, "high_fidelity").malfunction_rate,
    **{key: library_default(PlanConfig, key) for key in ("horizon", "beam_width", "mi_form")},
    "sig_alpha_min": library_default(SigPolicy, "alpha_min"),
    "sig_alpha_max": library_default(SigPolicy, "alpha_max"),
    "sig_halfwidth": library_default(SigPolicy, "sweep_halfwidth"),
    "sig_step": library_default(SigPolicy, "sweep_step"),
    **{f"tid_{key}": library_default(TriggerPolicy, key) for key in (
        "window", "theta_early", "eps_min", "eps_max", "decay_rate", "alpha_explore", "alpha_hf")},
    "relocation_cadence": library_default(RelocationPolicy, "cadence"),
    **{key: library_default(RelocationPolicy, key) for key in (
        "explore_radius", "search_radius", "safety_threshold")},
}
# scenario key -> the library default it differs from on purpose
DIFFERENT_DEFAULT = {
    "master_seed": library_default(MissionConfig, "master_seed"),        # a fixed study seed
    "tid_phase_switch": library_default(TriggerPolicy, "phase_switch"),  # -1: 30% of the budget
    "disposable_stock": library_default(MissionConfig, "disposable").stock,     # -1 for None
    "highfid_stock": library_default(MissionConfig, "high_fidelity").stock,     # -1 for None
    "base_cell": library_default(MissionConfig, "base_cell"),            # "center" for None
}
NO_LIBRARY_DEFAULT = {"rows", "cols", "trials"}  # GridDims and run_experiment take no default


def test_schema_defaults_equal_the_library_defaults():
    assert set(SAME_DEFAULT) | set(DIFFERENT_DEFAULT) | NO_LIBRARY_DEFAULT == set(_SCHEMA)
    for key, library in SAME_DEFAULT.items():
        assert _SCHEMA[key][1] == (library.value if isinstance(library, enum.Enum) else library), key
    for key, library in DIFFERENT_DEFAULT.items():
        assert _SCHEMA[key][1] != library, key


# every key of the scenario schema, in file order
KEYS = [line.split(" = ")[0] for line in scenario_to_text("proof-10x10").splitlines()[1:]]


def test_shipped_files_match_builtins():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.txt")) == list(builtin_scenarios())
    for name in builtin_scenarios():
        assert (SCENARIO_DIR / f"{name}.txt").read_bytes() == scenario_to_text(name).encode()


@pytest.mark.parametrize("extra_lines, extra_args", [
    pytest.param("", ["--trials", "0"], id="flag-trials-0"),
    pytest.param("", ["--seed", "-1"], id="flag-seed-negative"),
    pytest.param("", ["--workers", "0"], id="flag-workers-0"),
    pytest.param("", ["--workers", "-5"], id="flag-workers-negative"),
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
    pytest.param("relocate = true\nexplore_radius = 1e200", [], id="explore-radius-square-overflows"),
    pytest.param("master_seed = -1", [], id="master-seed-negative"),
    pytest.param("deployment_budget = " + "9" * 400, [], id="budget-400-digits"),
    pytest.param("sig_alpha_min = 0.1\nsig_halfwidth = 0.5\nsig_step = 2.0",
                 ["--strategy", "bapp-sig"], id="sig-sweep-empty"),
    pytest.param("sig_halfwidth = 1e300\nsig_step = 1e-300",
                 ["--strategy", "bapp-sig"], id="sig-sweep-overflow"),
    pytest.param("sig_alpha_max = 1e6", ["--strategy", "bapp-sig"], id="sig-alpha-max-1e6"),
    pytest.param("tid_alpha_explore = 200", ["--strategy", "bapp-tid"], id="tid-alpha-explore-200"),
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


@pytest.mark.parametrize("command", [
    pytest.param(["simulate", "--scenario", "proof-10x10", "--trials", "1"], id="simulate"),
    pytest.param(["theory-sweep"], id="theory-sweep"),
])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "theory_sweep", no_work)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


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
    pytest.param(["--alpha-grid", "1e308"], id="alpha-1e308"),
    pytest.param(["--alpha-grid", "200"], id="alpha-200"),
    pytest.param(["--alpha-grid", ","], id="alpha-empty"),
    pytest.param(["--prior-grid", "1.5"], id="prior-above-1"),
    pytest.param(["--alpha-grid", "0:inf:1"], id="count-infinite"),
    pytest.param(["--alpha-grid", "0:1:1e-320"], id="count-overflows"),
    pytest.param(["--alpha-grid", "0:1:0"], id="step-0"),
    pytest.param(["--alpha-grid", "0.5:x:1"], id="not-a-number"),
    # counted, not built: a billion points
    pytest.param(["--gamma-grid", "0:1:1e-9"], id="grid-over-limit"),
    # 1,000 x 999 x 30 x 30 rows, each grid well under the limit
    pytest.param(["--alpha-grid", "0.01:10:0.01", "--prior-grid", "0.001:0.999:0.001"],
                 id="product-over-limit"),
])
def test_bad_theory_sweep_flag_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["theory-sweep", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (out / "theory_sweep.csv").exists()


def test_grid_point_count_is_bounded_before_the_points_are_made(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 10)
    assert cli._parse_grid("0:9:1") == [float(k) for k in range(10)]
    with pytest.raises(ScenarioError, match="11 points, more than 10"):
        cli._parse_grid("0:10:1")


def test_sweep_rows_are_bounded_before_any_array_is_built():
    # the product of four small grids: 1,001 x 1,000 rows
    with pytest.raises(ParameterError, match=f"1,001,000 rows, more than {MAX_SWEEP_ROWS:,}"):
        theory_sweep([1.0] * 1001, [0.5] * 1000, [0.9], [0.1])


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
