"""Scenario loading is the one place a mission is checked.

Bad files and flags must fail there with a ScenarioError, which the CLI
turns into one stderr line and exit code 2 before any trial runs or any
CSV is written; bad theory-sweep and oracle-check flags fail the same way.
"""

import enum
import functools
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp import cli
from bapp.cli import main
from bapp.belief import GridDims
from bapp.errors import ParameterError, ScenarioError
from bapp.experiment import MAX_SWEEP_ROWS, run_experiment, theory_sweep
from bapp.scenario import (_SENTINELS, builtin_scenarios, load_scenario, parse_scenario_text,
                           scenario_to_text)
from bapp.sim import MissionConfig
from bapp.strategies import MAX_SWEEP_STEPS, sig_sweep_grid

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TINY = ("rows = 5\ncols = 5\nhorizon = 4\ndeployment_budget = 4\n"
        "hazard_density = 0.08\nbeam_width = 8\ntrials = 2\nmaster_seed = 11\n")


# what each scenario key sets, stated apart from scenario.py's own table so
# that a key wired to the wrong field fails here; None is the trial count
FIELD_OF_KEY = {
    "rows": "dims.rows", "cols": "dims.cols", "lethality": "lethality",
    "hazard_density": "hazard_density", "team_size": "team_size", "horizon": "plan.horizon",
    "deployment_budget": "deployment_budget", "strategy": "strategy", "master_seed": "master_seed",
    "trials": None, "base_cell": "base_cell",
    "disposable_gamma": "disposable.malfunction_rate", "disposable_stock": "disposable.stock",
    "highfid_gamma": "high_fidelity.malfunction_rate", "highfid_stock": "high_fidelity.stock",
    "beam_width": "plan.beam_width", "mi_form": "plan.mi_form",
    "sig_alpha_min": "sig.alpha_min", "sig_alpha_max": "sig.alpha_max",
    "sig_halfwidth": "sig.sweep_halfwidth", "sig_step": "sig.sweep_step",
    "tid_window": "trigger.window", "tid_theta_early": "trigger.theta_early",
    "tid_phase_switch": "trigger.phase_switch", "tid_eps_min": "trigger.eps_min",
    "tid_eps_max": "trigger.eps_max", "tid_decay_rate": "trigger.decay_rate",
    "tid_alpha_explore": "trigger.alpha_explore", "tid_alpha_hf": "trigger.alpha_hf",
    "relocate": "relocate", "relocation_cadence": "relocation.cadence",
    "explore_radius": "relocation.explore_radius", "search_radius": "relocation.search_radius",
    "safety_threshold": "relocation.safety_threshold",
}


def field_value(config, path):
    """The value at a dotted field path of a MissionConfig, an enum as its value string."""
    value = functools.reduce(getattr, path.split("."), config)
    return value.value if isinstance(value, enum.Enum) else value


def test_only_the_sentinels_differ_from_the_library_defaults():
    # every other key takes its field's default; no sentinel restates one
    library = MissionConfig(GridDims(10, 10))
    defaults = parse_scenario_text("")
    for key, path in FIELD_OF_KEY.items():
        if path is None:
            assert key in _SENTINELS, key  # run_experiment takes no trial count by default
            assert inspect.signature(run_experiment).parameters[key].default is inspect.Parameter.empty
        else:
            assert (defaults[key] != field_value(library, path)) == (key in _SENTINELS), key


# every key of the scenario schema, in file order
KEYS = [line.split(" = ")[0] for line in scenario_to_text("proof-10x10").splitlines()[1:]]


def test_shipped_files_match_builtins():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.txt")) == list(builtin_scenarios())
    for name in builtin_scenarios():
        assert (SCENARIO_DIR / f"{name}.txt").read_bytes() == scenario_to_text(name).encode()


# a valid non-default value for a key no generic rule covers: (text, loaded value)
ALTERNATIVES = {"strategy": ("bapp-sig", "bapp-sig"), "mi_form": ("channel", "channel"), "base_cell": ("0", 0)}


@pytest.mark.parametrize("key", KEYS)
def test_every_key_round_trips_to_its_field(tmp_path, key):
    default = parse_scenario_text("")[key]
    if key in ALTERNATIVES:
        text, value = ALTERNATIVES[key]
    else:  # -1 sentinels become 0
        value = (not default if isinstance(default, bool)
                 else default + 1 if isinstance(default, int) else 0.9 * default)
        text = str(value)
    one, none = tmp_path / "one.txt", tmp_path / "none.txt"
    one.write_text(f"{key} = {text}\n")
    none.write_text("")
    (config, trials), (default_config, default_trials) = load_scenario(str(one)), load_scenario(str(none))
    field = FIELD_OF_KEY[key]
    got, was = (trials, default_trials) if field is None else (
        field_value(config, field), field_value(default_config, field))
    assert got == value != was


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
    pytest.param("horizon = 4\nhorizon = 9", [], id="repeated-key"),
])
def test_bad_input_exits_2_before_any_trial(tmp_path, capsys, extra_lines, extra_args):
    # a row's lines replace TINY's line for the same key, so only the row's own fault fails
    keys = {line.split("=")[0].strip() for line in extra_lines.splitlines()}
    kept = [line for line in TINY.splitlines() if line.split("=")[0].strip() not in keys]
    scen = tmp_path / "bad.txt"
    scen.write_text("\n".join([*kept, extra_lines]) + "\n")
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


SIMULATE_ONE = ["simulate", "--scenario", "proof-10x10", "--trials", "1"]
SIMULATE_FILES = ["deployments.csv", "summary.json", "bases.csv"]
SWEEP_FILES = ["theory_sweep.csv", "theory_sweep_avg.csv", "theory_contour.csv"]


@pytest.mark.parametrize("command, taken", [
    *(pytest.param(SIMULATE_ONE, name, id=f"simulate-{name}") for name in SIMULATE_FILES),
    pytest.param([*SIMULATE_ONE, "--write-paths"], "paths.csv", id="simulate-paths.csv"),
    *(pytest.param(["theory-sweep"], name, id=f"theory-sweep-{name}") for name in SWEEP_FILES),
])
def test_out_file_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, taken):
    # it used to end in an IsADirectoryError traceback, after the work and the files before it
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output file names were checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "theory_sweep", no_work)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert taken in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [taken]  # no partial set of files


@pytest.mark.parametrize("command, writer", [
    pytest.param(["simulate", "--scenario", "TINY", "--trials", "1"], "write_summary_json",
                 id="simulate"),
    pytest.param(["theory-sweep", "--alpha-grid", "0.5", "--prior-grid", "0.5",
                  "--lambda-grid", "0.9", "--gamma-grid", "0.1"], "write_theory_csvs",
                 id="theory-sweep"),
])
def test_os_error_while_writing_exits_2(tmp_path, capsys, monkeypatch, command, writer):
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, writer, disk_full)
    scen = tmp_path / "tiny.txt"
    scen.write_text(TINY)
    argv = [str(scen) if arg == "TINY" else arg for arg in command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device\n"


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
    assert not out.exists()


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
