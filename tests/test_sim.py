import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from bapp import planner, sim, strategies
from bapp.belief import GridDims
from bapp.errors import ParameterError, ScenarioError
from bapp.experiment import (fmt9, run_experiment, theory_sweep, write_deployments_csv,
                             write_summary_json, write_theory_csvs)
from bapp.info_measures import MiForm
from bapp.planner import PlanConfig, Trajectory
from bapp.scenario import (builtin_scenarios, load_scenario, parse_scenario_text,
                           scenario_to_text)
from bapp.sim import (AgentSpec, MissionConfig, execute_deployment, generate_world, run_trial,
                      seed_stream)
from bapp.strategies import AgentClass, SigPolicy, StrategyKind, TriggerPolicy

D10 = GridDims(10, 10)


def small_config(**kw):
    defaults = dict(
        dims=GridDims(6, 6), lethality=0.7, hazard_density=0.1, team_size=1,
        deployment_budget=8, strategy=StrategyKind.STD_ITP, master_seed=99,
        disposable=AgentSpec(0.10, 10),
        high_fidelity=AgentSpec(0.01, 3),
        plan=PlanConfig(horizon=5, beam_width=8, mi_form=MiForm.CHANNEL),
    )
    defaults.update(kw)
    return MissionConfig(**defaults)


class TestGenerateWorld:
    def test_zero_density(self):
        truth = generate_world(D10, 0.0, 0.7, seed_stream(1, 0))
        assert truth.hazards.sum() == 0

    def test_density_hits_target_count(self):
        for seed in range(100):
            truth = generate_world(D10, 0.2, 0.7, seed_stream(seed, 0))
            assert abs(int(truth.hazards.sum()) - 20) <= 1

    def test_lethality_assigned_to_hazards_only(self):
        truth = generate_world(D10, 0.15, 0.9, seed_stream(5, 0))
        assert np.all(truth.lethality[truth.hazards == 1] == 0.9)
        assert np.all(truth.lethality[truth.hazards == 0] == 0.0)

    def test_deterministic_per_seed(self):
        a = generate_world(D10, 0.2, 0.7, seed_stream(7, 0))
        b = generate_world(D10, 0.2, 0.7, seed_stream(7, 0))
        assert np.array_equal(a.hazards, b.hazards)

    def test_clusters_are_contiguous(self):
        # grown blobs: hazard cells beyond the few seeds touch another hazard
        dims = GridDims(20, 20)
        truth = generate_world(dims, 0.1, 0.9, seed_stream(3, 0))
        cells = np.flatnonzero(truth.hazards)

        def touches_other_hazard(cell):
            r, c = dims.to_rc(int(cell))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if (dr or dc) and 0 <= r + dr < 20 and 0 <= c + dc < 20:
                        if truth.hazards[dims.to_cell(r + dr, c + dc)]:
                            return True
            return False

        isolated = sum(1 for cell in cells if not touches_other_hazard(cell))
        assert isolated <= max(1, round(len(cells) / 6))

    def test_invalid_density(self):
        with pytest.raises(ParameterError):
            generate_world(D10, 1.0, 0.7, seed_stream(1, 0))


class TestSeedStream:
    @pytest.mark.parametrize("word", [0, 2 ** 32 - 1])
    def test_uint32_words_give_the_list_form_stream(self, word):
        for key in ((word,), (word, 0, word), (7, word, 3, 2, word)):
            want = np.random.default_rng(np.random.SeedSequence([word, *key]))
            assert seed_stream(word, *key).bit_generator.state == want.bit_generator.state

    def test_wide_master_seed_takes_the_list_path(self, monkeypatch):
        seen = []
        seed_sequence = np.random.SeedSequence

        def spy(entropy):
            seen.append(entropy)
            return seed_sequence(entropy)

        monkeypatch.setattr(np.random, "SeedSequence", spy)
        got = seed_stream(2 ** 40, 3, 1)
        monkeypatch.undo()
        assert seen == [[2 ** 40, 3, 1]]
        want = np.random.default_rng(np.random.SeedSequence([2 ** 40, 3, 1]))
        assert got.bit_generator.state == want.bit_generator.state
        assert seed_stream(7, 3, 1).bit_generator.state != got.bit_generator.state

    def test_negative_word_rejected(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            seed_stream(5, -1)


class TestMissionInputs:
    def test_horizon_is_the_plans(self):
        assert MissionConfig(dims=D10, plan=PlanConfig(horizon=7)).horizon == 7
        assert MissionConfig(dims=D10).horizon == PlanConfig().horizon

    def test_removed_fields_raise_type_error(self):
        with pytest.raises(TypeError):
            MissionConfig(dims=D10, horizon=7)
        with pytest.raises(TypeError):
            AgentSpec(AgentClass.DISPOSABLE, 0.10, 1)
        for removed in ({"alpha": 0.8}, {"mask": frozenset({0})}):
            with pytest.raises(TypeError):
                PlanConfig(**removed)

    def test_team_size_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="^team size must be >= 1$"):
            MissionConfig(dims=D10, team_size=0)


class TestExecuteDeployment:
    def test_safe_world_zero_malfunction_always_returns(self):
        truth = generate_world(D10, 0.0, 0.7, seed_stream(1, 0))
        agent = AgentSpec(0.0, 1)
        path = Trajectory(start=55, cells=(44, 33, 22, 11, 0))
        for seed in range(20):
            theta, step = execute_deployment(truth, path, agent, seed_stream(seed, 2))
            assert theta == 0 and step is None

    def test_certain_hazard_kills_at_step(self):
        dims = GridDims(3, 3)
        hazards = np.zeros(9, dtype=np.int8)
        hazards[1] = 1
        truth_lethality = np.where(hazards == 1, 1.0, 0.0)
        from bapp.belief import GroundTruthMap
        truth = GroundTruthMap(dims, hazards, truth_lethality)
        agent = AgentSpec(0.0, 1)
        path = Trajectory(start=4, cells=(0, 1, 2))
        theta, step = execute_deployment(truth, path, agent, seed_stream(0, 2))
        assert (theta, step) == (1, 1)

    def test_malfunction_rate_matches_closed_form(self):
        truth = generate_world(GridDims(4, 4), 0.0, 0.7, seed_stream(1, 0))
        agent = AgentSpec(0.10, 1)
        path = Trajectory(start=5, cells=(0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4, 5, 6, 10))
        n = 40000
        rng = seed_stream(123, 2)
        failures = sum(execute_deployment(truth, path, agent, rng)[0] for _ in range(n))
        expected = 1.0 - 0.9 ** 15
        assert failures / n == pytest.approx(expected, abs=0.01)


class TestRunTrial:
    def test_zero_budget_keeps_initial_entropy(self):
        tm = run_trial(small_config(deployment_budget=0), 0)
        assert tm.entropy_series == [1.0]
        assert tm.records == []

    def test_entropy_bounded_and_stock_conserved(self):
        tm = run_trial(small_config(deployment_budget=20,
                                    disposable=AgentSpec(0.10, 25)), 1)
        assert all(0.0 <= h <= 1.0 for h in tm.entropy_series)
        assert tm.loss_series[-1] + tm.surviving_stock == tm.initial_stock
        for rec, losses in zip(tm.records, np.maximum.accumulate([r.cum_losses for r in tm.records])):
            assert rec.cum_losses == losses
        for rec in tm.records:
            assert (rec.failure_step is not None) == (rec.theta == 1)

    def test_deterministic(self):
        a = run_trial(small_config(), 3)
        b = run_trial(small_config(), 3)
        assert a.entropy_series == b.entropy_series
        assert [r.trajectory for r in a.records] == [r.trajectory for r in b.records]

    def test_fleet_exhaustion_stops_early(self):
        cfg = small_config(deployment_budget=30,
                           disposable=AgentSpec(0.10, 2),
                           high_fidelity=AgentSpec(0.01, 0))
        tm = run_trial(cfg, 0)
        assert tm.rounds_executed < 30
        assert tm.loss_series[-1] <= 2

    def test_degenerate_sig_equals_std(self):
        sig_cfg = small_config(strategy=StrategyKind.BAPP_SIG,
                               sig=SigPolicy(alpha_min=1.0, alpha_max=1.0, sweep_halfwidth=0.0))
        std_cfg = small_config(strategy=StrategyKind.STD_ITP)
        for trial in range(3):
            a = run_trial(sig_cfg, trial)
            b = run_trial(std_cfg, trial)
            assert [r.trajectory for r in a.records] == [r.trajectory for r in b.records]
            assert [r.theta for r in a.records] == [r.theta for r in b.records]
            assert [r.alpha_used for r in a.records] == [r.alpha_used for r in b.records]
            assert a.entropy_series == b.entropy_series

    def test_multi_robot_round_structure(self):
        cfg = small_config(team_size=3, deployment_budget=4, strategy=StrategyKind.BAPP_TID,
                           disposable=AgentSpec(0.10, 12),
                           high_fidelity=AgentSpec(0.01, 4),
                           trigger=TriggerPolicy(phase_switch=2))
        tm = run_trial(cfg, 0)
        rounds = [r.round_index for r in tm.records]
        sectors = [r.sector for r in tm.records]
        assert rounds == sorted(rounds)
        for d in set(rounds):
            assert [s for r, s in zip(rounds, sectors) if r == d] == [0, 1, 2]
        assert len(tm.entropy_series) == tm.rounds_executed + 1

    def test_fleet_runs_out_mid_round(self):
        # the one robot is lost in sector 0, so sector 1 finds the fleet empty
        cfg = small_config(team_size=3, deployment_budget=4,
                           disposable=AgentSpec(0.99, 1),
                           high_fidelity=AgentSpec(0.01, 0))
        tm = run_trial(cfg, 0)
        assert [(r.round_index, r.sector, r.theta) for r in tm.records] == [(1, 0, 1)]
        assert tm.rounds_executed == 1
        assert len(tm.base_track) == tm.rounds_executed
        assert len(tm.entropy_series) == tm.rounds_executed + 1
        assert tm.loss_series == [0, 1]
        assert (tm.initial_stock, tm.surviving_stock) == (1, 0)

    def test_paths_respect_sector_masks(self):
        from bapp.coordination import radial_partition
        cfg = small_config(team_size=4, deployment_budget=3,
                           disposable=AgentSpec(0.10, 16))
        tm = run_trial(cfg, 2)
        start = cfg.start_cell
        sectors = radial_partition(start, cfg.dims, 4)
        br, bc = cfg.dims.to_rc(start)
        hub = {cfg.dims.to_cell(r, c)
               for r in range(max(0, br - 1), min(cfg.dims.rows, br + 2))
               for c in range(max(0, bc - 1), min(cfg.dims.cols, bc + 2))}
        for rec in tm.records:
            allowed = set(np.flatnonzero(sectors == rec.sector).tolist()) | hub
            assert set(rec.trajectory.cells) <= allowed

    def test_sector_masks_built_once_per_base(self, monkeypatch):
        from bapp.coordination import RelocationPolicy
        calls = []
        build = sim.sector_masks

        def spy(base, dims, n):
            calls.append(base)
            return build(base, dims, n)

        monkeypatch.setattr(sim, "sector_masks", spy)
        for strategy in (StrategyKind.RANDOM, StrategyKind.STD_ITP, StrategyKind.BAPP_SIG):
            calls.clear()
            tm = run_trial(small_config(team_size=3, deployment_budget=5, strategy=strategy), 0)
            assert tm.rounds_executed == 5
            assert calls == [small_config().start_cell]
        # a relocating base gets new masks each time it moves, and only then
        calls.clear()
        tm = run_trial(small_config(team_size=2, deployment_budget=8, relocate=True,
                                    disposable=AgentSpec(0.10, 16),
                                    relocation=RelocationPolicy(explore_radius=3.0, search_radius=2.0)),
                       0)
        moves = [b for i, b in enumerate(tm.base_track) if i == 0 or b != tm.base_track[i - 1]]
        assert len(set(tm.base_track)) > 1
        assert calls == moves

    def test_relocation_tracks_base(self):
        from bapp.coordination import RelocationPolicy
        cfg = small_config(team_size=2, deployment_budget=6, relocate=True,
                           disposable=AgentSpec(0.10, 12),
                           relocation=RelocationPolicy(explore_radius=3.0, search_radius=2.0,
                                                       safety_threshold=0.6, cadence=2))
        tm = run_trial(cfg, 0)
        assert len(tm.base_track) == tm.rounds_executed
        assert tm.base_track[0] == cfg.start_cell


def _batched_and_per_sector(monkeypatch, config, trial):
    """run_trial as it is, then with no round plan, so that every sector is
    planned at its turn through select_deployment: the per-sector loop the
    batched round replaced. Also returns how many sectors the batched run
    planned alone."""
    alone = []
    select = sim.select_deployment

    def spy(*args, **kwargs):
        alone.append(args[0])
        return select(*args, **kwargs)

    monkeypatch.setattr(sim, "select_deployment", spy)
    got = sim.run_trial(config, trial)
    misses = len(alone)
    monkeypatch.setattr(sim, "plan_round", lambda *args, **kwargs: None)
    want = sim.run_trial(config, trial)
    return got, want, misses


def _assert_same_trial(got, want):
    assert got.records == want.records
    assert got.base_track == want.base_track
    assert got.entropy_series == want.entropy_series
    assert got.loss_series == want.loss_series


class TestBatchedRound:
    def test_tid_high_fidelity_runs_out_mid_round(self, monkeypatch):
        # the trigger always fires and high-fidelity robots are nearly always
        # lost, so their stock runs out inside a round: later sectors switch to
        # disposables at alpha_explore and must be planned again alone
        cfg = small_config(team_size=4, deployment_budget=5, strategy=StrategyKind.BAPP_TID,
                           high_fidelity=AgentSpec(0.95, 3),
                           trigger=TriggerPolicy(theta_early=1.0, phase_switch=10))
        for trial in range(3):
            got, want, misses = _batched_and_per_sector(monkeypatch, cfg, trial)
            _assert_same_trial(got, want)
            assert misses > 0
            classes = [r.agent_class for r in got.records if r.round_index == 1]
            assert classes[0] is AgentClass.HIGH_FIDELITY
            assert AgentClass.DISPOSABLE in classes

    def test_std_disposables_run_out_mid_round(self, monkeypatch):
        cfg = small_config(team_size=3, deployment_budget=6,
                           disposable=AgentSpec(0.9, 4),
                           high_fidelity=AgentSpec(0.01, 4))
        got, want, misses = _batched_and_per_sector(monkeypatch, cfg, 0)
        _assert_same_trial(got, want)
        assert misses > 0
        assert {r.agent_class for r in got.records} == set(AgentClass)

    @pytest.mark.parametrize("strategy", [StrategyKind.STD_ITP, StrategyKind.BAPP_TID])
    def test_relocating_team_matches_per_sector_loop(self, monkeypatch, strategy):
        config, _ = load_scenario("energy-15x7")
        config = replace(config, strategy=strategy, master_seed=7, deployment_budget=12)
        got, want, _ = _batched_and_per_sector(monkeypatch, config, 0)
        _assert_same_trial(got, want)
        assert len(set(got.base_track)) > 1

    def test_sig_team_plans_each_sector_at_its_turn(self, monkeypatch):
        cfg = small_config(team_size=3, deployment_budget=4, strategy=StrategyKind.BAPP_SIG,
                           disposable=AgentSpec(0.3, 12))
        got, want, alone = _batched_and_per_sector(monkeypatch, cfg, 1)
        _assert_same_trial(got, want)
        assert alone == len(got.records)


class TestInformationHiding:
    def test_planner_and_strategies_never_touch_ground_truth(self):
        for module in (planner, strategies):
            source = inspect.getsource(module)
            assert "GroundTruthMap" not in source
            assert "truth" not in source.replace("ground-truth", "")


class TestRunExperiment:
    def test_single_trial_aggregate_is_that_trial(self):
        cfg = small_config()
        res = run_experiment(cfg, trials=1)
        tm = run_trial(cfg, 0)
        mean, std = res.entropy_stats()
        padded = tm.entropy_series + [tm.entropy_series[-1]] * (cfg.deployment_budget + 1 - len(tm.entropy_series))
        assert np.allclose(mean, padded)
        assert np.allclose(std, 0.0)

    def test_outputs_byte_identical_across_runs_and_workers(self, tmp_path):
        cfg = small_config(deployment_budget=5)
        files = []
        for i, workers in enumerate((1, 2)):
            res = run_experiment(cfg, trials=3, workers=workers)
            path = tmp_path / f"dep{i}.csv"
            write_deployments_csv(str(path), [res])
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_capped_metric(self):
        cfg = small_config(deployment_budget=5)
        res = run_experiment(cfg, trials=2)
        capped = res.capped_deployments_to_half()
        for v, tm in zip(capped, res.trials):
            if tm.deployments_to_half is None:
                assert v == 6
            else:
                assert v == tm.deployments_to_half


class TestOutputFormats:
    def test_deployments_csv_schema(self, tmp_path):
        res = run_experiment(small_config(deployment_budget=4), trials=2)
        path = tmp_path / "deployments.csv"
        write_deployments_csv(str(path), [res])
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "trial,d,strategy,agent_class,alpha_used,theta,entropy_bits,cum_losses"
        assert text.endswith("\n")
        row = lines[1].split(",")
        assert row[2] == "std-itp"
        assert row[3] in ("disposable", "high-fidelity")
        float(row[6])

    def test_fmt9(self):
        assert fmt9(1.0) == "1"
        assert fmt9(0.5) == "0.5"
        assert fmt9(0.123456789123) == "0.123456789"
        assert fmt9(float("nan")) == "nan"

    def test_summary_schema(self, tmp_path):
        res = run_experiment(small_config(deployment_budget=4), trials=2)
        path = tmp_path / "summary.json"
        write_summary_json(str(path), [res])
        data = json.loads(path.read_text())
        entry = data["std-itp"]
        assert entry["trials"] == 2
        assert entry["horizon"] == res.config.plan.horizon == 5
        assert len(entry["entropy_mean"]) == 5
        assert set(entry["deployments_to_half"]) == {"per_trial", "mean_reached", "unreached", "capped_mean"}


class TestTheorySweep:
    def test_alpha_one_column_is_zero(self):
        res = theory_sweep([0.5, 1.0], [0.2, 0.5], [0.9], [0.1])
        assert np.allclose(res.delta_i[1], 0.0, atol=1e-12)

    def test_example_row(self):
        res = theory_sweep([0.5], [0.2], [0.9], [0.1])
        assert res.delta_i[0, 0, 0, 0] == pytest.approx(0.11146, abs=1e-5)

    def test_existence_on_sensor_grid(self):
        alphas = np.arange(0.25, 2.01, 0.25)
        res = theory_sweep(alphas, [0.1, 0.5, 0.9], [0.7, 0.9], [0.1, 0.3])
        assert np.all(res.delta_i.max(axis=0) >= -1e-12)

    def test_csv_files(self, tmp_path):
        res = theory_sweep([0.5, 1.0], np.arange(0.1, 0.91, 0.1), [0.9], [0.1])
        write_theory_csvs(str(tmp_path), res)
        sweep = (tmp_path / "theory_sweep.csv").read_text().splitlines()
        assert sweep[0] == "alpha,p,lambda,gamma,delta_i,delta_h_obs"
        assert len(sweep) == 1 + 2 * 9
        contour = (tmp_path / "theory_contour.csv").read_text().splitlines()
        assert contour[0] == "alpha,p_zero"


class TestScenario:
    def test_builtins_load(self):
        for name in builtin_scenarios():
            config, trials = load_scenario(name)
            assert trials >= 1
            assert config.deployment_budget >= 1

    def test_round_trip_through_text(self):
        for name in builtin_scenarios():
            c1, t1 = load_scenario(name)
            values = parse_scenario_text(scenario_to_text(name))
            assert t1 == values["trials"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("rows = 5\nwarp_drive = on\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("rows = banana\n")

    def test_bad_strategy_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("strategy = teleport\n")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_comments_and_blank_lines(self):
        values = parse_scenario_text("# hello\n\nrows = 4  # trailing\ncols = 3\n")
        assert values["rows"] == 4 and values["cols"] == 3

    def test_missing_source(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.txt")


class TestCli:
    def test_simulate_and_sweep(self, tmp_path):
        from bapp.cli import main
        scen = tmp_path / "tiny.txt"
        scen.write_text(
            "rows = 5\ncols = 5\nhorizon = 4\ndeployment_budget = 4\n"
            "hazard_density = 0.08\nbeam_width = 8\ntrials = 2\nmaster_seed = 11\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scen), "--strategy", "bapp-tid",
                     "--out", str(out)]) == 0
        assert (out / "deployments.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "bases.csv").exists()
        sweep_out = tmp_path / "sweep"
        assert main(["theory-sweep", "--out", str(sweep_out),
                     "--alpha-grid", "0.5,1.0", "--prior-grid", "0.2,0.5",
                     "--lambda-grid", "0.9", "--gamma-grid", "0.1"]) == 0
        assert (sweep_out / "theory_sweep.csv").exists()

    def test_oracle_check(self, capsys):
        from bapp.cli import main
        assert main(["oracle-check", "--plans", "5"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("INFO factored belief vs joint posterior over a 12-deployment")
        assert float(last.rsplit("= ", 1)[1]) > 0.0

    def test_unknown_scenario_is_error(self, tmp_path):
        from bapp.cli import main
        assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 2
