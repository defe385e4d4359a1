import concurrent.futures
import inspect
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bapp import experiment, planner, sim, strategies
from bapp.belief import GridDims, global_entropy, init_uniform, update_on_failure, update_on_success
from bapp.errors import FleetExhaustedError, ParameterError, ScenarioError
from bapp.experiment import (fmt9, run_experiment, theory_sweep, write_deployments_csv,
                             write_paths_csv, write_summary_json, write_theory_csvs)
from bapp.info_measures import MiForm
from bapp.planner import PlanConfig, Trajectory
from bapp.scenario import builtin_scenarios, load_scenario, parse_scenario_text
from bapp.sim import (AgentSpec, MissionConfig, execute_deployment, generate_world, run_trial,
                      seed_stream)
from bapp.strategies import AgentClass, SigPolicy, StrategyKind, TriggerPolicy

D10 = GridDims(10, 10)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_default_stock_is_filled_when_the_config_is_built(self):
        config = MissionConfig(dims=D10, team_size=3, deployment_budget=7,
                               disposable=AgentSpec(0.05, None))
        assert config.disposable == AgentSpec(0.05, 7 * 3)
        assert config.high_fidelity == AgentSpec(0.01, 2 * 3)
        # an explicit stock stays as given
        assert MissionConfig(dims=D10, disposable=AgentSpec(0.05, 4)).disposable.stock == 4
        # fixed when built: a later budget leaves it as it was
        assert replace(config, deployment_budget=6).disposable.stock == 7 * 3

    def test_scenario_stock_sentinel_is_the_default_stock(self, tmp_path):
        head = "team_size = 3\ndeployment_budget = 7\n"
        (tmp_path / "default.txt").write_text(head + "disposable_stock = -1\nhighfid_stock = -1\n")
        (tmp_path / "explicit.txt").write_text(head + "disposable_stock = 21\nhighfid_stock = 6\n")
        default = load_scenario(str(tmp_path / "default.txt"))
        assert default == load_scenario(str(tmp_path / "explicit.txt"))
        assert default[0].disposable.stock == 21

    def test_team_size_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="^team size must be >= 1$"):
            MissionConfig(dims=D10, team_size=0)


class TestExecuteDeployment:
    def test_safe_world_zero_malfunction_always_returns(self):
        truth = generate_world(D10, 0.0, 0.7, seed_stream(1, 0))
        agent = AgentSpec(0.0, 1)
        path = Trajectory(start=55, cells=(44, 33, 22, 11, 0))
        for seed in range(20):
            theta, step = execute_deployment(truth, path, agent, uniforms_of(seed_stream(seed, 2)))
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
        theta, step = execute_deployment(truth, path, agent, uniforms_of(seed_stream(0, 2)))
        assert (theta, step) == (1, 1)

    def test_malfunction_rate_matches_closed_form(self):
        truth = generate_world(GridDims(4, 4), 0.0, 0.7, seed_stream(1, 0))
        agent = AgentSpec(0.10, 1)
        path = Trajectory(start=5, cells=(0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4, 5, 6, 10))
        n = 40000
        rng = seed_stream(123, 2)
        failures = sum(execute_deployment(truth, path, agent, uniforms_of(rng))[0] for _ in range(n))
        expected = 1.0 - 0.9 ** 15
        assert failures / n == pytest.approx(expected, abs=0.01)

    def test_matches_per_step_reference(self):
        # execution fails where the per-step loop does, and reads as many
        # uniforms as it does: one per step, up to the failure
        rng = np.random.default_rng(17)
        for trial in range(300):
            dims = GridDims(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            truth = generate_world(dims, float(rng.choice([0.0, 0.3, 0.6])),
                                   float(rng.choice([0.3, 0.9, 1.0])), seed_stream(trial, 1))
            agent = AgentSpec(float(rng.choice([0.0, 0.1, 0.5])), 1)
            cells = tuple(rng.integers(0, dims.n_cells, size=int(rng.integers(0, 16))).tolist())
            path = Trajectory(start=0, cells=cells)
            got_rng, ref_rng = seed_stream(trial, 2), seed_stream(trial, 2)
            assert (execute_deployment(truth, path, agent, uniforms_of(got_rng))
                    == reference_execute_deployment(truth, path, agent, ref_rng))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_reads_no_uniform_past_the_failure(self):
        dims = GridDims(1, 3)
        from bapp.belief import GroundTruthMap
        truth = GroundTruthMap(dims, np.zeros(3, dtype=np.int8), np.zeros(3))
        read = []

        def uniforms():
            for u in (0.5, 0.05, 0.5):
                read.append(u)
                yield u

        path = Trajectory(start=0, cells=(1, 2, 1))
        assert execute_deployment(truth, path, AgentSpec(0.1, 1), uniforms()) == (1, 1)
        assert read == [0.5, 0.05]

    @pytest.mark.parametrize("hazard, uniforms", [(1, []), (0, []), (0, [0.5, 0.5, 0.5])])
    def test_too_few_uniforms_rejected(self, hazard, uniforms):
        # a path of lethal cells with no uniforms would otherwise come back alive
        from bapp.belief import GroundTruthMap
        truth = GroundTruthMap(GridDims(1, 4), np.full(4, hazard, dtype=np.int8), np.full(4, float(hazard)))
        path = Trajectory(start=0, cells=(1, 2, 3, 2))
        with pytest.raises(ParameterError, match=f"ran out after {len(uniforms)} of 4 steps"):
            execute_deployment(truth, path, AgentSpec(0.1, 1), iter(uniforms))

    def test_one_uniform_per_step_is_enough(self):
        from bapp.belief import GroundTruthMap
        truth = GroundTruthMap(GridDims(1, 4), np.zeros(4, dtype=np.int8), np.zeros(4))
        path = Trajectory(start=0, cells=(1, 2, 3, 2))
        assert execute_deployment(truth, path, AgentSpec(0.1, 1), iter([0.5] * 4)) == (0, None)


def uniforms_of(rng):
    """rng's uniforms, drawn one at a time as a deployment reads them."""
    while True:
        yield rng.random()


def reference_execute_deployment(truth, path, agent, rng):
    """The per-step loop execute_deployment replaced: one rng.random() per
    step, stopping at the failure. Kept as its reference."""
    for step, cell in enumerate(path.cells):
        p_fail = truth.lethality[cell] if truth.hazards[cell] else agent.malfunction_rate
        if rng.random() < p_fail:
            return 1, step
    return 0, None


@pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 40])
def test_random_n_equals_n_scalar_draws(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    assert rng.random(n).tolist() == [ref.random() for _ in range(n)]
    assert rng.bit_generator.state == ref.bit_generator.state


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


def _per_sector_round(strategy, fleet, belief, start, plan, channels, masks,
                      sig=None, trigger=None, words=None):
    """The per-sector loop the batched round replaced: select_deployment at
    each sector's turn, until the fleet is exhausted."""
    for sector, mask in enumerate(masks):
        try:
            deployment = strategies.select_deployment(
                strategy, fleet, belief, start, plan, channels, mask=mask, sig=sig,
                trigger=trigger, words=None if words is None else words[sector])
        except FleetExhaustedError:
            return
        yield deployment


def _batched_and_per_sector(monkeypatch, config, trial):
    """run_trial as it is, then with _per_sector_round planning each round.
    Also returns how many times the batched run planned the rest of a round
    again after a miss, and how many sectors it planned alone (a bapp-sig
    sweep or a random walk)."""
    replans, alone = [], []
    plan_paths = strategies.plan_paths

    def plan_spy(belief, start, plan, channel, groups):
        if len(groups) < config.team_size:
            replans.append(len(groups))
        return plan_paths(belief, start, plan, channel, groups)

    def counted(fn):
        def spy(*args, **kwargs):
            alone.append(fn.__name__)
            return fn(*args, **kwargs)
        return spy

    with monkeypatch.context() as m:
        m.setattr(strategies, "plan_paths", plan_spy)
        for name in ("sig_select_path", "random_walk"):
            m.setattr(strategies, name, counted(getattr(strategies, name)))
        got = sim.run_trial(config, trial)
    with monkeypatch.context() as m:
        m.setattr(sim, "plan_round", _per_sector_round)
        want = sim.run_trial(config, trial)
    return got, want, len(replans), len(alone)


def _hexes(values):
    # float.hex tells -0.0 from 0.0, which == does not and fmt9 writes apart
    return [float(v).hex() for v in values]


def _assert_same_trial(got, want):
    assert got.records == want.records
    assert _hexes(r.entropy_bits for r in got.records) == _hexes(r.entropy_bits for r in want.records)
    assert got.base_track == want.base_track
    assert _hexes(got.entropy_series) == _hexes(want.entropy_series)
    assert got.loss_series == want.loss_series


@pytest.mark.parametrize("scenario, strategy, budget", [
    ("scalability-20x20-n15", StrategyKind.RANDOM, 4),
    ("energy-15x7", StrategyKind.BAPP_TID, 12),
])
def test_records_replay_through_the_public_updates(scenario, strategy, budget):
    # run_trial folds each round at once; the public updates applied one
    # record at a time must give every record's entropy and the series
    config, _ = load_scenario(scenario)
    config = replace(config, strategy=strategy, deployment_budget=budget)
    tm = run_trial(config, 0)
    if config.relocate:
        assert len(set(tm.base_track)) > 1
    channels = config.channels()
    belief = init_uniform(config.dims)
    series = [global_entropy(belief)]
    for _, round_records in itertools.groupby(tm.records, key=lambda r: r.round_index):
        for rec in round_records:
            update = update_on_failure if rec.theta else update_on_success
            belief = update(belief, rec.trajectory.cells, channels[rec.agent_class])
            assert float(rec.entropy_bits).hex() == global_entropy(belief).hex()
        series.append(global_entropy(belief))
    assert len(tm.records) > tm.rounds_executed == budget
    assert _hexes(tm.entropy_series) == _hexes(series)


class TestBatchedRound:
    def test_tid_high_fidelity_runs_out_mid_round(self, monkeypatch):
        # the trigger always fires and high-fidelity robots are nearly always
        # lost, so their stock runs out inside a round: later sectors switch to
        # disposables at alpha_explore and must be planned again
        cfg = small_config(team_size=4, deployment_budget=5, strategy=StrategyKind.BAPP_TID,
                           high_fidelity=AgentSpec(0.95, 3),
                           trigger=TriggerPolicy(theta_early=1.0, phase_switch=10))
        for trial in range(3):
            got, want, replans, alone = _batched_and_per_sector(monkeypatch, cfg, trial)
            _assert_same_trial(got, want)
            assert replans > 0 and alone == 0
            classes = [r.agent_class for r in got.records if r.round_index == 1]
            assert classes[0] is AgentClass.HIGH_FIDELITY
            assert AgentClass.DISPOSABLE in classes

    def test_std_disposables_run_out_mid_round(self, monkeypatch):
        cfg = small_config(team_size=3, deployment_budget=6,
                           disposable=AgentSpec(0.9, 4),
                           high_fidelity=AgentSpec(0.01, 4))
        got, want, replans, alone = _batched_and_per_sector(monkeypatch, cfg, 0)
        _assert_same_trial(got, want)
        assert replans > 0 and alone == 0
        assert {r.agent_class for r in got.records} == set(AgentClass)

    @pytest.mark.parametrize("strategy", [StrategyKind.STD_ITP, StrategyKind.BAPP_TID])
    def test_relocating_team_matches_per_sector_loop(self, monkeypatch, strategy):
        config, _ = load_scenario("energy-15x7")
        config = replace(config, strategy=strategy, master_seed=7, deployment_budget=12)
        got, want, _, _ = _batched_and_per_sector(monkeypatch, config, 0)
        _assert_same_trial(got, want)
        assert len(set(got.base_track)) > 1

    def test_sig_team_plans_each_sector_at_its_turn(self, monkeypatch):
        cfg = small_config(team_size=3, deployment_budget=4, strategy=StrategyKind.BAPP_SIG,
                           disposable=AgentSpec(0.3, 12))
        got, want, _, alone = _batched_and_per_sector(monkeypatch, cfg, 1)
        _assert_same_trial(got, want)
        assert alone == len(got.records)


class TestInformationHiding:
    def test_planner_and_strategies_never_touch_ground_truth(self):
        for module in (planner, strategies):
            source = inspect.getsource(module)
            assert "GroundTruthMap" not in source
            assert "truth" not in source.replace("ground-truth", "")


def _agent_classes_back(members):
    """Run in a worker: the members as they arrive there, whether each is
    that process's own member, and each one's slot in a class-keyed dict."""
    slots = {AgentClass.DISPOSABLE: 0, AgentClass.HIGH_FIDELITY: 1}
    return [(m, m is AgentClass(m.value), slots[m]) for m in members]


def test_agent_classes_pickle_back_to_themselves(monkeypatch):
    # AgentClass hashes by identity, so a member must stay one object
    # through pickling, here and in a worker process that imported bapp anew
    members = list(AgentClass)
    assert members == [AgentClass.DISPOSABLE, AgentClass.HIGH_FIDELITY]
    for m in members:
        assert pickle.loads(pickle.dumps(m)) is m
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        back = pool.submit(_agent_classes_back, members).result()
    assert back == [(AgentClass.DISPOSABLE, True, 0), (AgentClass.HIGH_FIDELITY, True, 1)]
    assert all(got is m for (got, _, _), m in zip(back, members))
    # the class-keyed maps a trial iterates list the disposables first
    config = small_config(team_size=2, deployment_budget=2)
    assert list(config.agents) == members
    assert list(config.channels()) == members
    stocks = []
    plan_round = sim.plan_round

    def spy(strategy, fleet, *args, **kwargs):
        stocks.append(list(fleet.stock))
        return plan_round(strategy, fleet, *args, **kwargs)

    monkeypatch.setattr(sim, "plan_round", spy)
    run_trial(config, 0)
    assert stocks == [members, members]


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

    @pytest.mark.parametrize("workers, trials, cpus, pool_size", [
        (100_000, 3, 8, 3),
        (100_000, 5, 2, 2),
        (4, 6, 8, 4),
        (8, 3, None, None),  # an unknown CPU count runs in-process
        (1, 3, 8, None),
    ])
    def test_worker_pool_is_capped(self, monkeypatch, workers, trials, cpus, pool_size):
        sizes = []

        class RecordingPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # run_experiment imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        res = run_experiment(small_config(deployment_budget=2), trials=trials, workers=workers)
        assert len(res.trials) == trials
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_import_leaves_the_process_pool_unloaded(self):
        # a fresh process: this one may already hold the pool module
        src = os.path.dirname(os.path.dirname(experiment.__file__))
        code = "import sys, bapp; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            run_experiment(small_config(deployment_budget=2), trials=2, workers=workers)

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

    @pytest.mark.parametrize("write", ["write_summary_json", "write_deployments_csv",
                                       "write_bases_csv", "write_paths_csv"])
    def test_results_that_share_a_strategy_are_refused(self, tmp_path, write):
        # the strategy is all that labels a result's rows and summary entry:
        # two std-itp results used to leave one summary entry, the last one's
        cfg = small_config(deployment_budget=2)
        first, second = run_experiment(cfg, trials=2), run_experiment(cfg, trials=3)
        walks = run_experiment(replace(cfg, strategy=StrategyKind.RANDOM), trials=1)
        path = tmp_path / "out"
        with pytest.raises(ParameterError, match="strategy 'std-itp'"):
            getattr(experiment, write)(str(path), [first, walks, second])
        assert not path.exists()
        with pytest.raises(ParameterError, match="strategy 'std-itp'"):
            experiment.summary_dict([first, second])
        getattr(experiment, write)(str(path), [first, walks])
        assert path.exists()


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

    @pytest.mark.parametrize("grids, message", [
        pytest.param(([0.5], [1.5], [0.9], [0.1]), "prior must be in", id="prior"),
        pytest.param(([0.5], [0.5], [float("nan")], [0.1]), "tpr must be finite", id="tpr"),
        pytest.param(([0.5], [0.5], [0.9], [-0.1]), "fpr must be in", id="fpr"),
        pytest.param(([0.0], [0.5], [0.9], [0.1]), "alpha must be in", id="alpha"),
    ])
    def test_grids_out_of_their_domain_are_refused(self, grids, message):
        # the sweep checks its grids once and then calls the unchecked delta_mi kernel
        with pytest.raises(ParameterError, match=message):
            theory_sweep(*grids)

    def test_csv_files(self, tmp_path):
        res = theory_sweep([0.5, 1.0], np.arange(0.1, 0.91, 0.1), [0.9], [0.1])
        write_theory_csvs(str(tmp_path), res)
        sweep = (tmp_path / "theory_sweep.csv").read_text().splitlines()
        assert sweep[0] == "alpha,p,lambda,gamma,delta_i,delta_h_obs"
        assert len(sweep) == 1 + 2 * 9
        contour = (tmp_path / "theory_contour.csv").read_text().splitlines()
        assert contour[0] == "alpha,p_zero"


def reference_zero_contour(alpha, prior, avg):
    """theory_sweep's zero contour as the loop over (alpha, prior) it once was."""
    contour = []
    for i, a in enumerate(alpha):
        row = avg[i]
        for j in range(len(prior) - 1):
            y0, y1 = row[j], row[j + 1]
            if y0 == 0.0:
                contour.append((float(a), float(prior[j])))
            elif (y0 < 0.0 < y1) or (y1 < 0.0 < y0):
                t = y0 / (y0 - y1)
                contour.append((float(a), float(prior[j] + t * (prior[j + 1] - prior[j]))))
        if row[-1] == 0.0:
            contour.append((float(a), float(prior[-1])))
    return contour


def reference_write_theory_csvs(out_dir, result):
    """write_theory_csvs as the nested index loops it once was."""
    lines = [experiment.THEORY_COLUMNS]
    a, p, lam, gam = result.alpha_grid, result.prior_grid, result.lambda_grid, result.gamma_grid
    for i in range(a.size):
        for j in range(p.size):
            for k in range(lam.size):
                for m in range(gam.size):
                    lines.append(",".join([
                        fmt9(a[i]), fmt9(p[j]), fmt9(lam[k]), fmt9(gam[m]),
                        fmt9(result.delta_i[i, j, k, m]), fmt9(result.delta_h_obs[i, j, k, m]),
                    ]))
    experiment._write_lines(os.path.join(out_dir, "theory_sweep.csv"), lines)

    lines = ["alpha,p,mean_delta_i,mean_delta_h_obs"]
    for i in range(a.size):
        for j in range(p.size):
            lines.append(",".join([
                fmt9(a[i]), fmt9(p[j]), fmt9(result.avg_delta_i[i, j]), fmt9(result.avg_delta_h[i, j]),
            ]))
    experiment._write_lines(os.path.join(out_dir, "theory_sweep_avg.csv"), lines)

    lines = ["alpha,p_zero"]
    for alpha, pz in result.zero_contour:
        lines.append(f"{fmt9(alpha)},{fmt9(pz)}")
    experiment._write_lines(os.path.join(out_dir, "theory_contour.csv"), lines)


# exact zeros of both signs, the smallest normal and subnormal gains, and ordinary ones
GAINS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
                  st.floats(-1.0, 1.0))
# a row's planted zeros: prior indices, -1 the last, None the whole row
PLANTS = st.sampled_from([(), (0,), (1,), (-1,), (1, 2), (-2, -1), (0, 1), None])


@st.composite
def contour_surfaces(draw):
    """(alpha, prior, avg) of 1-6 alphas by 1-8 priors, zeros planted row by row."""
    n_alpha, n_prior = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    alpha = draw(st.lists(st.floats(0.01, 100.0), min_size=n_alpha, max_size=n_alpha))
    prior = draw(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 1.0)),
                          min_size=n_prior, max_size=n_prior))
    avg = np.array(draw(st.lists(st.lists(GAINS, min_size=n_prior, max_size=n_prior),
                                 min_size=n_alpha, max_size=n_alpha)))
    for row in avg:
        plant = draw(PLANTS)
        row[list(range(n_prior)) if plant is None else [j for j in plant if -n_prior <= j < n_prior]] = 0.0
    return np.array(alpha), np.array(prior), avg


def _hex_pairs(points):
    return [(a.hex(), p.hex()) for a, p in points]


@settings(max_examples=400, deadline=None)
@given(surface=contour_surfaces())
@example(surface=(np.array([0.5]), np.array([0.1, 0.2, 0.3]), np.array([[0.0, 1.0, -1.0]])))
@example(surface=(np.array([0.5]), np.array([0.1, 0.2, 0.3]), np.array([[1.0, 0.0, -1.0]])))
@example(surface=(np.array([0.5]), np.array([0.1, 0.2, 0.3]), np.array([[-1.0, 1.0, 0.0]])))
@example(surface=(np.array([0.5]), np.array([0.1, 0.2, 0.3]), np.array([[0.0, 0.0, 1.0]])))
@example(surface=(np.array([0.5, 2.0]), np.array([0.3, 0.1, 0.2]),
                  np.array([[0.0, 0.0, 0.0], [-1.0, 2.0, -0.5]])))
@example(surface=(np.array([1.0]), np.array([0.4]), np.array([[0.0]])))
def test_zero_contour_matches_the_reference_loop(surface):
    alpha, prior, avg = surface
    got, want = experiment._zero_contour(alpha, prior, avg), reference_zero_contour(alpha, prior, avg)
    assert got == want
    assert _hex_pairs(got) == _hex_pairs(want)  # == takes -0.0 for 0.0


def _axis(values):
    return st.lists(values, min_size=1, max_size=3)


PROBS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(alphas=_axis(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 5.0))),
       priors=_axis(PROBS), tprs=_axis(PROBS), fprs=_axis(PROBS))
def test_theory_csvs_match_the_reference_loops(alphas, priors, tprs, fprs):
    # priors are drawn unsorted and with repeats, as a --prior-grid list may give them
    result = theory_sweep(alphas, priors, tprs, fprs)
    with tempfile.TemporaryDirectory() as got, tempfile.TemporaryDirectory() as want:
        write_theory_csvs(got, result)
        reference_write_theory_csvs(want, result)
        for name in ("theory_sweep.csv", "theory_sweep_avg.csv", "theory_contour.csv"):
            assert Path(got, name).read_bytes() == Path(want, name).read_bytes(), name


class TestScenario:
    def test_builtins_load(self):
        for name in builtin_scenarios():
            config, trials = load_scenario(name)
            assert trials >= 1
            assert config.deployment_budget >= 1

    def test_round_trip_through_text(self):
        # a built-in's dict and its shipped text load to the same mission and trial count
        for name in builtin_scenarios():
            assert load_scenario(str(SCENARIO_DIR / f"{name}.txt")) == load_scenario(name)

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

    @pytest.mark.parametrize("write_paths", [True, False])
    def test_simulate_write_paths(self, tmp_path, write_paths):
        from bapp.cli import main
        scen = tmp_path / "tiny.txt"
        scen.write_text(
            "rows = 5\ncols = 5\nhorizon = 4\ndeployment_budget = 3\nteam_size = 2\n"
            "hazard_density = 0.08\nbeam_width = 8\ntrials = 2\nmaster_seed = 11\n"
        )
        out = tmp_path / "out"
        flags = ["--write-paths"] if write_paths else []
        assert main(["simulate", "--scenario", str(scen), "--out", str(out), *flags]) == 0
        assert (out / "paths.csv").exists() is write_paths
        if write_paths:
            config, trials = load_scenario(str(scen))
            want = tmp_path / "paths.csv"
            write_paths_csv(str(want), [run_experiment(config, trials)])
            assert (out / "paths.csv").read_bytes() == want.read_bytes()

    def test_oracle_check(self, capsys):
        from bapp.cli import main
        assert main(["oracle-check", "--plans", "5"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("INFO factored belief vs joint posterior over a 12-deployment")
        assert float(last.rsplit("= ", 1)[1]) > 0.0

    def test_unknown_scenario_is_error(self, tmp_path):
        from bapp.cli import main
        assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 2
