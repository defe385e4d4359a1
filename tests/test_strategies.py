import math

import numpy as np
import pytest

from bapp import strategies
from bapp.belief import BeliefMap, GridDims, init_uniform
from bapp.coordination import sector_masks
from bapp.errors import FleetExhaustedError, ParameterError
from bapp.info_measures import MAX_ALPHA, BinaryChannel, MiForm
from bapp.planner import PlanConfig, plan_path, score_path
from bapp.strategies import (AgentClass, FleetState, SigPolicy, StrategyKind, TriggerPolicy,
                             deployment_decision, plan_round, select_deployment, sig_alpha, sig_select_path, sig_sweep_grid,
                             tid_should_trigger)
from test_planner import words_of

CH = BinaryChannel(0.7, 0.1)
CHANNELS = {AgentClass.DISPOSABLE: CH, AgentClass.HIGH_FIDELITY: BinaryChannel(0.7, 0.01)}


def fleet(r_lost=0, disp=10, hf=5, hist=None):
    return FleetState(stock={AgentClass.DISPOSABLE: disp, AgentClass.HIGH_FIDELITY: hf},
                      r_lost=r_lost, entropy_history=list(hist) if hist is not None else [1.0])


class TestSigAlpha:
    def test_no_losses_gives_alpha_min(self):
        assert sig_alpha(fleet(0), SigPolicy(0.5, 1.5)) == 0.5

    def test_total_loss_gives_alpha_max(self):
        assert sig_alpha(fleet(15, disp=0, hf=0), SigPolicy(0.5, 1.5)) == 1.5

    def test_midpoint(self):
        f = FleetState(stock={AgentClass.DISPOSABLE: 5, AgentClass.HIGH_FIDELITY: 0}, r_lost=5)
        assert sig_alpha(f, SigPolicy(0.5, 1.5)) == pytest.approx(1.0)

    def test_monotone_and_bounded(self):
        pol = SigPolicy(0.4, 1.2)
        vals = [sig_alpha(fleet(k, disp=15 - k, hf=0), pol) for k in range(16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(pol.alpha_min <= v <= pol.alpha_max for v in vals)

    def test_invalid_fleet(self):
        with pytest.raises(ParameterError):
            FleetState(stock={AgentClass.DISPOSABLE: 0, AgentClass.HIGH_FIDELITY: 0})


class TestSweepGrid:
    def test_degenerate(self):
        assert sig_sweep_grid(0.9, SigPolicy(sweep_halfwidth=0.0)) == [0.9]

    def test_symmetric_window(self):
        grid = sig_sweep_grid(1.0, SigPolicy(sweep_halfwidth=0.2, sweep_step=0.1))
        assert grid == pytest.approx([0.8, 0.9, 1.0, 1.1, 1.2])

    def test_clipped_to_positive(self):
        grid = sig_sweep_grid(0.1, SigPolicy(sweep_halfwidth=0.2, sweep_step=0.1))
        assert min(grid) > 0.0
        assert grid == pytest.approx([0.1, 0.2, 0.3])

    def test_infinite_step_is_refused(self):
        # 0 * inf is nan: even a zero halfwidth's one alpha would be lost
        with pytest.raises(ParameterError, match="finite sweep_step"):
            SigPolicy(sweep_halfwidth=0.0, sweep_step=math.inf)

    def test_empty_after_clipping(self):
        with pytest.raises(ParameterError):
            sig_sweep_grid(0.1, SigPolicy(sweep_halfwidth=0.5, sweep_step=2.0))

    def test_policy_is_checked_at_its_sweeps_top(self):
        # alpha_max is in range, but the top of its sweep is not
        with pytest.raises(ParameterError, match=r"alpha must be in \(0, 100\], got 100.05"):
            SigPolicy(0.5, MAX_ALPHA - 0.15, 0.2, 0.1)
        # a policy that passes plans at every alpha of its top sweep
        pol = SigPolicy(0.5, MAX_ALPHA - 0.2, 0.2, 0.1)
        b = BeliefMap(GridDims(3, 3), np.full(9, 0.5))
        _, alpha = sig_select_path(fleet(1, disp=0, hf=0), pol, b, 4, PlanConfig(horizon=2, beam_width=4), CH)
        assert MAX_ALPHA - 0.4 <= alpha <= MAX_ALPHA


class TestSigSelectPath:
    def test_degenerate_sweep_equals_plan_path(self):
        rng = np.random.default_rng(3)
        b = BeliefMap(GridDims(4, 4), rng.uniform(0.1, 0.9, 16))
        plan = PlanConfig(horizon=4, beam_width=8, mi_form=MiForm.CHANNEL)
        pol = SigPolicy(alpha_min=0.7, alpha_max=0.7, sweep_halfwidth=0.0)
        traj, alpha = sig_select_path(fleet(0), pol, b, 5, plan, CH)
        assert alpha == 0.7
        assert traj == plan_path(b, 5, plan, CH, alpha=0.7)

    def test_tie_goes_to_smaller_alpha(self):
        # fully resolved map: every sweep candidate scores 0
        b = BeliefMap(GridDims(3, 3), np.zeros(9))
        plan = PlanConfig(horizon=2, beam_width=4)
        pol = SigPolicy(alpha_min=0.9, alpha_max=0.9, sweep_halfwidth=0.1, sweep_step=0.1)
        _, alpha = sig_select_path(fleet(0), pol, b, 4, plan, CH)
        assert alpha == pytest.approx(0.8)

    def test_returned_score_is_sweep_max(self):
        # the per-alpha loop the batched sweep replaced: ties go to the smaller alpha
        rng = np.random.default_rng(11)
        plan = PlanConfig(horizon=5, beam_width=16, mi_form=MiForm.CHANNEL)
        pol = SigPolicy(alpha_min=0.5, alpha_max=1.5, sweep_halfwidth=0.2, sweep_step=0.1)
        for r_lost in (0, 3, 7, 11, 15):
            f = fleet(r_lost, disp=15 - r_lost, hf=0)
            b = BeliefMap(GridDims(5, 5), rng.uniform(0.05, 0.95, 25))
            traj, alpha = sig_select_path(f, pol, b, 12, plan, CH)
            best = None
            for a in sig_sweep_grid(sig_alpha(f, pol), pol):
                t = plan_path(b, 12, plan, CH, alpha=a)
                s = score_path(b, t, CH, a, plan.mi_form)
                if best is None or s > best[0]:
                    best = (s, a, t)
            assert score_path(b, traj, CH, alpha, plan.mi_form) == best[0]
            assert (alpha, traj) == (best[1], best[2])

    def test_low_loss_sweep_prefers_safer_cells(self):
        # a high-uncertainty pocket next to suspected hazards: the sweep at
        # alpha_min should route through the believed-safe side
        dims = GridDims(5, 5)
        probs = np.full(25, 0.1)
        probs[[3, 4, 8, 9]] = 0.5    # fresh pocket behind...
        probs[[2, 7]] = 0.75         # ...a suspected wall
        b = BeliefMap(dims, probs)
        plan = PlanConfig(horizon=3, beam_width=None, mi_form=MiForm.CHANNEL)
        pol = SigPolicy(alpha_min=0.5, alpha_max=1.5, sweep_halfwidth=0.2, sweep_step=0.1)
        traj, alpha = sig_select_path(fleet(0), pol, b, 12, plan, CH)
        assert alpha < 1.0
        wall_q = 0.75 * CH.tpr + 0.25 * CH.fpr
        path_q = [float(probs[c]) * CH.tpr + (1 - float(probs[c])) * CH.fpr for c in traj.cells]
        assert max(path_q) < wall_q


class TestTidTrigger:
    def test_shallow_drop_triggers_phase_one(self):
        pol = TriggerPolicy(window=2, theta_early=0.05, phase_switch=10)
        f = fleet(hist=[1.0, 0.99, 0.985])
        assert tid_should_trigger(f, pol)

    def test_steep_drop_does_not_trigger(self):
        pol = TriggerPolicy(window=2, theta_early=0.05, phase_switch=10)
        f = fleet(hist=[1.0, 0.9, 0.8])
        assert not tid_should_trigger(f, pol)

    def test_short_history_references_h0(self):
        pol = TriggerPolicy(window=5, theta_early=0.01, phase_switch=10)
        f = fleet(hist=[1.0, 0.995])
        assert tid_should_trigger(f, pol)

    def test_phase_two_threshold_decays_to_floor(self):
        pol = TriggerPolicy(window=1, theta_early=0.5, phase_switch=0,
                            eps_min=0.01, eps_max=0.05, decay_rate=0.001)
        thresholds = [max(pol.eps_min, pol.eps_max - pol.decay_rate * d) for d in range(1, 100)]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == pol.eps_min
        # a 0.015 drop is stagnation at d=30 (threshold 0.02) but healthy
        # progress at d=60 once the threshold has decayed to 0.01
        f30 = fleet(hist=[1.0] * 30 + [0.985])
        f60 = fleet(hist=[1.0] * 60 + [0.985])
        assert tid_should_trigger(f30, pol)
        assert not tid_should_trigger(f60, pol)


DISP, HF = AgentClass.DISPOSABLE, AgentClass.HIGH_FIDELITY
TRIGGER = TriggerPolicy(window=2, theta_early=0.05, phase_switch=10, alpha_explore=1.2, alpha_hf=0.8)
# (strategy, stagnant, hf, disp, want): see TestDeploymentDecision
DECISION_TABLE = [
    (StrategyKind.STD_ITP, False, 0, 0, None),
    (StrategyKind.STD_ITP, False, 0, 3, (DISP, 1.0)),
    (StrategyKind.STD_ITP, False, 2, 0, (HF, 1.0)),
    (StrategyKind.STD_ITP, False, 2, 3, (DISP, 1.0)),
    (StrategyKind.STD_ITP, True, 0, 0, None),
    (StrategyKind.STD_ITP, True, 0, 3, (DISP, 1.0)),
    (StrategyKind.STD_ITP, True, 2, 0, (HF, 1.0)),
    (StrategyKind.STD_ITP, True, 2, 3, (DISP, 1.0)),
    (StrategyKind.BAPP_TID, False, 0, 0, None),
    (StrategyKind.BAPP_TID, False, 0, 3, (DISP, 1.2)),
    (StrategyKind.BAPP_TID, False, 2, 0, (HF, 0.8)),
    (StrategyKind.BAPP_TID, False, 2, 3, (DISP, 1.2)),
    (StrategyKind.BAPP_TID, True, 0, 0, None),
    (StrategyKind.BAPP_TID, True, 0, 3, (DISP, 1.2)),
    (StrategyKind.BAPP_TID, True, 2, 0, (HF, 0.8)),
    (StrategyKind.BAPP_TID, True, 2, 3, (HF, 0.8)),
]


def table_fleet(stagnant, hf, disp):
    hist = [1.0, 0.999, 0.998] if stagnant else [1.0, 0.9, 0.8]
    return fleet(r_lost=5 - hf - disp, disp=disp, hf=hf, hist=hist)


class TestDeploymentDecision:
    """The whole (class, alpha) table of std-itp and bapp-tid: trigger condition
    met or not (flat or falling entropy), high-fidelity and disposable stock
    empty or not. None means the fleet is empty."""

    @pytest.mark.parametrize("strategy, stagnant, hf, disp, want", DECISION_TABLE)
    def test_table(self, strategy, stagnant, hf, disp, want):
        f = table_fleet(stagnant, hf, disp)
        if want is None:
            with pytest.raises(FleetExhaustedError):
                deployment_decision(strategy, f, TRIGGER)
        else:
            assert deployment_decision(strategy, f, TRIGGER) == want

    def test_stagnant_history_meets_the_trigger_condition(self):
        # the trigger fires on the stagnant history, and not on the falling one
        assert tid_should_trigger(fleet(hist=[1.0, 0.999, 0.998]), TRIGGER)
        assert not tid_should_trigger(fleet(hist=[1.0, 0.9, 0.8]), TRIGGER)

    def test_other_strategies_have_no_table(self):
        for strategy in (StrategyKind.RANDOM, StrategyKind.BAPP_SIG):
            with pytest.raises(ParameterError):
                deployment_decision(strategy, fleet(), TRIGGER)

    def test_tid_needs_a_trigger_policy(self):
        with pytest.raises(ParameterError, match="TriggerPolicy"):
            deployment_decision(StrategyKind.BAPP_TID, fleet(), None)


class TestSelectDeployment:
    def setup_method(self):
        self.belief = init_uniform(GridDims(4, 4))
        self.plan = PlanConfig(horizon=3, beam_width=8)

    def test_std_uses_alpha_one(self):
        cls, traj, alpha = select_deployment(StrategyKind.STD_ITP, fleet(), self.belief, 5,
                                             self.plan, CHANNELS)
        assert cls is AgentClass.DISPOSABLE
        assert alpha == 1.0
        assert len(traj.cells) == 3

    def test_random_uses_nan_alpha(self):
        _, traj, alpha = select_deployment(StrategyKind.RANDOM, fleet(), self.belief, 5,
                                           self.plan, CHANNELS, words=words_of(np.random.default_rng(0)))
        assert math.isnan(alpha)
        traj.validate(self.belief.dims)

    def test_random_needs_walk_words(self):
        with pytest.raises(ParameterError, match="random strategy needs walk words"):
            select_deployment(StrategyKind.RANDOM, fleet(), self.belief, 5, self.plan, CHANNELS)

    def test_tid_flat_history_deploys_high_fidelity(self):
        f = fleet(hist=[1.0, 1.0, 1.0, 1.0])
        cls, _, alpha = select_deployment(StrategyKind.BAPP_TID, f, self.belief, 5,
                                          self.plan, CHANNELS, trigger=TriggerPolicy())
        assert cls is AgentClass.HIGH_FIDELITY
        assert alpha == TriggerPolicy().alpha_hf

    def test_tid_progress_deploys_disposable(self):
        f = fleet(hist=[1.0, 0.9, 0.8, 0.7])
        cls, _, alpha = select_deployment(StrategyKind.BAPP_TID, f, self.belief, 5,
                                          self.plan, CHANNELS, trigger=TriggerPolicy())
        assert cls is AgentClass.DISPOSABLE
        assert alpha == TriggerPolicy().alpha_explore

    def test_sig_low_losses_stays_near_alpha_min(self):
        pol = SigPolicy(0.5, 1.5, 0.2, 0.1)
        _, _, alpha = select_deployment(StrategyKind.BAPP_SIG, fleet(0), self.belief, 5,
                                        self.plan, CHANNELS, sig=pol)
        assert 0.5 - 0.2 <= alpha <= 0.5 + 0.2

    def test_never_deploys_empty_class(self):
        f = fleet(disp=0, hf=2)
        cls, _, _ = select_deployment(StrategyKind.STD_ITP, f, self.belief, 5, self.plan, CHANNELS)
        assert cls is AgentClass.HIGH_FIDELITY

    def test_exhausted_fleet_signals_mission_over(self):
        f = FleetState(stock={AgentClass.DISPOSABLE: 0, AgentClass.HIGH_FIDELITY: 0},
                       r_lost=10, entropy_history=[1.0])
        with pytest.raises(FleetExhaustedError):
            select_deployment(StrategyKind.STD_ITP, f, self.belief, 5, self.plan, CHANNELS)


class TestPlanRound:
    def setup_method(self):
        self.belief = BeliefMap(GridDims(4, 4), np.random.default_rng(5).uniform(0.1, 0.9, 16))
        self.plan = PlanConfig(horizon=3, beam_width=8)
        self.masks = sector_masks(5, self.belief.dims, 4)

    def round_of(self, strategy, f, **kwargs):
        return plan_round(strategy, f, self.belief, 5, self.plan, CHANNELS, self.masks, **kwargs)

    @staticmethod
    def lose(f, cls):
        f.r_lost += 1
        f.stock[cls] -= 1

    def test_loss_between_sig_sectors_changes_alpha(self):
        pol = SigPolicy(0.5, 1.5, sweep_halfwidth=0.0)
        f = fleet()
        deployments = self.round_of(StrategyKind.BAPP_SIG, f, sig=pol)
        cls, _, first = next(deployments)
        assert first == sig_alpha(f, pol) == 0.5
        self.lose(f, cls)
        _, _, second = next(deployments)
        assert second == sig_alpha(f, pol) > first

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_fleet_emptied_mid_round_ends_it(self, strategy):
        f = fleet(disp=2, hf=0)
        words = [words_of(np.random.default_rng(s)) for s in range(len(self.masks))]
        deployments = self.round_of(strategy, f, sig=SigPolicy(), trigger=TriggerPolicy(),
                                    words=words)
        cls, _, _ = next(deployments)
        self.lose(f, cls)
        cls, _, _ = next(deployments)
        self.lose(f, cls)
        assert f.in_stock == 0
        assert list(deployments) == []

    def test_std_round_replans_rest_once_when_disposables_run_out(self, monkeypatch):
        groups = []
        plan_paths = strategies.plan_paths

        def spy(belief, start, plan, channel, plan_groups):
            groups.append(len(plan_groups))
            return plan_paths(belief, start, plan, channel, plan_groups)

        f = fleet(disp=1, hf=5)
        got, fleets = [], []
        with monkeypatch.context() as m:
            m.setattr(strategies, "plan_paths", spy)
            for cls, traj, alpha in self.round_of(StrategyKind.STD_ITP, f):
                got.append((cls, traj, alpha))
                fleets.append(FleetState(dict(f.stock), f.r_lost, list(f.entropy_history)))
                self.lose(f, cls)
        assert groups == [4, 3]
        # each sector's deployment is the one it gets planned alone, from the
        # fleet as it stood at its turn
        assert got == [select_deployment(StrategyKind.STD_ITP, at_turn, self.belief, 5, self.plan,
                                         CHANNELS, mask=mask)
                       for at_turn, mask in zip(fleets, self.masks)]
        assert [cls for cls, _, _ in got] == [AgentClass.DISPOSABLE] + [AgentClass.HIGH_FIDELITY] * 3

    @pytest.mark.parametrize("strategy, stagnant, hf, disp, want", DECISION_TABLE)
    def test_fixed_alpha_deployment_is_its_path_planned_alone(self, strategy, stagnant, hf, disp, want):
        # the reference runs through plan_path, not plan_round
        for mask in self.masks:
            f = table_fleet(stagnant, hf, disp)
            if want is None:
                with pytest.raises(FleetExhaustedError):
                    select_deployment(strategy, f, self.belief, 5, self.plan, CHANNELS, mask=mask,
                                      trigger=TRIGGER)
                continue
            cls, alpha = deployment_decision(strategy, f, TRIGGER)
            assert (cls, alpha) == want
            path = plan_path(self.belief, 5, self.plan, CHANNELS[cls], mask, alpha)
            assert select_deployment(strategy, f, self.belief, 5, self.plan, CHANNELS, mask=mask,
                                     trigger=TRIGGER) == (cls, path, alpha)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_select_deployment_on_empty_fleet_raises(self, strategy):
        f = FleetState(stock={AgentClass.DISPOSABLE: 0, AgentClass.HIGH_FIDELITY: 0},
                       r_lost=4, entropy_history=[1.0])
        with pytest.raises(FleetExhaustedError):
            select_deployment(strategy, f, self.belief, 5, self.plan, CHANNELS, sig=SigPolicy(),
                              trigger=TriggerPolicy(), words=words_of(np.random.default_rng(0)))
        # so does a whole round asked of it
        words = [words_of(np.random.default_rng(s)) for s in range(len(self.masks))]
        with pytest.raises(FleetExhaustedError):
            next(self.round_of(strategy, f, sig=SigPolicy(), trigger=TriggerPolicy(), words=words))
