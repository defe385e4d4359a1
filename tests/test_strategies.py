import math

import numpy as np
import pytest

from bapp.belief import BeliefMap, GridDims, init_uniform
from bapp.errors import FleetExhaustedError, ParameterError
from bapp.info_measures import BinaryChannel, MiForm
from bapp.planner import PlanConfig, plan_path, score_path
from bapp.strategies import (AgentClass, FleetState, SigPolicy, StrategyKind, TriggerPolicy,
                             select_deployment, sig_alpha, sig_select_path, sig_sweep_grid,
                             tid_should_trigger)

CH = BinaryChannel(0.7, 0.1)
CHANNELS = {AgentClass.DISPOSABLE: CH, AgentClass.HIGH_FIDELITY: BinaryChannel(0.7, 0.01)}


def fleet(r_lost=0, disp=10, hf=5, d=0, hist=None):
    return FleetState(r_total=disp + hf, disposable_remaining=disp, high_fidelity_remaining=hf,
                      r_lost=r_lost, deployment_index=d,
                      entropy_history=list(hist) if hist is not None else [1.0])


class TestSigAlpha:
    def test_no_losses_gives_alpha_min(self):
        assert sig_alpha(fleet(0), SigPolicy(0.5, 1.5)) == 0.5

    def test_total_loss_gives_alpha_max(self):
        assert sig_alpha(fleet(15), SigPolicy(0.5, 1.5)) == 1.5

    def test_midpoint(self):
        f = FleetState(r_total=10, disposable_remaining=5, high_fidelity_remaining=0, r_lost=5)
        assert sig_alpha(f, SigPolicy(0.5, 1.5)) == pytest.approx(1.0)

    def test_monotone_and_bounded(self):
        pol = SigPolicy(0.4, 1.2)
        vals = [sig_alpha(fleet(k), pol) for k in range(16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(pol.alpha_min <= v <= pol.alpha_max for v in vals)

    def test_invalid_fleet(self):
        with pytest.raises(ParameterError):
            FleetState(r_total=0, disposable_remaining=0, high_fidelity_remaining=0)


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

    def test_empty_after_clipping(self):
        with pytest.raises(ParameterError):
            sig_sweep_grid(0.1, SigPolicy(sweep_halfwidth=0.5, sweep_step=2.0))


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
            f = fleet(r_lost, disp=10, hf=5)
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
        f = fleet(d=2, hist=[1.0, 0.99, 0.985])
        assert tid_should_trigger(f, pol)

    def test_steep_drop_does_not_trigger(self):
        pol = TriggerPolicy(window=2, theta_early=0.05, phase_switch=10)
        f = fleet(d=2, hist=[1.0, 0.9, 0.8])
        assert not tid_should_trigger(f, pol)

    def test_no_stock_never_triggers(self):
        pol = TriggerPolicy(window=2, theta_early=0.05, phase_switch=10)
        f = fleet(d=2, hist=[1.0, 0.999, 0.999], hf=0)
        assert not tid_should_trigger(f, pol)

    def test_short_history_references_h0(self):
        pol = TriggerPolicy(window=5, theta_early=0.01, phase_switch=10)
        f = fleet(d=1, hist=[1.0, 0.995])
        assert tid_should_trigger(f, pol)

    def test_phase_two_threshold_decays_to_floor(self):
        pol = TriggerPolicy(window=1, theta_early=0.5, phase_switch=0,
                            eps_min=0.01, eps_max=0.05, decay_rate=0.001)
        thresholds = [max(pol.eps_min, pol.eps_max - pol.decay_rate * d) for d in range(1, 100)]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == pol.eps_min
        # a 0.015 drop is stagnation at d=30 (threshold 0.02) but healthy
        # progress at d=60 once the threshold has decayed to 0.01
        f30 = fleet(d=30, hist=[1.0] * 30 + [0.985])
        f60 = fleet(d=60, hist=[1.0] * 60 + [0.985])
        assert tid_should_trigger(f30, pol)
        assert not tid_should_trigger(f60, pol)


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
                                           self.plan, CHANNELS, rng=np.random.default_rng(0))
        assert math.isnan(alpha)
        traj.validate(self.belief.dims)

    def test_tid_flat_history_deploys_high_fidelity(self):
        f = fleet(d=3, hist=[1.0, 1.0, 1.0, 1.0])
        cls, _, alpha = select_deployment(StrategyKind.BAPP_TID, f, self.belief, 5,
                                          self.plan, CHANNELS, trigger=TriggerPolicy())
        assert cls is AgentClass.HIGH_FIDELITY
        assert alpha == TriggerPolicy().alpha_hf

    def test_tid_progress_deploys_disposable(self):
        f = fleet(d=3, hist=[1.0, 0.9, 0.8, 0.7])
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
        f = FleetState(r_total=10, disposable_remaining=0, high_fidelity_remaining=0,
                       r_lost=10, entropy_history=[1.0])
        with pytest.raises(FleetExhaustedError):
            select_deployment(StrategyKind.STD_ITP, f, self.belief, 5, self.plan, CHANNELS)
