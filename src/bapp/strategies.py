"""Mission-level deployment policies.

Four strategies are dispatched per deployment:

  std-itp   Shannon planner (alpha = 1) with a disposable agent.
  random    uniform random walk baseline.
  bapp-sig  loss-adaptive alpha: interpolates alpha from the fleet's loss
            fraction, sweeps a small neighborhood, deploys the path with
            the highest expected information at its own alpha.
  bapp-tid  two-phase triggered deployment of scarce high-fidelity agents
            when the windowed entropy drop stagnates.

std-itp and bapp-tid decide one (class, alpha) per fleet state, so
plan_round plans every sector of a team round in one batched beam;
random and bapp-sig plan each sector at its turn.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .belief import BeliefMap
from .errors import FleetExhaustedError, ParameterError
from .info_measures import BinaryChannel
from .planner import PlanConfig, Trajectory, plan_path, plan_paths, random_walk

__all__ = [
    "AgentClass",
    "StrategyKind",
    "SigPolicy",
    "TriggerPolicy",
    "FleetState",
    "MAX_SWEEP_STEPS",
    "sig_alpha",
    "sig_sweep_grid",
    "sig_select_path",
    "tid_should_trigger",
    "deployment_decision",
    "plan_round",
    "select_deployment",
]


class AgentClass(enum.Enum):
    DISPOSABLE = "disposable"
    HIGH_FIDELITY = "high-fidelity"


class StrategyKind(enum.Enum):
    STD_ITP = "std-itp"
    RANDOM = "random"
    BAPP_SIG = "bapp-sig"
    BAPP_TID = "bapp-tid"


# bound on 2 * sweep_halfwidth / sweep_step: one bapp-sig deployment plans
# at most MAX_SWEEP_STEPS + 1 paths
MAX_SWEEP_STEPS = 1000


@dataclass(frozen=True)
class SigPolicy:
    """Bounds and sweep shape for the loss-adaptive alpha strategy."""

    alpha_min: float = 0.5
    alpha_max: float = 1.5
    sweep_halfwidth: float = 0.2
    sweep_step: float = 0.1

    def __post_init__(self):
        if self.alpha_min <= 0 or self.alpha_max < self.alpha_min:
            raise ParameterError("need 0 < alpha_min <= alpha_max")
        if self.sweep_halfwidth < 0 or self.sweep_step <= 0:
            raise ParameterError("need sweep_halfwidth >= 0 and sweep_step > 0")
        if not 2.0 * self.sweep_halfwidth / self.sweep_step <= MAX_SWEEP_STEPS:
            raise ParameterError(f"need 2 * sweep_halfwidth / sweep_step <= {MAX_SWEEP_STEPS}")
        # alpha_min is the lowest centre sig_alpha returns: if its sweep is not
        # empty after clipping, no sweep is
        sig_sweep_grid(self.alpha_min, self)


@dataclass(frozen=True)
class TriggerPolicy:
    """Two-phase entropy-stagnation trigger for high-fidelity deployments.

    Phase I (d <= phase_switch) triggers when the windowed entropy drop
    falls below theta_early; phase II tightens the threshold over time to
    max(eps_min, eps_max - decay_rate * d). Thresholds are in bits of
    normalized mean map entropy.
    """

    window: int = 3
    theta_early: float = 0.02
    phase_switch: int = 12
    eps_min: float = 0.01
    eps_max: float = 0.05
    decay_rate: float = 0.001
    alpha_explore: float = 1.2
    alpha_hf: float = 1.0

    def __post_init__(self):
        if self.window < 1:
            raise ParameterError("window must be >= 1")
        if self.theta_early <= 0:
            raise ParameterError("theta_early must be > 0")
        if self.phase_switch < 0 or self.decay_rate < 0:
            raise ParameterError("phase_switch and decay_rate must be >= 0")
        if not (0 < self.eps_min <= self.eps_max):
            raise ParameterError("need 0 < eps_min <= eps_max")
        if self.alpha_explore <= 0 or self.alpha_hf <= 0:
            raise ParameterError("alpha_explore and alpha_hf must be > 0")


@dataclass
class FleetState:
    """The one record of a mission's fleet: the strategies read it, run_trial
    updates it and reports stock, losses, rounds and entropy from it."""

    r_total: int
    disposable_remaining: int
    high_fidelity_remaining: int
    r_lost: int = 0
    deployment_index: int = 0
    entropy_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.r_total < 1:
            raise ParameterError("fleet needs at least one robot")

    def remaining(self, cls: AgentClass) -> int:
        if cls is AgentClass.DISPOSABLE:
            return self.disposable_remaining
        return self.high_fidelity_remaining


def sig_alpha(fleet: FleetState, policy: SigPolicy) -> float:
    """Linear interpolation of alpha between the policy bounds by loss fraction."""
    if fleet.r_total < 1:
        raise ParameterError("fleet total must be >= 1")
    frac = fleet.r_lost / fleet.r_total
    a = policy.alpha_min + (policy.alpha_max - policy.alpha_min) * frac
    return min(max(a, policy.alpha_min), policy.alpha_max)


def sig_sweep_grid(alpha_hat: float, policy: SigPolicy) -> list[float]:
    """Sweep values alpha_hat - eps ... alpha_hat + eps, clipped to > 0."""
    eps, step = policy.sweep_halfwidth, policy.sweep_step
    if eps == 0.0:
        grid = [alpha_hat]
    else:
        n = int(math.floor(2.0 * eps / step + 1e-9))
        grid = [alpha_hat - eps + k * step for k in range(n + 1)]
    grid = [a for a in grid if a > 0.0]
    if not grid:
        raise ParameterError("alpha sweep is empty after clipping to positive values")
    return grid


def sig_select_path(fleet: FleetState, policy: SigPolicy, belief: BeliefMap, start: int,
                    plan: PlanConfig, channel: BinaryChannel,
                    mask: Optional[frozenset] = None) -> tuple[Trajectory, float]:
    """Plan one path within `mask` per sweep alpha and keep the highest-scoring one.

    The whole sweep is one plan_paths call. Each candidate is scored by its
    expected information at its own alpha; ties go to the smaller alpha.
    """
    alphas = sig_sweep_grid(sig_alpha(fleet, policy), policy)
    best = None
    found = plan_paths(belief, start, plan, channel, [(mask, a) for a in alphas])
    for a, (s, cells) in zip(alphas, found):
        if best is None or s > best[0]:
            best = (s, a, cells)
    return Trajectory(start=start, cells=best[2]), best[1]


def tid_should_trigger(fleet: FleetState, policy: TriggerPolicy) -> bool:
    """True when the windowed entropy drop is below the phase threshold.

    The drop is H_{d-window} - H_d, referenced to H_0 while d < window.
    Never triggers once the high-fidelity stock is gone.
    """
    if fleet.high_fidelity_remaining <= 0:
        return False
    hist = fleet.entropy_history
    if not hist:
        raise ParameterError("entropy history is empty")
    d = fleet.deployment_index
    ref = hist[max(0, d - policy.window)]
    drop = ref - hist[d]
    if d <= policy.phase_switch:
        threshold = policy.theta_early
    else:
        threshold = max(policy.eps_min, policy.eps_max - policy.decay_rate * d)
    return drop < threshold


def _pick_class(fleet: FleetState, preferred: AgentClass) -> AgentClass:
    """Preferred class if stocked, otherwise the other; error when both empty."""
    if fleet.remaining(preferred) > 0:
        return preferred
    other = AgentClass.HIGH_FIDELITY if preferred is AgentClass.DISPOSABLE else AgentClass.DISPOSABLE
    if fleet.remaining(other) > 0:
        return other
    raise FleetExhaustedError("no agents left to deploy")


# the strategies whose whole decision is one (class, alpha) per fleet state
_FIXED_ALPHA = (StrategyKind.STD_ITP, StrategyKind.BAPP_TID)


def deployment_decision(strategy: StrategyKind, fleet: FleetState,
                        trigger: Optional[TriggerPolicy] = None) -> tuple[AgentClass, float]:
    """(agent class, alpha) of a std-itp or bapp-tid deployment from this fleet state."""
    if strategy is StrategyKind.STD_ITP:
        return _pick_class(fleet, AgentClass.DISPOSABLE), 1.0
    if strategy is StrategyKind.BAPP_TID:
        if trigger is None:
            raise ParameterError("bapp-tid needs a TriggerPolicy")
        if tid_should_trigger(fleet, trigger):
            cls = _pick_class(fleet, AgentClass.HIGH_FIDELITY)
            return cls, trigger.alpha_hf if cls is AgentClass.HIGH_FIDELITY else trigger.alpha_explore
        cls = _pick_class(fleet, AgentClass.DISPOSABLE)
        return cls, trigger.alpha_explore if cls is AgentClass.DISPOSABLE else trigger.alpha_hf
    raise ParameterError(f"no fixed (class, alpha) decision for {strategy!r}")


def plan_round(strategy: StrategyKind, fleet: FleetState, belief: BeliefMap, start: int,
               plan: PlanConfig, channels: dict, masks: list,
               trigger: Optional[TriggerPolicy] = None
               ) -> Optional[tuple[tuple[AgentClass, float], list[Trajectory]]]:
    """Every sector of a round planned from the round-start fleet, in one plan_paths pass.

    For std-itp and bapp-tid returns the deployment_decision and one
    trajectory per mask: the path select_deployment plans for that mask
    under that decision, bit for bit. A sector whose decision has changed by
    its turn (a stock ran out) must be planned again alone. Returns None for
    random and bapp-sig, which plan each sector at its turn.
    """
    if strategy not in _FIXED_ALPHA:
        return None
    decision = deployment_decision(strategy, fleet, trigger)
    cls, alpha = decision
    found = plan_paths(belief, start, plan, channels[cls], [(mask, alpha) for mask in masks])
    return decision, [Trajectory(start=start, cells=cells) for _, cells in found]


def select_deployment(strategy: StrategyKind, fleet: FleetState, belief: BeliefMap, start: int,
                      plan: PlanConfig, channels: dict, mask: Optional[frozenset] = None,
                      sig: Optional[SigPolicy] = None, trigger: Optional[TriggerPolicy] = None,
                      rng: Optional[np.random.Generator] = None) -> tuple[AgentClass, Trajectory, float]:
    """Dispatch one deployment decision within `mask`: (agent class, trajectory, alpha used)."""
    if strategy in _FIXED_ALPHA:
        cls, alpha = deployment_decision(strategy, fleet, trigger)
        return cls, plan_path(belief, start, plan, channels[cls], mask, alpha), alpha
    if strategy is StrategyKind.RANDOM:
        cls = _pick_class(fleet, AgentClass.DISPOSABLE)
        if rng is None:
            raise ParameterError("random strategy needs an rng")
        return cls, random_walk(start, plan.horizon, belief.dims, mask, rng), math.nan
    if strategy is StrategyKind.BAPP_SIG:
        if sig is None:
            raise ParameterError("bapp-sig needs a SigPolicy")
        cls = _pick_class(fleet, AgentClass.DISPOSABLE)
        traj, a = sig_select_path(fleet, sig, belief, start, plan, channels[cls], mask)
        return cls, traj, a
    raise ParameterError(f"unknown strategy {strategy!r}")
