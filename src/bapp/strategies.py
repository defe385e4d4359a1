"""Mission-level deployment policies.

Four strategies:

  std-itp   Shannon planner (alpha = 1) with a disposable agent.
  random    uniform random walk baseline.
  bapp-sig  loss-adaptive alpha: interpolates alpha from the fleet's loss
            fraction, sweeps a small neighborhood, deploys the path with
            the highest expected information at its own alpha.
  bapp-tid  two-phase triggered deployment of scarce high-fidelity agents
            when the windowed entropy drop stagnates.

plan_round is the one dispatcher from a strategy to deployments: it
yields a team round's deployments, one sector at a time, from the live
fleet, and select_deployment is its one-sector call. std-itp and bapp-tid
decide one (class, alpha) per fleet state, so plan_round plans every
sector of the round in one batched beam, and the rest of the round again
at a sector whose decision has changed by its turn; random and bapp-sig
plan each sector at its turn.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .belief import BeliefMap
from .errors import FleetExhaustedError, ParameterError
from .info_measures import BinaryChannel, _check_alpha
from .planner import PlanConfig, Trajectory, plan_paths, random_walk

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

    # each member is a singleton, also after pickling, so identity is its
    # hash; Enum's own hashes the name in Python on every dict lookup
    __hash__ = object.__hash__


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
        if self.alpha_max < self.alpha_min:
            raise ParameterError("need alpha_min <= alpha_max")
        if self.sweep_halfwidth < 0 or not 0 < self.sweep_step < math.inf:
            raise ParameterError("need sweep_halfwidth >= 0 and a finite sweep_step > 0")
        if not 2.0 * self.sweep_halfwidth / self.sweep_step <= MAX_SWEEP_STEPS:
            raise ParameterError(f"need 2 * sweep_halfwidth / sweep_step <= {MAX_SWEEP_STEPS}")
        # sig_alpha's centres run from alpha_min to alpha_max: if alpha_min's
        # sweep is not empty after clipping, no sweep is, and alpha_max's
        # sweep holds the highest alpha a deployment plans at
        sig_sweep_grid(self.alpha_min, self)
        _check_alpha([self.alpha_min, *sig_sweep_grid(self.alpha_max, self)])


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
        _check_alpha([self.alpha_explore, self.alpha_hf])


@dataclass
class FleetState:
    """The one record of a mission's fleet: the strategies read it, run_trial
    updates it and reports stock, losses, rounds and entropy from it.

    stock maps each agent class to its robots left to deploy, and
    entropy_history holds the entropy after each round, the initial one
    first, so the current round index is len(entropy_history) - 1."""

    stock: dict
    r_lost: int = 0
    entropy_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.r_total < 1:
            raise ParameterError("fleet needs at least one robot")

    @property
    def in_stock(self) -> int:
        """Robots of every class left to deploy."""
        return sum(self.stock.values())

    @property
    def r_total(self) -> int:
        """The initial stock of all classes: every robot is lost or in stock."""
        return self.r_lost + self.in_stock


def sig_alpha(fleet: FleetState, policy: SigPolicy) -> float:
    """Linear interpolation of alpha between the policy bounds by loss fraction."""
    frac = fleet.r_lost / fleet.r_total
    a = policy.alpha_min + (policy.alpha_max - policy.alpha_min) * frac
    return min(max(a, policy.alpha_min), policy.alpha_max)


def sig_sweep_grid(alpha_hat: float, policy: SigPolicy) -> list[float]:
    """Sweep values alpha_hat - eps ... alpha_hat + eps, clipped to > 0."""
    eps, step = policy.sweep_halfwidth, policy.sweep_step
    n = int(math.floor(2.0 * eps / step + 1e-9))  # 0 for a zero halfwidth: [alpha_hat]
    grid = [a for a in (alpha_hat - eps + k * step for k in range(n + 1)) if a > 0.0]
    if not grid:
        raise ParameterError("alpha sweep is empty after clipping to positive values")
    return grid


def sig_select_path(fleet: FleetState, policy: SigPolicy, belief: BeliefMap, start: int,
                    plan: PlanConfig, channel: BinaryChannel,
                    mask: Optional[np.ndarray] = None) -> tuple[Trajectory, float]:
    """Plan one path within `mask` per sweep alpha and keep the highest-scoring one.

    The whole sweep is one plan_paths call. Each candidate is scored by its
    expected information at its own alpha; ties go to the smaller alpha.
    """
    alphas = sig_sweep_grid(sig_alpha(fleet, policy), policy)
    found = plan_paths(belief, start, plan, channel, [(mask, a) for a in alphas])
    best = max(range(len(alphas)), key=lambda k: found[k][0])  # max keeps the first best
    return Trajectory._of_ints(start, found[best][1]), alphas[best]


def tid_should_trigger(fleet: FleetState, policy: TriggerPolicy) -> bool:
    """True when the windowed entropy drop is below the phase threshold.

    The drop is H_{d-window} - H_d at round index d, referenced to H_0
    while d < window.
    """
    hist = fleet.entropy_history
    if not hist:
        raise ParameterError("entropy history is empty")
    d = len(hist) - 1
    ref = hist[max(0, d - policy.window)]
    drop = ref - hist[d]
    if d <= policy.phase_switch:
        threshold = policy.theta_early
    else:
        threshold = max(policy.eps_min, policy.eps_max - policy.decay_rate * d)
    return drop < threshold


def _pick_class(fleet: FleetState, preferred: AgentClass) -> AgentClass:
    """Preferred class if stocked, otherwise the first stocked one; error when none is."""
    if fleet.stock[preferred] > 0:
        return preferred
    for cls, left in fleet.stock.items():
        if left > 0:
            return cls
    raise FleetExhaustedError("no agents left to deploy")


def deployment_decision(strategy: StrategyKind, fleet: FleetState,
                        trigger: Optional[TriggerPolicy] = None) -> tuple[AgentClass, float]:
    """(agent class, alpha) of a std-itp or bapp-tid deployment from this fleet state."""
    if strategy is StrategyKind.STD_ITP:
        return _pick_class(fleet, AgentClass.DISPOSABLE), 1.0
    if strategy is StrategyKind.BAPP_TID:
        if trigger is None:
            raise ParameterError("bapp-tid needs a TriggerPolicy")
        hf = AgentClass.HIGH_FIDELITY
        cls = _pick_class(fleet, hf if tid_should_trigger(fleet, trigger) else AgentClass.DISPOSABLE)
        return cls, trigger.alpha_hf if cls is hf else trigger.alpha_explore
    raise ParameterError(f"no fixed (class, alpha) decision for {strategy!r}")


def plan_round(strategy: StrategyKind, fleet: FleetState, belief: BeliefMap, start: int,
               plan: PlanConfig, channels: dict, masks: Sequence[Optional[np.ndarray]],
               sig: Optional[SigPolicy] = None, trigger: Optional[TriggerPolicy] = None,
               words: Optional[Sequence[Iterable[int]]] = None
               ) -> Iterator[tuple[AgentClass, Trajectory, float]]:
    """Each sector's deployment within masks[sector], (agent class, trajectory,
    alpha used), decided from `fleet` as it stands when that sector is asked for.
    This is the one place where a strategy becomes deployments.

    The caller records each sector's outcome in `fleet` before asking for the
    next; `belief` stays the round-start one. A fleet that runs out ends the
    round, and one that is empty at the first sector raises
    FleetExhaustedError. A random sector walks with words[sector], its walk
    stream's uint32 words (see random_walk). A bapp-sig sector sweeps its
    alphas at its turn (sig_select_path), because its alpha moves with every
    loss. std-itp and bapp-tid plan every sector in one plan_paths pass, and
    the rest of the round in one more at a sector whose deployment_decision
    has changed by its turn (a stock ran out); each sector gets the path it
    would get planned alone, bit for bit.
    """
    decision = None
    for sector, mask in enumerate(masks):
        if sector and not fleet.in_stock:
            return
        # at the first sector, _pick_class raises on an empty fleet
        if strategy is StrategyKind.RANDOM:
            cls = _pick_class(fleet, AgentClass.DISPOSABLE)
            if words is None:
                raise ParameterError("random strategy needs walk words")
            yield cls, random_walk(start, plan.horizon, belief.dims, mask, words[sector]), math.nan
        elif strategy is StrategyKind.BAPP_SIG:
            if sig is None:
                raise ParameterError("bapp-sig needs a SigPolicy")
            cls = _pick_class(fleet, AgentClass.DISPOSABLE)
            yield (cls, *sig_select_path(fleet, sig, belief, start, plan, channels[cls], mask))
        else:
            now = deployment_decision(strategy, fleet, trigger)
            if now != decision:
                # the first sector, or a miss: an earlier sector's loss changed
                # this one's decision, so the rest of the round is planned again
                cls, alpha = decision = now
                paths = iter(plan_paths(belief, start, plan, channels[cls], [(m, alpha) for m in masks[sector:]]))
            yield cls, Trajectory._of_ints(start, next(paths)[1]), alpha


def select_deployment(strategy: StrategyKind, fleet: FleetState, belief: BeliefMap, start: int,
                      plan: PlanConfig, channels: dict, mask: Optional[np.ndarray] = None,
                      sig: Optional[SigPolicy] = None, trigger: Optional[TriggerPolicy] = None,
                      words: Optional[Iterable[int]] = None) -> tuple[AgentClass, Trajectory, float]:
    """One deployment within `mask`, (agent class, trajectory, alpha used): the
    first of plan_round over the one sector [mask]. Raises FleetExhaustedError
    on an empty fleet.

    A random deployment walks with `words`, its walk stream's uint32 words (see random_walk).
    """
    return next(plan_round(strategy, fleet, belief, start, plan, channels, [mask], sig, trigger,
                           None if words is None else [words]))
