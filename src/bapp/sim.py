"""World generation, deployment execution, and the closed mission loop.

A trial runs rounds of deployments: relocate the base (when enabled),
partition the grid into one sector per robot (anew only when the base has
moved), let the strategy pick an agent class, behavior alpha, and path
per sector against the round-start belief, execute each path against the
hidden ground truth, then fold the binary outcomes back into the belief.
std-itp and bapp-tid plan all of a round's sectors in one batched beam
from the round-start fleet; a sector whose class or alpha has changed by
its turn is planned again alone. All randomness flows through seed
streams keyed by (master seed, trial, purpose, round, sector) so that
different strategies face identical worlds and identical per-step
failure draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .belief import (GridDims, GroundTruthMap, global_entropy, init_uniform,
                     update_on_failure, update_on_success)
from .coordination import RelocationPolicy, sector_masks, select_base_site
from .errors import FleetExhaustedError, ParameterError, ScenarioError
from .info_measures import BinaryChannel
from .planner import PlanConfig, Trajectory
from .strategies import (AgentClass, FleetState, SigPolicy, StrategyKind, TriggerPolicy,
                         deployment_decision, plan_round, select_deployment)

__all__ = [
    "AgentSpec",
    "MissionConfig",
    "DeploymentRecord",
    "TrialMetrics",
    "seed_stream",
    "generate_world",
    "execute_deployment",
    "run_trial",
]

# purpose tags for derived seed streams
_TAG_WORLD = 1
_TAG_FAILURE = 2
_TAG_WALK = 3


def seed_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (master seed, key...) tuple."""
    words = [int(master_seed), *map(int, key)]
    if 0 <= min(words) and max(words) < 2 ** 32:
        # one uint32 word each: the entropy words of the list, without
        # SeedSequence's per-int conversion
        words = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class AgentSpec:
    """Malfunction rate and stock of the agent class named by its MissionConfig slot."""

    malfunction_rate: float
    stock: int

    def __post_init__(self):
        if not (0.0 <= self.malfunction_rate < 1.0):
            raise ParameterError("malfunction rate must be in [0, 1)")
        if self.stock < 0:
            raise ParameterError("stock must be >= 0")


@dataclass(frozen=True)
class MissionConfig:
    dims: GridDims
    lethality: float = 0.7
    hazard_density: float = 0.18
    team_size: int = 1
    deployment_budget: int = 40
    strategy: StrategyKind = StrategyKind.STD_ITP
    master_seed: int = 0
    disposable: AgentSpec = field(default=None)  # filled in __post_init__
    high_fidelity: AgentSpec = field(default=None)
    plan: PlanConfig = field(default_factory=PlanConfig)
    sig: SigPolicy = field(default_factory=SigPolicy)
    trigger: TriggerPolicy = field(default_factory=TriggerPolicy)
    relocation: RelocationPolicy = field(default_factory=RelocationPolicy)
    relocate: bool = False
    base_cell: Optional[int] = None

    def __post_init__(self):
        if self.team_size < 1:
            raise ScenarioError("team size must be >= 1")
        if self.deployment_budget < 0:
            raise ScenarioError("deployment budget must be >= 0")
        if not (0.0 <= self.lethality <= 1.0):
            raise ScenarioError("lethality must be in [0, 1]")
        if not (0.0 <= self.hazard_density < 1.0):
            raise ScenarioError(f"hazard density must be in [0, 1), got {self.hazard_density}")
        if self.master_seed < 0:
            raise ScenarioError(f"master seed must be >= 0, got {self.master_seed}")
        if self.disposable is None:
            object.__setattr__(self, "disposable",
                               AgentSpec(0.10, self.deployment_budget * self.team_size))
        if self.high_fidelity is None:
            object.__setattr__(self, "high_fidelity",
                               AgentSpec(0.01, 2 * self.team_size))
        if self.disposable.stock + self.high_fidelity.stock < 1:
            raise ScenarioError("the fleet needs at least one robot in stock")
        if self.base_cell is not None and not self.dims.contains(self.base_cell):
            raise ScenarioError(f"base cell {self.base_cell} outside grid")

    @property
    def horizon(self) -> int:
        return self.plan.horizon

    @property
    def start_cell(self) -> int:
        if self.base_cell is not None:
            return self.base_cell
        return self.dims.to_cell(self.dims.rows // 2, self.dims.cols // 2)

    def channels(self) -> dict:
        return {
            AgentClass.DISPOSABLE: BinaryChannel(self.lethality, self.disposable.malfunction_rate),
            AgentClass.HIGH_FIDELITY: BinaryChannel(self.lethality, self.high_fidelity.malfunction_rate),
        }


@dataclass(frozen=True)
class DeploymentRecord:
    trial: int
    round_index: int
    sector: int
    agent_class: AgentClass
    alpha_used: float
    trajectory: Trajectory
    theta: int
    failure_step: Optional[int]  # simulator-internal, never shown to the planner
    entropy_bits: float
    cum_losses: int


@dataclass
class TrialMetrics:
    trial: int
    records: list
    entropy_series: list      # index d: entropy after round d; index 0 = initial
    loss_series: list         # cumulative losses aligned with entropy_series
    base_track: list          # base cell at each executed round
    deployments_to_half: Optional[int]
    rounds_executed: int
    initial_stock: int
    surviving_stock: int


def generate_world(dims: GridDims, hazard_density: float, lethality: float,
                   rng: np.random.Generator) -> GroundTruthMap:
    """Clustered hazard field covering the requested cell fraction.

    Seeds a few cluster centers, then grows 8-connected blobs by repeatedly
    attaching a random free neighbor of a random hazardous cell until the
    target count (round(density * cells)) is reached.
    """
    if not (0.0 <= hazard_density < 1.0):
        raise ParameterError(f"hazard density must be in [0, 1), got {hazard_density}")
    n = dims.n_cells
    target = int(round(hazard_density * n))
    hazards = np.zeros(n, dtype=np.int8)
    if target > 0:
        n_seeds = min(target, max(1, int(round(target / 6))))
        seeds = rng.choice(n, size=n_seeds, replace=False)
        hazards[seeds] = 1
        chosen = list(int(s) for s in seeds)
        attempts = 0
        while len(chosen) < target:
            attempts += 1
            if attempts > 200 * n:
                free = np.flatnonzero(hazards == 0)
                extra = rng.choice(free, size=target - len(chosen), replace=False)
                hazards[extra] = 1
                chosen.extend(int(e) for e in extra)
                break
            at = chosen[int(rng.integers(len(chosen)))]
            r, c = dims.to_rc(at)
            dr, dc = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            if dr == 0 and dc == 0:
                continue
            rr, cc = r + dr, c + dc
            if 0 <= rr < dims.rows and 0 <= cc < dims.cols:
                cand = dims.to_cell(rr, cc)
                if hazards[cand] == 0:
                    hazards[cand] = 1
                    chosen.append(cand)
    lethal = np.where(hazards == 1, float(lethality), 0.0)
    return GroundTruthMap(dims=dims, hazards=hazards, lethality=lethal)


def execute_deployment(truth: GroundTruthMap, path: Trajectory, agent: AgentSpec,
                       rng: np.random.Generator) -> tuple[int, Optional[int]]:
    """Walk the path drawing one failure coin per step.

    In a hazardous cell the robot fails with the cell's lethality, in a safe
    cell with the agent's malfunction rate. Returns (theta, failure step);
    theta = 1 means the robot never came back.
    """
    for step, cell in enumerate(path.cells):
        p_fail = truth.lethality[cell] if truth.hazards[cell] else agent.malfunction_rate
        if rng.random() < p_fail:
            return 1, step
    return 0, None


def run_trial(config: MissionConfig, trial: int) -> TrialMetrics:
    """One closed-loop mission: rounds of plan / execute / update until the
    round budget is spent or the fleet is gone."""
    dims = config.dims
    seed = config.master_seed
    truth = generate_world(dims, config.hazard_density, config.lethality,
                           seed_stream(seed, trial, _TAG_WORLD))
    belief = init_uniform(dims)
    h = global_entropy(belief)  # always the entropy of `belief`
    base = config.start_cell
    n = config.team_size
    fleet = FleetState(
        r_total=config.disposable.stock + config.high_fidelity.stock,
        disposable_remaining=config.disposable.stock,
        high_fidelity_remaining=config.high_fidelity.stock,
        entropy_history=[h],
    )
    channels = config.channels()
    specs = {AgentClass.DISPOSABLE: config.disposable, AgentClass.HIGH_FIDELITY: config.high_fidelity}

    records = []
    loss_series = [0]
    base_track = []
    d50 = None
    masks_base = None  # the base that `masks` was built for

    for d in range(1, config.deployment_budget + 1):
        if fleet.disposable_remaining + fleet.high_fidelity_remaining <= 0:
            break
        if config.relocate and d > 1 and (d - 1) % config.relocation.cadence == 0:
            base = select_base_site(belief, base, config.relocation, n)
        base_track.append(base)
        round_belief = belief  # planning snapshot: sectors cannot see each other's outcomes
        if base != masks_base:
            masks_base = base
            masks = sector_masks(base, dims, n)
        planned = plan_round(config.strategy, fleet, round_belief, base, config.plan, channels,
                             masks, trigger=config.trigger)
        decision, paths = planned if planned is not None else (None, None)
        for sector, mask in enumerate(masks):
            try:
                if paths is not None and deployment_decision(
                        config.strategy, fleet, config.trigger) == decision:
                    (cls, alpha_used), traj = decision, paths[sector]
                else:
                    # random and bapp-sig, or a miss: an earlier sector's loss
                    # changed this one's decision, so it is planned alone
                    walk_rng = (seed_stream(seed, trial, _TAG_WALK, d, sector)
                                if config.strategy is StrategyKind.RANDOM else None)
                    cls, traj, alpha_used = select_deployment(
                        config.strategy, fleet, round_belief, base, config.plan, channels,
                        mask=mask, sig=config.sig, trigger=config.trigger, rng=walk_rng)
            except FleetExhaustedError:
                break  # the next round's stock check ends the trial
            theta, fail_step = execute_deployment(
                truth, traj, specs[cls], seed_stream(seed, trial, _TAG_FAILURE, d, sector))
            if theta == 1:
                fleet.r_lost += 1
                if cls is AgentClass.DISPOSABLE:
                    fleet.disposable_remaining -= 1
                else:
                    fleet.high_fidelity_remaining -= 1
                belief = update_on_failure(belief, traj.cells, channels[cls])
            else:
                belief = update_on_success(belief, traj.cells, channels[cls])
            h = global_entropy(belief)
            records.append(DeploymentRecord(
                trial=trial, round_index=d, sector=sector, agent_class=cls,
                alpha_used=alpha_used, trajectory=traj, theta=theta,
                failure_step=fail_step, entropy_bits=h, cum_losses=fleet.r_lost))
        fleet.deployment_index = d
        fleet.entropy_history.append(h)
        loss_series.append(fleet.r_lost)
        if d50 is None and h <= 0.5:
            d50 = d

    return TrialMetrics(
        trial=trial,
        records=records,
        entropy_series=fleet.entropy_history,
        loss_series=loss_series,
        base_track=base_track,
        deployments_to_half=d50,
        rounds_executed=fleet.deployment_index,
        initial_stock=fleet.r_total,
        surviving_stock=fleet.disposable_remaining + fleet.high_fidelity_remaining,
    )
