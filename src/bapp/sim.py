"""World generation, deployment execution, and the closed mission loop.

A trial runs rounds of deployments: relocate the base (when enabled),
partition the grid into one sector per robot, let the strategy pick an
agent class, behavior alpha, and path per sector against the round-start
belief, execute each path against the hidden ground truth, then fold the
round's binary outcomes into the belief in one pass at the round's end,
which also gives each deployment's entropy. All randomness flows through seed
streams keyed by (master seed, trial, purpose, round, sector) so that
different strategies face identical worlds and identical per-step failure
draws. The world is drawn from seed_stream; the failure and walk streams
are drawn by draws.py for a block of rounds at a time, the same numbers
seed_stream's generators would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .belief import GridDims, GroundTruthMap, _fold_round, global_entropy, init_uniform
from . import draws
from .coordination import RelocationPolicy, sector_masks, select_base_site
from .errors import ParameterError, ScenarioError
from .info_measures import BinaryChannel
from .planner import PlanConfig, Trajectory
from .strategies import AgentClass, FleetState, SigPolicy, StrategyKind, TriggerPolicy, plan_round

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

# streams per draw block: a block holds as many whole rounds' failure and
# walk streams as fit, and at least one round's
_BLOCK_STREAMS = 512


def seed_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (master seed, key...) tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


@dataclass(frozen=True)
class AgentSpec:
    """Malfunction rate and stock of the agent class named by its MissionConfig slot.

    A stock of None is the class's default, which MissionConfig fills in
    when it is built."""

    malfunction_rate: float
    stock: Optional[int]

    def __post_init__(self):
        if not (0.0 <= self.malfunction_rate < 1.0):
            raise ParameterError("malfunction rate must be in [0, 1)")
        if self.stock is not None and self.stock < 0:
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
    disposable: AgentSpec = AgentSpec(0.10, None)
    high_fidelity: AgentSpec = AgentSpec(0.01, None)
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
        # a default stock is fixed here: replace() keeps the filled-in count
        for slot, stock in (("disposable", self.deployment_budget * self.team_size),
                            ("high_fidelity", 2 * self.team_size)):
            if getattr(self, slot).stock is None:
                object.__setattr__(self, slot, replace(getattr(self, slot), stock=stock))
        if sum(agent.stock for agent in self.agents.values()) < 1:
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

    @property
    def agents(self) -> dict:
        """Each agent class's AgentSpec."""
        return {AgentClass.DISPOSABLE: self.disposable, AgentClass.HIGH_FIDELITY: self.high_fidelity}

    def channels(self) -> dict:
        return {cls: BinaryChannel(self.lethality, agent.malfunction_rate)
                for cls, agent in self.agents.items()}


class DeploymentRecord(NamedTuple):
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
                       uniforms: Iterable[float]) -> tuple[int, Optional[int]]:
    """Walk the path drawing one failure coin per step.

    In a hazardous cell the robot fails with the cell's lethality, in a safe
    cell with the agent's malfunction rate. Returns (theta, failure step);
    theta = 1 means the robot never came back. `uniforms` iterates the
    deployment's failure stream, at least one uniform per step of the path:
    the robot fails at the first step whose uniform falls below its cell's
    failure probability, and no uniform after that step is read. Running
    out of uniforms before the path's end is a ParameterError.
    """
    hazards, lethality, rate = truth.hazards, truth.lethality, agent.malfunction_rate
    step = -1
    for step, (cell, u) in enumerate(zip(path.cells, uniforms)):
        if u < (lethality[cell] if hazards[cell] else rate):
            return 1, step
    if step + 1 < len(path.cells):
        raise ParameterError(f"the failure stream ran out after {step + 1} of {len(path.cells)} steps")
    return 0, None


def _round_draws(config: MissionConfig, trial: int):
    """Each round's (failures, walks), from round 1 on.

    failures[sector] lists the first `horizon` uniforms of
    seed_stream(seed, trial, _TAG_FAILURE, round, sector).random(); for the
    random strategy walks[sector] lists the first 2 * horizon words of the
    walk stream's full-range uint32 integers, otherwise walks is None. The
    draws of a block of rounds, _BLOCK_STREAMS streams or one round, come
    from one draws.outputs call made when its first round is asked for, so
    a trial holds one block at a time.
    """
    n, horizon = config.team_size, config.horizon
    tags = [_TAG_FAILURE, _TAG_WALK] if config.strategy is StrategyKind.RANDOM else [_TAG_FAILURE]
    per_block = max(1, _BLOCK_STREAMS // (n * len(tags)))
    prefix = draws.key_words(config.master_seed, trial)
    last = config.deployment_budget
    for first in range(1, last + 1, per_block):
        rounds = np.arange(first, min(first + per_block, last + 1))
        # one key per (tag, round, sector): the prefix's words, then one word
        # each, as a round and a sector stay below 2**32
        keys = np.empty((len(tags), len(rounds), n, len(prefix) + 3), dtype=np.uint32)
        keys[..., :-3] = prefix
        keys[..., -3] = np.array(tags)[:, None, None]
        keys[..., -2] = rounds[:, None]
        keys[..., -1] = np.arange(n)
        out = draws.outputs(keys.reshape(-1, keys.shape[-1]), horizon).reshape(len(tags), len(rounds), n, -1)
        failures = draws.uniforms(out[0]).tolist()
        walks = draws.words(out[1]).tolist() if len(tags) == 2 else [None] * len(rounds)
        yield from zip(failures, walks)


def _walk_words(block_words: list, seed: int, trial: int, d: int, sector: int) -> Iterator[int]:
    """The words of seed_stream(seed, trial, _TAG_WALK, d, sector): the
    block's, then, for a walk that rejects past them, the stream's own."""

    def past_block():
        rng = seed_stream(seed, trial, _TAG_WALK, d, sector)
        rng.integers(0, 0xFFFFFFFF, size=len(block_words), dtype=np.uint32, endpoint=True)
        while True:
            yield int(rng.integers(0, 0xFFFFFFFF, dtype=np.uint32, endpoint=True))

    return itertools.chain(block_words, past_block())


def run_trial(config: MissionConfig, trial: int) -> TrialMetrics:
    """One closed-loop mission: rounds of plan / execute / update until the
    round budget is spent or the fleet is gone.

    A round's deployments are planned against the round-start belief and
    executed in sector order; their outcomes are then folded into the next
    belief in one pass, whose per-deployment entropies complete the round's
    DeploymentRecords (each one the global entropy after that deployment's
    update, as if the updates were applied one by one)."""
    dims = config.dims
    seed = config.master_seed
    truth = generate_world(dims, config.hazard_density, config.lethality,
                           seed_stream(seed, trial, _TAG_WORLD))
    belief = init_uniform(dims)
    base = config.start_cell
    n = config.team_size
    agents = config.agents
    fleet = FleetState(stock={cls: agent.stock for cls, agent in agents.items()},
                       entropy_history=[global_entropy(belief)])
    channels = config.channels()

    records = []
    loss_series = [0]
    base_track = []
    round_draws = _round_draws(config, trial)
    masks = sector_masks(base, dims, n)  # built again only when the base moves

    for d in range(1, config.deployment_budget + 1):
        if not fleet.in_stock:
            break
        if config.relocate and d > 1 and (d - 1) % config.relocation.cadence == 0:
            site = select_base_site(belief, base, config.relocation, n)
            if site != base:
                base, masks = site, sector_masks(site, dims, n)
        base_track.append(base)
        failures, walks = next(round_draws)
        words = None if walks is None else [_walk_words(w, seed, trial, d, sector)
                                            for sector, w in enumerate(walks)]
        # plan_round holds the round-start belief: sectors cannot see each
        # other's outcomes, which are folded into the next belief at round end
        observed, done = [], []
        for sector, (cls, traj, alpha_used) in enumerate(plan_round(
                config.strategy, fleet, belief, base, config.plan, channels,
                masks, sig=config.sig, trigger=config.trigger, words=words)):
            theta, fail_step = execute_deployment(truth, traj, agents[cls], failures[sector])
            fleet.r_lost += theta
            fleet.stock[cls] -= theta
            # a beam's or a walk's cells are in the grid already
            observed.append((np.array(sorted(set(traj.cells)), dtype=np.intp), theta, channels[cls]))
            done.append(((trial, d, sector, cls, alpha_used, traj, theta, fail_step), fleet.r_lost))
        belief, hs = _fold_round(belief, observed)
        records.extend(DeploymentRecord(*head, h, lost) for (head, lost), h in zip(done, hs))
        fleet.entropy_history.append(hs[-1])
        loss_series.append(fleet.r_lost)

    return TrialMetrics(
        trial=trial,
        records=records,
        entropy_series=fleet.entropy_history,
        loss_series=loss_series,
        base_track=base_track,
        # the first round d >= 1 that leaves at most half a bit
        deployments_to_half=next((d for d, h in enumerate(fleet.entropy_history) if d and h <= 0.5), None),
        rounds_executed=len(base_track),
        initial_stock=fleet.r_total,
        surviving_stock=fleet.in_stock,
    )
