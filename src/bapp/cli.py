"""Command-line entry points: simulate, theory-sweep, oracle-check."""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace

import numpy as np

from .belief import GridDims
from .errors import ParameterError, ScenarioError
from .experiment import (run_experiment, theory_sweep, write_bases_csv,
                         write_deployments_csv, write_paths_csv,
                         write_summary_json, write_theory_csvs)
from .info_measures import BinaryChannel
from .oracles import exhaustive_plan, joint_posterior, martingale_gap, posterior_by_enumeration
from .planner import PlanConfig, plan_path
from .belief import update_on_failure, update_on_success, BeliefMap, init_uniform
from .scenario import builtin_scenarios, load_scenario
from .sim import MissionConfig, run_trial
from .strategies import AgentClass, StrategyKind


def _parse_grid(text: str) -> list[float]:
    """Grid flags accept 'start:stop:step' (inclusive) or 'v1,v2,...'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
        start, stop, step = (float(x) for x in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be > 0")
        n = int(round((stop - start) / step))
        values = [start + k * step for k in range(n + 1)]
        return [v for v in values if v <= stop + 1e-12]
    return [float(x) for x in text.split(",") if x.strip()]


def _cmd_simulate(args) -> int:
    config, trials = load_scenario(args.scenario)
    if args.strategy is not None:
        config = replace(config, strategy=StrategyKind(args.strategy))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.trials is not None:
        trials = args.trials
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {trials}")
    os.makedirs(args.out, exist_ok=True)
    result = run_experiment(config, trials, workers=args.workers)
    write_deployments_csv(os.path.join(args.out, "deployments.csv"), [result])
    write_summary_json(os.path.join(args.out, "summary.json"), [result])
    write_bases_csv(os.path.join(args.out, "bases.csv"), [result])
    if args.write_paths:
        write_paths_csv(os.path.join(args.out, "paths.csv"), [result])
    ent_mean, _ = result.entropy_stats()
    print(f"{config.strategy.value}: {trials} trials, {config.deployment_budget} rounds, "
          f"final mean entropy {ent_mean[-1]:.4f} bits -> {args.out}")
    return 0


def _cmd_theory_sweep(args) -> int:
    try:
        result = theory_sweep(args.alpha_grid, args.prior_grid, args.lambda_grid, args.gamma_grid)
    except ParameterError as exc:  # the grids come only from the flags
        raise ScenarioError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    write_theory_csvs(args.out, result)
    n_rows = result.delta_i.size
    print(f"theory sweep: {n_rows} rows -> {args.out}")
    return 0


def _cmd_oracle_check(args) -> int:
    """Spot-check the closed-form updates and the beam search against enumeration."""
    if args.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {args.seed}")
    if args.plans < 1:
        raise ScenarioError(f"plans must be >= 1, got {args.plans}")
    rng = np.random.default_rng(args.seed)
    dims = GridDims(3, 3)
    channels = [BinaryChannel(0.7, 0.1), BinaryChannel(0.9, 0.1)]
    ok = True

    worst_update = 0.0
    worst_martingale = 0.0
    paths = [(4,), (0, 1), (0, 4, 8), (1, 2, 5, 4)]
    for channel, cells in itertools.product(channels, paths):
        for _ in range(10):
            probs = np.full(9, 0.5)
            probs[list(cells)] = rng.choice([0.1, 0.5, 0.9], size=len(cells))
            belief = BeliefMap(dims, probs)
            priors = probs[list(cells)]
            succ = update_on_success(belief, cells, channel).probs[list(cells)]
            fail = update_on_failure(belief, cells, channel).probs[list(cells)]
            worst_update = max(
                worst_update,
                float(np.max(np.abs(succ - posterior_by_enumeration(priors, channel, 0)))),
                float(np.max(np.abs(fail - posterior_by_enumeration(priors, channel, 1)))),
            )
            worst_martingale = max(worst_martingale, martingale_gap(priors, channel))
    line = f"belief updates vs enumeration: max |diff| = {worst_update:.3e}"
    if worst_update < 1e-10:
        print(f"PASS {line}")
    else:
        print(f"FAIL {line}")
        ok = False
    line = f"martingale property: max |gap| = {worst_martingale:.3e}"
    if worst_martingale < 1e-10:
        print(f"PASS {line}")
    else:
        print(f"FAIL {line}")
        ok = False

    mismatches = 0
    for k in range(args.plans):
        belief = BeliefMap(dims, rng.uniform(0.02, 0.98, size=9))
        got = plan_path(belief, 4, PlanConfig(horizon=3, beam_width=None), channels[0])
        want = exhaustive_plan(belief, 4, 3, channels[0], 1.0)
        if got != want:
            mismatches += 1
    line = f"unbounded beam vs exhaustive search: {mismatches}/{args.plans} mismatches"
    if mismatches == 0:
        print(f"PASS {line}")
    else:
        print(f"FAIL {line}")
        ok = False

    # the belief is exact per deployment, not across them: report how far it
    # drifts from the joint posterior over a tiny mission (not a pass/fail)
    mission = MissionConfig(dims=dims, team_size=1, deployment_budget=12,
                            strategy=StrategyKind.STD_ITP, master_seed=args.seed,
                            plan=PlanConfig(horizon=4))
    channel = mission.channels()[AgentClass.DISPOSABLE]
    belief = init_uniform(dims)
    history = []
    gap = 0.0
    for rec in run_trial(mission, 0).records:
        update = update_on_failure if rec.theta else update_on_success
        belief = update(belief, rec.trajectory.cells, channel)
        history.append((rec.trajectory.cells, rec.theta))
        gap = max(gap, float(np.max(np.abs(belief.probs - joint_posterior(dims, history, channel)))))
    print(f"INFO factored belief vs joint posterior over a {len(history)}-deployment "
          f"3x3 mission: max |diff| = {gap:.3e}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bapp",
        description="Risk-sensitive informative path planning simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo mission experiment")
    sim.add_argument("--scenario", required=True,
                     help=f"scenario file or one of: {', '.join(builtin_scenarios())}")
    sim.add_argument("--strategy", choices=[s.value for s in StrategyKind], default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--write-paths", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("theory-sweep", help="tabulate the behavioral information gain")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--alpha-grid", dest="alpha_grid", type=_parse_grid,
                       default=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
    sweep.add_argument("--prior-grid", dest="prior_grid", type=_parse_grid,
                       default=_parse_grid("0.05:0.95:0.05"))
    sweep.add_argument("--lambda-grid", dest="lambda_grid", type=_parse_grid,
                       default=_parse_grid("0.70:0.99:0.01"))
    sweep.add_argument("--gamma-grid", dest="gamma_grid", type=_parse_grid,
                       default=_parse_grid("0.01:0.30:0.01"))
    sweep.set_defaults(func=_cmd_theory_sweep)

    oracle = sub.add_parser("oracle-check", help="run brute-force consistency checks")
    oracle.add_argument("--seed", type=int, default=7)
    oracle.add_argument("--plans", type=int, default=25)
    oracle.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
