"""Command-line entry points: simulate, theory-sweep, oracle-check."""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .belief import GridDims
from .errors import ParameterError, ScenarioError
from .experiment import (MAX_SWEEP_ROWS, _THEORY_FILES, _check_sweep_grids, run_experiment,
                         theory_sweep, write_bases_csv, write_deployments_csv, write_paths_csv,
                         write_summary_json, write_theory_csvs)
from .info_measures import BinaryChannel
from .oracles import exhaustive_plan, joint_posterior, martingale_gap, posterior_by_enumeration
from .planner import PlanConfig, plan_path
from .belief import update_on_failure, update_on_success, BeliefMap, init_uniform
from .scenario import builtin_scenarios, load_scenario
from .sim import MissionConfig, run_trial
from .strategies import AgentClass, StrategyKind


def _parse_grid(text: str) -> list[float]:
    """A grid flag's points: 'start:stop:step' (inclusive) or 'v1,v2,...'.

    A range's point count is checked against MAX_SWEEP_ROWS before any
    point is made; a bad grid is a ScenarioError.
    """
    text = text.strip()
    is_range = ":" in text
    parts = text.split(":") if is_range else [x for x in text.split(",") if x.strip()]
    try:
        numbers = [float(x) for x in parts]
    except ValueError:
        raise ScenarioError(f"grid {text!r} is not start:stop:step or v1,v2,...") from None
    if not is_range:
        return numbers
    if len(numbers) != 3:
        raise ScenarioError(f"expected start:stop:step, got {text!r}")
    start, stop, step = numbers
    if not step > 0:
        raise ScenarioError(f"step must be > 0, got {text!r}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ScenarioError(f"grid {text!r} has no finite point count")
    n = int(round(span))
    if n + 1 > MAX_SWEEP_ROWS:
        raise ScenarioError(f"grid {text!r} has {n + 1:,} points, more than {MAX_SWEEP_ROWS:,}")
    values = [start + k * step for k in range(n + 1)]
    return [v for v in values if v <= stop + 1e-12]


def _make_out_dir(path: str, names) -> None:
    """Make the output directory and check the names of the files to be written in it.

    Any OSError (a file of the directory's name, say), or a directory where
    a file must go, is a ScenarioError before the work that fills the files.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {path!r}: {exc.strerror or exc}") from None
    for file in (os.path.join(path, name) for name in names):
        if os.path.isdir(file):
            raise ScenarioError(f"cannot write {file!r}: it is a directory")


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
    if args.workers < 1:
        raise ScenarioError(f"workers must be >= 1, got {args.workers}")
    writers = {"deployments.csv": write_deployments_csv, "summary.json": write_summary_json,
               "bases.csv": write_bases_csv}
    if args.write_paths:
        writers["paths.csv"] = write_paths_csv
    _make_out_dir(args.out, writers)
    result = run_experiment(config, trials, workers=args.workers)
    for name, write in writers.items():
        write(os.path.join(args.out, name), [result])
    ent_mean, _ = result.entropy_stats()
    print(f"{config.strategy.value}: {trials} trials, {config.deployment_budget} rounds, "
          f"final mean entropy {ent_mean[-1]:.4f} bits -> {args.out}")
    return 0


def _cmd_theory_sweep(args) -> int:
    grids = [_parse_grid(g) for g in (args.alpha_grid, args.prior_grid, args.lambda_grid, args.gamma_grid)]
    try:
        _check_sweep_grids(*grids)
    except ParameterError as exc:  # the grids come only from the flags
        raise ScenarioError(str(exc)) from exc
    _make_out_dir(args.out, _THEORY_FILES)
    result = theory_sweep(*grids)
    write_theory_csvs(args.out, result)
    n_rows = result.delta_i.size
    print(f"theory sweep: {n_rows} rows -> {args.out}")
    return 0


def _verdict(passed: bool, line: str) -> bool:
    """Print one PASS/FAIL line of oracle-check and return `passed`."""
    print(f"{'PASS' if passed else 'FAIL'} {line}")
    return passed


def _cmd_oracle_check(args) -> int:
    """Spot-check the closed-form updates and the beam search against enumeration."""
    if args.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {args.seed}")
    if args.plans < 1:
        raise ScenarioError(f"plans must be >= 1, got {args.plans}")
    rng = np.random.default_rng(args.seed)
    dims = GridDims(3, 3)
    channels = [BinaryChannel(0.7, 0.1), BinaryChannel(0.9, 0.1)]

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
    ok = _verdict(worst_update < 1e-10,
                  f"belief updates vs enumeration: max |diff| = {worst_update:.3e}")
    ok &= _verdict(worst_martingale < 1e-10,
                   f"martingale property: max |gap| = {worst_martingale:.3e}")

    mismatches = 0
    for k in range(args.plans):
        belief = BeliefMap(dims, rng.uniform(0.02, 0.98, size=9))
        got = plan_path(belief, 4, PlanConfig(horizon=3, beam_width=None), channels[0])
        want = exhaustive_plan(belief, 4, 3, channels[0], 1.0)
        if got != want:
            mismatches += 1
    ok &= _verdict(mismatches == 0,
                   f"unbounded beam vs exhaustive search: {mismatches}/{args.plans} mismatches")

    # the belief is exact per deployment, not across them: report how far it
    # drifts from the joint posterior over a tiny mission (not a pass/fail)
    mission = MissionConfig(dims=dims, deployment_budget=12, master_seed=args.seed,
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
    # grids are parsed by _parse_grid when the command runs, so a bad one is one error line
    sweep.add_argument("--alpha-grid", dest="alpha_grid", default="0.25,0.5,0.75,1.0,1.5,2.0,3.0")
    sweep.add_argument("--prior-grid", dest="prior_grid", default="0.05:0.95:0.05")
    sweep.add_argument("--lambda-grid", dest="lambda_grid", default="0.70:0.99:0.01")
    sweep.add_argument("--gamma-grid", dest="gamma_grid", default="0.01:0.30:0.01")
    sweep.set_defaults(func=_cmd_theory_sweep)

    oracle = sub.add_parser("oracle-check", help="run brute-force consistency checks")
    oracle.add_argument("--seed", type=int, default=7)
    oracle.add_argument("--plans", type=int, default=25)
    oracle.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:  # OSError: a result file could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
