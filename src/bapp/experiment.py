"""Monte Carlo harness, aggregate reports, and parameter sweeps.

Outputs are byte-reproducible: trials are pure functions of (config, trial
index), every float is written with 9 significant digits in a fixed column
order, and aggregation is independent of the worker count.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError
from .info_measures import _as_prob, _check_alpha, _delta_mi
from .sim import MissionConfig, TrialMetrics, run_trial

__all__ = [
    "ExperimentResult",
    "TheorySweepResult",
    "MAX_SWEEP_ROWS",
    "run_experiment",
    "theory_sweep",
    "write_deployments_csv",
    "write_summary_json",
    "write_theory_csvs",
    "write_bases_csv",
    "write_paths_csv",
    "fmt9",
]

DEPLOYMENT_COLUMNS = "trial,d,strategy,agent_class,alpha_used,theta,entropy_bits,cum_losses"
THEORY_COLUMNS = "alpha,p,lambda,gamma,delta_i,delta_h_obs"
_THEORY_FILES = ("theory_sweep.csv", "theory_sweep_avg.csv", "theory_contour.csv")

# bound on the rows of one theory sweep, the product of its four grid sizes:
# theory_sweep broadcasts the delta_mi kernel over all of them at once
MAX_SWEEP_ROWS = 1_000_000


def fmt9(x: float) -> str:
    """Fixed 9-significant-digit rendering used in every CSV."""
    return format(float(x), ".9g")


def _write_lines(path: str, lines: list) -> None:
    """Write `lines` to a text file, each ended by a newline."""
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@dataclass
class ExperimentResult:
    config: MissionConfig
    trials: list  # TrialMetrics, in trial order

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def padded_series(self, attr: str) -> np.ndarray:
        """Per-trial series padded to budget+1 by holding the last value."""
        length = self.config.deployment_budget + 1
        out = np.zeros((self.n_trials, length))
        for i, tm in enumerate(self.trials):
            series = list(getattr(tm, attr))
            if len(series) < length:
                series = series + [series[-1]] * (length - len(series))
            out[i] = series[:length]
        return out

    def entropy_stats(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.padded_series("entropy_series")
        return grid.mean(axis=0), grid.std(axis=0)

    def loss_stats(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.padded_series("loss_series")
        return grid.mean(axis=0), grid.std(axis=0)

    def deployments_to_half(self) -> list:
        return [tm.deployments_to_half for tm in self.trials]

    def capped_deployments_to_half(self) -> np.ndarray:
        """Unreached trials count as budget + 1, for ordering comparisons."""
        cap = self.config.deployment_budget + 1
        return np.array([cap if v is None else v for v in self.deployments_to_half()], dtype=float)


def run_experiment(config: MissionConfig, trials: int, workers: int = 1) -> ExperimentResult:
    """Run seeded trials (optionally across processes) in deterministic order.

    At most min(workers, trials, CPU count) processes are started, since
    the executor may start all of its workers at the first submit.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    workers = min(workers, trials, os.cpu_count() or 1)
    trial = functools.partial(run_trial, config)
    if workers == 1:
        metrics = list(map(trial, range(trials)))
    else:
        # imported here: it loads multiprocessing, which one-worker runs never start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(trial, range(trials)))
    return ExperimentResult(config=config, trials=metrics)


def _by_strategy(results: Sequence[ExperimentResult]) -> Iterator[tuple[str, ExperimentResult]]:
    """(strategy name, result) pairs. The name is all that tells one result's
    rows and summary entry from another's, so two results may not share it."""
    names = [res.config.strategy.value for res in results]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ParameterError(f"more than one result for strategy {name!r}")
    return zip(names, results)


def _trials(results: Sequence[ExperimentResult]) -> Iterator[tuple[str, TrialMetrics]]:
    """(strategy name, trial) for every trial, in the order the CSVs list them."""
    return ((name, tm) for name, res in _by_strategy(results) for tm in res.trials)


def write_deployments_csv(path: str, results: Sequence[ExperimentResult]) -> None:
    _write_lines(path, [DEPLOYMENT_COLUMNS] + [",".join([
        str(rec.trial),
        str(rec.round_index),
        name,
        rec.agent_class.value,
        fmt9(rec.alpha_used),
        str(rec.theta),
        fmt9(rec.entropy_bits),
        str(rec.cum_losses),
    ]) for name, tm in _trials(results) for rec in tm.records])


def write_bases_csv(path: str, results: Sequence[ExperimentResult]) -> None:
    _write_lines(path, ["trial,d,strategy,base_cell"] + [
        f"{tm.trial},{d},{name},{cell}"
        for name, tm in _trials(results) for d, cell in enumerate(tm.base_track, start=1)])


def write_paths_csv(path: str, results: Sequence[ExperimentResult]) -> None:
    _write_lines(path, ["trial,d,strategy,sector,start,cells"] + [
        f"{rec.trial},{rec.round_index},{name},{rec.sector},{rec.trajectory.start},"
        f"{';'.join([str(c) for c in rec.trajectory.cells])}"
        for name, tm in _trials(results) for rec in tm.records])


def _round9(x: float) -> float:
    return float(fmt9(x))


def summary_dict(results: Sequence[ExperimentResult]) -> dict:
    out = {}
    for name, res in _by_strategy(results):
        ent_mean, ent_std = res.entropy_stats()
        loss_mean, loss_std = res.loss_stats()
        d50 = res.deployments_to_half()
        reached = [v for v in d50 if v is not None]
        out[name] = {
            "trials": res.n_trials,
            "rounds": res.config.deployment_budget,
            "team_size": res.config.team_size,
            "horizon": res.config.horizon,
            "entropy_mean": [_round9(v) for v in ent_mean],
            "entropy_std": [_round9(v) for v in ent_std],
            "losses_mean": [_round9(v) for v in loss_mean],
            "losses_std": [_round9(v) for v in loss_std],
            "deployments_to_half": {
                "per_trial": d50,
                "mean_reached": _round9(float(np.mean(reached))) if reached else None,
                "unreached": len(d50) - len(reached),
                "capped_mean": _round9(float(res.capped_deployments_to_half().mean())),
            },
        }
    return out


def write_summary_json(path: str, results: Sequence[ExperimentResult]) -> None:
    summary = summary_dict(results)  # before the file is opened: a refused input leaves none
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class TheorySweepResult:
    alpha_grid: np.ndarray
    prior_grid: np.ndarray
    lambda_grid: np.ndarray
    gamma_grid: np.ndarray
    delta_i: np.ndarray      # (alpha, p, lambda, gamma)
    delta_h_obs: np.ndarray  # same shape
    avg_delta_i: np.ndarray  # (alpha, p), mean over sensor grid
    avg_delta_h: np.ndarray
    zero_contour: list       # (alpha, p) points where avg_delta_i crosses 0


def _check_sweep_grids(alpha_grid, prior_grid, lambda_grid, gamma_grid) -> tuple[np.ndarray, ...]:
    """The four grids as float arrays; a ParameterError unless each is
    non-empty and in its domain and they make at most MAX_SWEEP_ROWS rows."""
    grids = [list(g) for g in (alpha_grid, prior_grid, lambda_grid, gamma_grid)]
    for name, g in zip(("alpha", "prior", "lambda", "gamma"), grids):
        if not g:
            raise ParameterError(f"{name} grid is empty")
    rows = math.prod(map(len, grids))
    if rows > MAX_SWEEP_ROWS:
        raise ParameterError(f"the sweep has {rows:,} rows, more than {MAX_SWEEP_ROWS:,}")
    a, p, lam, gam = (np.asarray(g, dtype=float) for g in grids)
    for g, name in ((p, "prior"), (lam, "tpr"), (gam, "fpr")):  # delta_mi's checks, in its order
        _as_prob(g, name)
    return _check_alpha(a), p, lam, gam


def _zero_contour(alpha: np.ndarray, prior: np.ndarray, avg: np.ndarray) -> list:
    """(alpha, p) points where a row of `avg` (alpha, prior) is zero, in (alpha, p) order.

    Segment j runs from prior point j to j + 1, and the last prior point is
    a segment of its own. One whose start is an exact zero gives that point;
    one whose sign changes strictly gives the linear interpolant of the zero.
    """
    nxt = np.concatenate([avg[:, 1:], avg[:, -1:]], axis=1)
    cross = ((avg < 0.0) & (0.0 < nxt)) | ((nxt < 0.0) & (0.0 < avg))
    i, j = np.nonzero((avg == 0.0) | cross)
    points = prior[j]
    k = cross[i, j]  # the other points are exact zeros at a segment's start
    ik, jk = i[k], j[k]
    y0, y1 = avg[ik, jk], nxt[ik, jk]
    points[k] = prior[jk] + y0 / (y0 - y1) * (prior[jk + 1] - prior[jk])
    return list(zip(alpha[i].tolist(), points.tolist()))


def theory_sweep(alpha_grid, prior_grid, lambda_grid, gamma_grid) -> TheorySweepResult:
    """Behavioral-vs-Shannon information gain across the parameter grids.

    Produces the per-configuration gain surface, the sensor-averaged
    surface, and the zero-gain contour of the averaged surface (linear
    interpolation between adjacent prior grid points with a sign change).
    """
    a, p, lam, gam = _check_sweep_grids(alpha_grid, prior_grid, lambda_grid, gamma_grid)
    terms = _delta_mi(
        p[None, :, None, None],
        lam[None, None, :, None],
        gam[None, None, None, :],
        a[:, None, None, None],
    )
    avg_i = terms.total.mean(axis=(2, 3))
    avg_h = terms.delta_h_obs.mean(axis=(2, 3))
    return TheorySweepResult(a, p, lam, gam, terms.total, terms.delta_h_obs, avg_i, avg_h,
                             _zero_contour(a, p, avg_i))


def _fmt9_rows(header: str, *columns) -> list:
    """CSV lines: the header, then row k holding each column's k-th entry in fmt9."""
    return [header] + [",".join(map(fmt9, row)) for row in zip(*map(np.ravel, columns))]


def write_theory_csvs(out_dir: str, result: TheorySweepResult) -> None:
    """theory_sweep.csv plus the averaged surface and zero contour files."""
    grids = (result.alpha_grid, result.prior_grid, result.lambda_grid, result.gamma_grid)
    tables = (
        _fmt9_rows(THEORY_COLUMNS, *np.meshgrid(*grids, indexing="ij"),
                   result.delta_i, result.delta_h_obs),
        _fmt9_rows("alpha,p,mean_delta_i,mean_delta_h_obs", *np.meshgrid(*grids[:2], indexing="ij"),
                   result.avg_delta_i, result.avg_delta_h),
        _fmt9_rows("alpha,p_zero", *zip(*result.zero_contour)),
    )
    for name, lines in zip(_THEORY_FILES, tables):
        _write_lines(os.path.join(out_dir, name), lines)
