"""Brute-force reference implementations for correctness checks.

These recompute the belief updates and the trajectory search by exhaustive
enumeration. They share no logic with the code they check: exhaustive_plan
scores each path with the per-path sum that score_path also uses, and the
batched beam search it checks never calls that sum.
joint_posterior conditions the joint hazard distribution of a whole grid
on a sequence of deployments; the factored belief keeps only marginals
after each one, so the two part after the first loss (see its docstring).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .belief import BeliefMap, GridDims, cell_failure_prob
from .errors import ParameterError
from .info_measures import BinaryChannel, MiForm
from .planner import Trajectory, _path_value, neighbors, per_cell_gain

__all__ = [
    "posterior_by_enumeration",
    "outcome_probability",
    "martingale_gap",
    "joint_posterior",
    "exhaustive_plan",
]


def _enumerate(priors: Sequence[float], channel: BinaryChannel, theta: int) -> tuple[float, np.ndarray]:
    """P(theta) and each cell's P(X_i = 1, theta) for one deployment over
    independent cells, summed over every hazard configuration of the cells."""
    priors = list(priors)
    evidence = 0.0
    mass = np.zeros(len(priors))
    for config in itertools.product((0, 1), repeat=len(priors)):
        weight = 1.0
        survive = 1.0
        for p, x in zip(priors, config):
            weight *= p if x else (1.0 - p)
            survive *= (1.0 - channel.tpr) if x else (1.0 - channel.fpr)
        joint = weight * (survive if theta == 0 else 1.0 - survive)
        evidence += joint
        for i, x in enumerate(config):
            if x:
                mass[i] += joint
    return evidence, mass


def outcome_probability(priors: Sequence[float], channel: BinaryChannel, theta: int) -> float:
    """P(theta) for one deployment over independent cells, by enumeration."""
    return _enumerate(priors, channel, theta)[0]


def posterior_by_enumeration(priors: Sequence[float], channel: BinaryChannel,
                             theta: int) -> np.ndarray:
    """Exact posterior marginals P(X_i = 1 | theta) over the visited cells.

    Enumerates every hazard configuration of the distinct visited cells and
    weighs it by the probability of the observed outcome.
    """
    evidence, mass = _enumerate(priors, channel, theta)
    if evidence <= 0.0:
        raise ZeroDivisionError("observation impossible under this belief")
    return mass / evidence


def martingale_gap(priors: Sequence[float], channel: BinaryChannel) -> float:
    """max_i |E_theta[posterior_i] - prior_i| over both outcomes."""
    p0 = outcome_probability(priors, channel, 0)
    p1 = 1.0 - p0
    post = np.zeros(len(priors))
    if p0 > 0.0:
        post += p0 * posterior_by_enumeration(priors, channel, 0)
    if p1 > 0.0:
        post += p1 * posterior_by_enumeration(priors, channel, 1)
    return float(np.max(np.abs(post - np.asarray(priors, dtype=float))))


MAX_JOINT_CELLS = 16


def joint_posterior(dims: GridDims, history: Sequence[tuple[Sequence[int], int]],
                    channel: BinaryChannel, prior=0.5) -> np.ndarray:
    """Exact P(X_i = 1 | every outcome so far) for each cell, by enumeration.

    `history` is a sequence of (path cells, theta) deployments, all seen
    through `channel`; `prior` gives each cell an independent hazard
    probability (a scalar, or one per cell). Every one of the 2^n hazard
    states of the grid (n <= 16) carries its log weight: the log prior
    plus, per deployment, the log probability of its outcome in that
    state, where a robot returns with probability prod (1 - tpr) over the
    path's hazardous distinct cells times prod (1 - fpr) over its safe
    ones. Unlike the factored belief, this keeps the coupling a loss puts
    between the cells of its path. Two cells at prior 0.5, channel
    (0.7, 0.1): after path (0, 1) is lost and path (0,) returns, cell 1
    reads 0.704545 here and 0.640625 in the factored belief.
    """
    n = dims.n_cells
    if n > MAX_JOINT_CELLS:
        raise ParameterError(f"joint enumeration needs at most {MAX_JOINT_CELLS} cells, got {n}")
    states = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1  # (2^n, n)
    p = np.broadcast_to(np.asarray(prior, dtype=float), (n,))
    with np.errstate(divide="ignore"):  # a prior of 0 or 1 rules states out: log 0 = -inf
        logw = np.where(states, np.log(p), np.log1p(-p)).sum(axis=1)
        for path, theta in history:
            cells = sorted(set(int(c) for c in path))
            if not cells or cells[0] < 0 or cells[-1] >= n:
                raise ParameterError(f"path {tuple(path)} is empty or leaves the grid")
            survive = np.where(states[:, cells], 1.0 - channel.tpr, 1.0 - channel.fpr).prod(axis=1)
            logw = logw + np.log(survive if theta == 0 else 1.0 - survive)
    if not np.isfinite(logw).any():
        raise ZeroDivisionError("history impossible under this prior and channel")
    w = np.exp(logw - logw.max())
    return (w @ states) / w.sum()


def exhaustive_plan(belief: BeliefMap, start: int, horizon: int, channel: BinaryChannel,
                    alpha: float, form: MiForm = MiForm.POSTERIOR,
                    mask: Optional[np.ndarray] = None) -> Trajectory:
    """Best trajectory by enumerating every 9-connected move sequence.

    Ties resolve to the lexicographically smallest cell sequence. Feasible
    only for tiny grids and horizons.
    """
    dims = belief.dims
    gain = per_cell_gain(belief, channel, alpha, form)
    keep = 1.0 - cell_failure_prob(belief.probs, channel)
    best: tuple = None

    def recurse(prefix: tuple):
        nonlocal best
        if len(prefix) == horizon:
            s = _path_value(prefix, gain, keep)
            key = (-s, prefix)
            if best is None or key < best:
                best = key
            return
        cur = prefix[-1] if prefix else start
        for c in neighbors(cur, dims, mask):
            recurse(prefix + (c,))

    recurse(())
    return Trajectory(start=start, cells=best[1])
