"""Grid hazard belief map and its updates from path outcomes.

Cells are indexed row-major: cell = row * cols + col. Beliefs are per-cell
hazard probabilities, mutually independent by construction, in read-only
snapshots. Each update is the exact per-deployment marginal update,
re-factorised after each deployment: a loss couples the cells of its path,
and the belief keeps only their marginals, so it is not exact Bayes across
deployments. A mission round's updates share one working copy of the
round-start probabilities and are folded into one new snapshot at its end,
with every deployment's global entropy from one pass (_fold_round); the
public updates are the one-deployment fold. The only evidence source is
the binary outcome of a whole deployment: theta = 0 (robot returned) or
theta = 1 (robot lost somewhere along its path).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistentObservationError, ParameterError
from .info_measures import BinaryChannel, _binary_h

__all__ = [
    "GridDims",
    "BeliefMap",
    "GroundTruthMap",
    "init_uniform",
    "cell_failure_prob",
    "update_on_success",
    "update_on_failure",
    "global_entropy",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GridDims:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"grid must have positive area, got {self.rows}x{self.cols}")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def contains(self, cell: int) -> bool:
        return 0 <= cell < self.n_cells

    def to_rc(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.cols)

    def to_cell(self, row: int, col: int) -> int:
        return row * self.cols + col


@dataclass(frozen=True, eq=False)
class BeliefMap:
    """Immutable per-cell hazard probabilities over a grid."""

    dims: GridDims
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (self.dims.n_cells,):
            raise ParameterError(f"belief length {arr.shape} does not match grid {self.dims}")
        if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails it too
            raise ParameterError("belief probabilities must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @cached_property
    def _entropy_bits(self) -> np.ndarray:
        """Read-only binary entropy of each cell in bits, computed on first use."""
        h = _binary_h(self.probs) / _LN2
        h.flags.writeable = False
        return h


@dataclass(frozen=True, eq=False)
class GroundTruthMap:
    """Latent hazard indicators and per-cell lethality, simulator-only."""

    dims: GridDims
    hazards: np.ndarray    # 0/1 per cell
    lethality: np.ndarray  # failure probability on entering, where hazards == 1

    def __post_init__(self):
        hz = np.asarray(self.hazards, dtype=np.int8)
        lt = np.asarray(self.lethality, dtype=float)
        if hz.shape != (self.dims.n_cells,) or lt.shape != (self.dims.n_cells,):
            raise ParameterError("ground truth arrays must match grid size")
        if np.any((hz != 0) & (hz != 1)):
            raise ParameterError("hazard indicators must be 0/1")
        if np.any(lt < 0.0) or np.any(lt > 1.0):
            raise ParameterError("lethality must lie in [0, 1]")
        hz = hz.copy(); hz.flags.writeable = False
        lt = lt.copy(); lt.flags.writeable = False
        object.__setattr__(self, "hazards", hz)
        object.__setattr__(self, "lethality", lt)


def init_uniform(dims: GridDims) -> BeliefMap:
    """Fresh belief with every cell at 0.5 (no knowledge)."""
    return BeliefMap(dims, np.full(dims.n_cells, 0.5))


def cell_failure_prob(p, channel: BinaryChannel):
    """Belief-weighted probability the robot fails in a cell: p*tpr + (1-p)*fpr."""
    p = np.asarray(p, dtype=float)
    q = p * channel.tpr + (1.0 - p) * channel.fpr
    return float(q) if q.ndim == 0 else q


def _distinct_path_cells(dims: GridDims, path_cells: Iterable[int]) -> np.ndarray:
    """The path's distinct cells as an ascending index array, checked:
    integers, at least one, all in the grid."""
    try:
        cells = sorted(set(map(operator.index, path_cells)))
    except TypeError:
        raise ParameterError("path cells must be integers") from None
    if not cells:
        raise ParameterError("path has no cells")
    if cells[0] < 0 or cells[-1] >= dims.n_cells:
        raise ParameterError("path leaves the grid")
    return np.array(cells, dtype=np.intp)


def _success_values(ps: list[float], channel: BinaryChannel) -> list[float]:
    """update_on_success's posterior of each prior in `ps`, in Python floats."""
    miss, quiet = 1.0 - channel.tpr, 1.0 - channel.fpr
    values = []
    for p in ps:
        num = p * miss
        den = num + (1.0 - p) * quiet
        if den <= 0.0:
            raise InconsistentObservationError("a safe return was impossible under this belief")
        values.append(num / den)
    return values


def _failure_values(ps: list[float], channel: BinaryChannel) -> list[float]:
    """update_on_failure's posterior of the priors `ps` of one path's distinct
    cells in ascending cell order, in Python floats."""
    lam, gam = channel.tpr, channel.fpr
    survive = [1.0 - (p * lam + (1.0 - p) * gam) for p in ps]
    total_survive = math.prod(survive)  # left to right, as np.prod
    p_fail = 1.0 - total_survive
    if p_fail <= 0.0:
        raise InconsistentObservationError("a failure was impossible under this belief")
    # prod over j != i, computed stably even when some survive_j == 0
    n_zero = survive.count(0.0)
    if n_zero == 0:
        others = [total_survive / s for s in survive]
    else:
        lone = math.prod(s for s in survive if s != 0.0) if n_zero == 1 else 0.0
        others = [lone if s == 0.0 else 0.0 for s in survive]
    miss = 1.0 - lam
    # np.clip's bits, -0.0 and NaN included: v in [0, 1] as it is, else min(max(v, 0), 1)
    return [v if 0.0 <= (v := p * (1.0 - miss * o) / p_fail) <= 1.0 else min(max(v, 0.0), 1.0)
            for p, o in zip(ps, others)]


def _fold_round(belief: BeliefMap, observed: Sequence[tuple[np.ndarray, int, BinaryChannel]]
                ) -> tuple[BeliefMap, list[float]]:
    """A round's K >= 1 deployments folded into `belief` in one pass.

    observed[k] is deployment k's (distinct in-grid cells as an index array,
    theta, channel). One working copy of belief.probs takes each update in
    turn, a deployment reading and writing only its own cells, and becomes
    the new belief's probs. If `belief` holds its per-cell entropy, row k of
    a (K, n_cells) array is the per-cell entropy after deployment k: the
    parent's, with the bits of deployments 0..k written at their cells, from
    one entropy pass over all of the round's new values. Returns the new
    belief, carrying the last row, and the K global entropies, each that
    row's global_entropy bit for bit; a parent without per-cell entropy
    gives a child without it and no entropies. Raises at the first
    deployment whose outcome was impossible, as its own update would.
    """
    probs = belief.probs.copy()
    patches = []
    for cells, theta, channel in observed:
        values = (_failure_values if theta else _success_values)(probs[cells].tolist(), channel)
        probs[cells] = values
        patches.append((cells, values))
    probs.flags.writeable = False
    out = object.__new__(BeliefMap)
    object.__setattr__(out, "dims", belief.dims)
    object.__setattr__(out, "probs", probs)
    h = belief.__dict__.get("_entropy_bits")
    if h is None:
        return out, []
    bits = _binary_h(np.array([v for _, values in patches for v in values])) / _LN2
    rows = np.empty((len(patches), h.size))
    h = h.copy()
    at = 0
    for k, (cells, values) in enumerate(patches):
        h[cells] = bits[at:at + len(values)]
        at += len(values)
        rows[k] = h
    rows.flags.writeable = False
    out.__dict__["_entropy_bits"] = rows[-1]
    # a C-ordered row reduce is each row's own pairwise sum, as in global_entropy
    return out, (np.add.reduce(rows, axis=1) / h.size).tolist()


def update_on_success(belief: BeliefMap, path_cells: Sequence[int], channel: BinaryChannel) -> BeliefMap:
    """Posterior after a safe return (theta = 0).

    Each distinct visited cell i gets the exact per-cell Bayes factor
    p' = p(1-tpr) / (p(1-tpr) + (1-p)(1-fpr)); survival factorizes over
    independent cells so the other cells cancel out. Revisits within one
    deployment count once. Computed in Python floats over the path's
    cells, which gives the bits of the same numpy expressions.
    """
    return _fold_round(belief, [(_distinct_path_cells(belief.dims, path_cells), 0, channel)])[0]


def update_on_failure(belief: BeliefMap, path_cells: Sequence[int], channel: BinaryChannel) -> BeliefMap:
    """Posterior after a loss (theta = 1) with unknown failure location.

    Marginalizes exactly over where the failure happened: with per-cell
    failure odds q_j = p_j*tpr + (1-p_j)*fpr,

        P(theta=1)           = 1 - prod_j (1 - q_j)
        P(theta=1 | X_i = 1) = 1 - (1-tpr) * prod_{j != i} (1 - q_j)

    and p_i' = p_i * P(theta=1 | X_i=1) / P(theta=1) for each distinct
    visited cell. Raises if the observation has probability zero.
    Computed in Python floats over the path's cells; the products run left
    to right in ascending cell order, as np.prod does, so the bits are
    those of the same numpy expressions.
    """
    return _fold_round(belief, [(_distinct_path_cells(belief.dims, path_cells), 1, channel)])[0]


def global_entropy(belief: BeliefMap) -> float:
    """Mean per-cell binary entropy in bits; 1.0 for a uniform map."""
    h = belief._entropy_bits
    return float(np.add.reduce(h) / h.size)  # np.mean's sum and divide, without its overhead

