"""Grid hazard belief map and its updates from path outcomes.

Cells are indexed row-major: cell = row * cols + col. Beliefs are per-cell
hazard probabilities, mutually independent by construction; updates return
new read-only snapshots. Each update is the exact per-deployment marginal
update, re-factorised after each deployment: a loss couples the cells of
its path, and the belief keeps only their marginals, so it is not exact
Bayes across deployments. The only evidence source is the binary outcome of
a whole deployment: theta = 0 (robot returned) or theta = 1 (robot lost
somewhere along its path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistentObservationError, ParameterError
from .info_measures import BinaryChannel, binary_entropy

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

    def with_probs(self, probs: np.ndarray) -> "BeliefMap":
        return BeliefMap(self.dims, probs)


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
    cells = np.asarray(sorted(set(int(c) for c in path_cells)), dtype=int)
    if cells.size == 0:
        raise ParameterError("path has no cells")
    if cells[0] < 0 or cells[-1] >= dims.n_cells:
        raise ParameterError("path leaves the grid")
    return cells


def update_on_success(belief: BeliefMap, path_cells: Sequence[int], channel: BinaryChannel) -> BeliefMap:
    """Posterior after a safe return (theta = 0).

    Each distinct visited cell i gets the exact per-cell Bayes factor
    p' = p(1-tpr) / (p(1-tpr) + (1-p)(1-fpr)); survival factorizes over
    independent cells so the other cells cancel out. Revisits within one
    deployment count once.
    """
    cells = _distinct_path_cells(belief.dims, path_cells)
    lam, gam = channel.tpr, channel.fpr
    probs = belief.probs.copy()
    p = probs[cells]
    num = p * (1.0 - lam)
    den = num + (1.0 - p) * (1.0 - gam)
    if np.any(den <= 0.0):
        raise InconsistentObservationError("a safe return was impossible under this belief")
    probs[cells] = num / den
    return belief.with_probs(probs)


def update_on_failure(belief: BeliefMap, path_cells: Sequence[int], channel: BinaryChannel) -> BeliefMap:
    """Posterior after a loss (theta = 1) with unknown failure location.

    Marginalizes exactly over where the failure happened: with per-cell
    failure odds q_j = p_j*tpr + (1-p_j)*fpr,

        P(theta=1)           = 1 - prod_j (1 - q_j)
        P(theta=1 | X_i = 1) = 1 - (1-tpr) * prod_{j != i} (1 - q_j)

    and p_i' = p_i * P(theta=1 | X_i=1) / P(theta=1) for each distinct
    visited cell. Raises if the observation has probability zero.
    """
    cells = _distinct_path_cells(belief.dims, path_cells)
    lam, gam = channel.tpr, channel.fpr
    probs = belief.probs.copy()
    p = probs[cells]
    survive = 1.0 - (p * lam + (1.0 - p) * gam)
    total_survive = float(np.prod(survive))
    p_fail = 1.0 - total_survive
    if p_fail <= 0.0:
        raise InconsistentObservationError("a failure was impossible under this belief")
    # prod over j != i, computed stably even when some survive_j == 0
    zero = survive == 0.0
    n_zero = int(zero.sum())
    if n_zero == 0:
        others = total_survive / survive
    else:
        nonzero_prod = float(np.prod(survive[~zero])) if np.any(~zero) else 1.0
        others = np.zeros_like(survive)
        if n_zero == 1:
            others[zero] = nonzero_prod
    cond_fail = 1.0 - (1.0 - lam) * others
    probs[cells] = np.clip(p * cond_fail / p_fail, 0.0, 1.0)
    return belief.with_probs(probs)


def global_entropy(belief: BeliefMap) -> float:
    """Mean per-cell binary entropy in bits; 1.0 for a uniform map."""
    return float(np.mean(binary_entropy(belief.probs, base=2.0)))

