"""Fixed-horizon trajectory search over a 9-connected grid.

Motion primitives are the 8 surrounding cells plus stay-in-place. Candidate
paths are scored by survival-discounted behavioral mutual information and
searched with a width-limited beam held in numpy arrays, which plans any
number of (mask, alpha) groups in one pass: a bapp-sig alpha sweep, or
every sector of a team round. Beam width None means exhaustive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .belief import BeliefMap, GridDims, cell_failure_prob
from .errors import ParameterError
from .info_measures import BinaryChannel, MiForm, mi_behavioral

__all__ = [
    "Trajectory",
    "PlanConfig",
    "neighbors",
    "score_path",
    "plan_path",
    "plan_paths",
    "random_walk",
    "per_cell_gain",
]

_NEIGHBOR_CACHE: dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], np.ndarray]] = {}


def _neighbor_tables(dims: GridDims) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """All 9-connected successors per cell (self included), ascending order.

    One cache entry holds them twice: as tuples, and as a read-only
    (n_cells, 9) array whose rows are padded with -1 for the missing moves.
    """
    key = (dims.rows, dims.cols)
    entry = _NEIGHBOR_CACHE.get(key)
    if entry is None:
        rows, cols = key
        out = []
        for r in range(rows):
            for c in range(cols):
                cells = []
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < rows and 0 <= cc < cols:
                            cells.append(rr * cols + cc)
                out.append(tuple(sorted(cells)))
        table = tuple(out)
        padded = np.full((len(table), 9), -1, dtype=np.intp)
        for cell, row in enumerate(table):
            padded[cell, :len(row)] = row
        padded.setflags(write=False)
        entry = (table, padded)
        _NEIGHBOR_CACHE[key] = entry
    return entry


@dataclass(frozen=True)
class Trajectory:
    """Ordered cells visited after leaving `start`; length is the horizon."""

    start: int
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))

    def validate(self, dims: GridDims, mask: Optional[frozenset] = None) -> None:
        if not dims.contains(self.start):
            raise ParameterError(f"start {self.start} outside grid")
        prev = self.start
        table = _neighbor_tables(dims)[0]
        for c in self.cells:
            if not dims.contains(c):
                raise ParameterError(f"cell {c} outside grid")
            if c not in table[prev]:
                raise ParameterError(f"move {prev} -> {c} is not 9-connected")
            if mask is not None and c != self.start and c not in mask:
                raise ParameterError(f"cell {c} outside the allowed mask")
            prev = c


@dataclass(frozen=True)
class PlanConfig:
    horizon: int = 15
    beam_width: Optional[int] = 64  # None = exhaustive
    alpha: float = 1.0
    mi_form: MiForm = MiForm.POSTERIOR
    mask: Optional[frozenset] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.beam_width is not None and self.beam_width < 1:
            raise ParameterError(f"beam width must be >= 1, got {self.beam_width}")
        if self.mask is not None:
            object.__setattr__(self, "mask", frozenset(int(c) for c in self.mask))


def neighbors(cell: int, dims: GridDims, mask: Optional[frozenset] = None) -> tuple[int, ...]:
    """9-connected successors of a cell in ascending (row-major) order.

    Staying put is always allowed, so the cell itself is returned even when
    the mask excludes every adjacent cell.
    """
    if not dims.contains(cell):
        raise ParameterError(f"cell {cell} outside grid")
    cand = _neighbor_tables(dims)[0][cell]
    if mask is None:
        return cand
    return tuple(c for c in cand if c == cell or c in mask)


def per_cell_gain(belief: BeliefMap, channel: BinaryChannel, alpha,
                  form: MiForm = MiForm.POSTERIOR) -> np.ndarray:
    """First-visit information value of each cell at the given behavior alpha.

    A column of alphas gives one row of cells per alpha.

    Cells already resolved to 0 or 1 carry no remaining uncertainty and are
    forced to zero gain regardless of the MI form.
    """
    p = belief.probs
    gain = np.asarray(mi_behavioral(p, channel, alpha, form), dtype=float)
    gain = np.where((p <= 0.0) | (p >= 1.0), 0.0, gain)
    return gain


def score_path(belief: BeliefMap, path: Trajectory, channel: BinaryChannel,
               alpha: float, form: MiForm = MiForm.POSTERIOR) -> float:
    """Survival-discounted sum of first-visit per-cell information.

    The k-th visited cell contributes s_{k-1} * gain(cell), with s_0 = 1 and
    s_k = s_{k-1} * (1 - q(cell)). Revisited cells add no information but
    still discount survival, matching the per-step failure exposure.
    """
    gain = per_cell_gain(belief, channel, alpha, form)
    keep = 1.0 - cell_failure_prob(belief.probs, channel)
    total = 0.0
    surv = 1.0
    seen = set()
    for c in path.cells:
        if c not in seen:
            total += surv * gain[c]
            seen.add(c)
        surv *= keep[c]
    return float(total)


def _mask_cells(start: int, mask: frozenset, n: int) -> np.ndarray:
    """The cells of a plan mask, after checking it holds `start` and lies in [0, n)."""
    if start not in mask:
        raise ParameterError(f"start {start} outside the plan mask")
    idx = np.fromiter(mask, dtype=np.intp, count=len(mask))
    if idx.min() < 0 or idx.max() >= n:
        raise ParameterError(f"plan mask cells must lie in [0, {n})")
    return idx


# Sectors planned one at a time (bapp-sig teams, and the misses of a batched
# round) plan against their round's one belief, so the gain and survival
# arrays are memoised. BeliefMap hashes by identity and its probs are
# read-only, and the cache holds each key's belief alive, so a hit is always
# for the very same probabilities.
@functools.lru_cache(maxsize=16)
def _round_gains(belief: BeliefMap, channel: BinaryChannel, alphas: tuple, form: MiForm) -> np.ndarray:
    """per_cell_gain at each of `alphas`, one row each, from one mi_behavioral call."""
    gains = per_cell_gain(belief, channel, np.array(alphas)[:, None], form)
    gains.setflags(write=False)
    return gains


@functools.lru_cache(maxsize=16)
def _round_keep(belief: BeliefMap, channel: BinaryChannel) -> np.ndarray:
    keep = 1.0 - cell_failure_prob(belief.probs, channel)
    keep.setflags(write=False)
    return keep


def plan_paths(belief: BeliefMap, start: int, config: PlanConfig, channel: BinaryChannel,
               groups: Sequence[tuple[Optional[frozenset], float]]) -> list[tuple[float, tuple[int, ...]]]:
    """Beam search from `start` for every (mask, alpha) group, in one batched pass.

    `config.mask` and `config.alpha` are not read: group g keeps to the
    cells of groups[g][0] (None: the whole grid; staying put is always
    allowed) and scores at alpha groups[g][1]. Each group has its own beam;
    survival and the successor table are shared, and so is the gain row of
    groups with the same alpha. At each depth every retained partial path is
    expanded through all its allowed 9-connected successors, the partial
    paths of one group are ranked by score with ties broken toward the
    lexicographically smallest cell sequence, and the top beam_width
    survive. Returns one (score, cells) per group, in the order given: the
    path the group gets when planned alone, with a score equal to
    score_path of those cells at its alpha, to the bit. Deterministic for
    fixed inputs.
    """
    dims = belief.dims
    n = dims.n_cells
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if len(groups) == 0:
        raise ParameterError("no group to plan")
    succ = _neighbor_tables(dims)[1]
    allowed = None
    if any(mask is not None for mask, _ in groups):
        allowed = np.ones((len(groups), n), dtype=bool)
        for row, (mask, _) in zip(allowed, groups):
            if mask is not None:
                row[:] = False
                row[_mask_cells(start, mask, n)] = True
    alphas = tuple(dict.fromkeys(a for _, a in groups))
    gain = _round_gains(belief, channel, alphas, config.mi_form)[[alphas.index(a) for _, a in groups]]
    keep = _round_keep(belief, channel)
    width = config.beam_width

    # One row per partial path: rows are grouped, groups ascending, and kept
    # in lexicographic cell order within a group. The group key is the
    # smallest unsigned type that holds it, which lets lexsort radix-sort
    # it. The start cell is not marked visited: staying put is a first visit.
    group = np.arange(len(groups), dtype=np.min_scalar_type(len(groups) - 1))
    score = np.zeros(len(groups))
    surv = np.ones(len(groups))
    cells = np.empty((len(groups), 0), dtype=np.intp)
    visited = np.zeros((len(groups), n), dtype=bool)
    last = np.full(len(groups), start, dtype=np.intp)
    for _ in range(config.horizon):
        cand = succ[last]
        move = cand >= 0
        if allowed is not None:
            # staying put is exempt from the mask
            move &= allowed[group[:, None], cand] | (cand == last[:, None])
        # parent-major, successors ascending: children stay in lexicographic order
        p, j = np.nonzero(move)
        c = cand[p, j]
        group, prev_score, prev_surv = group[p], score[p], surv[p]
        score = np.where(visited[p, c], prev_score, prev_score + prev_surv * gain[group, c])
        surv = prev_surv * keep[c]
        if width is not None:
            # stable, so equal scores keep their lexicographic order; groups
            # hold the same positions in `order` as in the rows, so a position
            # minus its group's first row is the rank within the group
            order = np.lexsort((-score, group))
            rank = np.arange(len(group)) - np.searchsorted(group, group)
            kept = np.sort(order[rank < width])
            p, c, score, surv, group = p[kept], c[kept], score[kept], surv[kept], group[kept]
        cells = np.concatenate((cells[p], c[:, None]), axis=1)
        visited = visited[p]
        visited[np.arange(len(c)), c] = True
        last = c
    order = np.lexsort((-score, group))
    heads = order[np.flatnonzero(np.r_[True, group[1:] != group[:-1]])]
    return [(float(score[i]), tuple(cells[i].tolist())) for i in heads]


def plan_path(belief: BeliefMap, start: int, config: PlanConfig, channel: BinaryChannel) -> Trajectory:
    """Best fixed-horizon trajectory from `start` in config.mask at config.alpha (see plan_paths)."""
    [(_, cells)] = plan_paths(belief, start, config, channel, ((config.mask, config.alpha),))
    return Trajectory(start=start, cells=cells)


def random_walk(start: int, horizon: int, dims: GridDims, mask: Optional[frozenset],
                rng: np.random.Generator) -> Trajectory:
    """Uniform 9-connected walk of fixed length; reproducible per rng state."""
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if mask is not None:
        _mask_cells(start, mask, dims.n_cells)
    cells = []
    cur = start
    for _ in range(horizon):
        options = neighbors(cur, dims, mask)
        cur = options[int(rng.integers(len(options)))]
        cells.append(cur)
    return Trajectory(start=start, cells=tuple(cells))
