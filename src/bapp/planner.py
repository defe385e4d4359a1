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

_NEIGHBOR_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _neighbor_table(dims: GridDims) -> np.ndarray:
    """All 9-connected successors per cell (self included), ascending order.

    A read-only (n_cells + 1, 9) array: rows are padded with the cell
    n_cells for the missing moves, and the extra row n_cells is all padding,
    so the padding cell only ever leads to itself.
    """
    key = (dims.rows, dims.cols)
    table = _NEIGHBOR_CACHE.get(key)
    if table is None:
        rows, cols = key
        n = rows * cols
        table = np.full((n + 1, 9), n, dtype=np.intp)
        for cell in range(n):
            r, c = divmod(cell, cols)
            row = [rr * cols + cc for rr in (r - 1, r, r + 1) for cc in (c - 1, c, c + 1)
                   if 0 <= rr < rows and 0 <= cc < cols]
            table[cell, :len(row)] = row
        table.setflags(write=False)
        _NEIGHBOR_CACHE[key] = table
    return table


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
        succ = _neighbor_table(dims)
        for c in self.cells:
            if not dims.contains(c):
                raise ParameterError(f"cell {c} outside grid")
            if c not in succ[prev]:
                raise ParameterError(f"move {prev} -> {c} is not 9-connected")
            if mask is not None and c != self.start and c not in mask:
                raise ParameterError(f"cell {c} outside the allowed mask")
            prev = c


@dataclass(frozen=True)
class PlanConfig:
    horizon: int = 15
    beam_width: Optional[int] = 64  # None = exhaustive
    mi_form: MiForm = MiForm.POSTERIOR

    def __post_init__(self):
        if self.horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.beam_width is not None and self.beam_width < 1:
            raise ParameterError(f"beam width must be >= 1, got {self.beam_width}")


def neighbors(cell: int, dims: GridDims, mask: Optional[frozenset] = None) -> tuple[int, ...]:
    """9-connected successors of a cell in ascending (row-major) order.

    Staying put is always allowed, so the cell itself is returned even when
    the mask excludes every adjacent cell.
    """
    if not dims.contains(cell):
        raise ParameterError(f"cell {cell} outside grid")
    n = dims.n_cells
    return tuple(c for c in _neighbor_table(dims)[cell].tolist()
                 if c < n and (mask is None or c == cell or c in mask))


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


def plan_paths(belief: BeliefMap, start: int, config: PlanConfig, channel: BinaryChannel,
               groups: Sequence[tuple[Optional[frozenset], float]]) -> list[tuple[float, tuple[int, ...]]]:
    """Beam search from `start` for every (mask, alpha) group, in one batched pass.

    Group g keeps to the cells of groups[g][0] (None: the whole grid) and
    scores at alpha groups[g][1]. Each group has its own beam; survival and
    the successor table are shared, and so is the gain row of groups with
    the same alpha.
    At each depth every retained partial path is expanded through its
    allowed 9-connected successors (a mask holds the start, so staying put
    is always allowed), and each group keeps its top beam_width children by
    score, ties going to the lexicographically smallest cell sequence.
    Returns one (score, cells) per group, in the order given: the path the
    group gets when planned alone, with a score equal to score_path of those
    cells at its alpha, to the bit. Deterministic for fixed inputs.
    """
    dims = belief.dims
    n = dims.n_cells
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if len(groups) == 0:
        raise ParameterError("no group to plan")
    succ = _neighbor_table(dims)
    n_groups, stride = len(groups), n + 1
    # column n, the padding cell, is never allowed and carries no gain
    allowed = np.zeros((n_groups, stride), dtype=bool)
    for row, (mask, _) in zip(allowed, groups):
        row[slice(n) if mask is None else _mask_cells(start, mask, n)] = True
    alphas = tuple(dict.fromkeys(a for _, a in groups))
    gain = np.zeros((n_groups, stride))
    per_alpha = per_cell_gain(belief, channel, np.array(alphas)[:, None], config.mi_form)
    gain[:, :n] = per_alpha[[alphas.index(a) for _, a in groups]]
    keep = np.append(1.0 - cell_failure_prob(belief.probs, channel), 1.0)
    allowed, gain = allowed.ravel(), gain.ravel()
    width = config.beam_width

    # Each group holds `rows` = min(width, 9**depth) partial paths in
    # lexicographic cell order, groups ascending. A path that took a move its
    # group does not allow, or a padding move, is dead: it scores -inf and so
    # do its children. The start is not marked visited: staying put is a
    # first visit. steps[d] holds each row's parent row and cell at depth d.
    rows, steps, parent = 1, [], np.empty(0, dtype=np.intp)
    score, surv = np.zeros(n_groups), np.ones(n_groups)
    visited = np.zeros((n_groups, stride), dtype=bool)
    cell = np.full(n_groups, start, dtype=np.intp)  # each row's last cell
    for _ in range(config.horizon):
        kids = rows * 9
        if parent.size != n_groups * kids:
            # for child k of the flat (rows, 9) blocks: its parent row, and the
            # offsets of its own visited row, its parent's and its group's gain row
            parent = np.arange(n_groups * kids) // 9
            child_at = np.arange(n_groups * kids) * stride
            parent_at, group_at = parent * stride, parent // rows * stride
        cell = succ.take(cell, axis=0).ravel()
        at = group_at + cell
        prev_score, prev_surv = score.take(parent), surv.take(parent)
        score = np.where(visited.take(parent_at + cell), prev_score, prev_score + prev_surv * gain.take(at))
        score = np.where(allowed.take(at), score, -np.inf)
        surv = prev_surv * keep.take(cell)
        kept = parent
        if width is not None and kids > width:
            # A group keeps its children above its width-th best score, then
            # those equal to it in row order until it holds `width`: the top
            # width of a stable sort, still in lexicographic order.
            block = score.reshape(n_groups, kids)
            cut = np.partition(block, kids - width, axis=1)[:, kids - width, None]
            above, tie = block > cut, block == cut
            room = width - above.sum(axis=1, keepdims=True)
            chosen = np.flatnonzero(above | (tie & (np.cumsum(tie, axis=1) <= room)))
            kept, cell, score, surv = parent.take(chosen), cell.take(chosen), score.take(chosen), surv.take(chosen)
        visited = visited.take(kept, axis=0)
        visited.ravel()[child_at[:len(cell)] + cell] = True
        steps.append((kept, cell))
        rows = len(cell) // n_groups
    # each group's first best row, then its cells back through the parents
    at = score.reshape(n_groups, rows).argmax(axis=1) + np.arange(n_groups) * rows
    best = score[at].tolist()
    path = np.empty((n_groups, config.horizon), dtype=np.intp)
    for depth in reversed(range(config.horizon)):
        kept, cell = steps[depth]
        path[:, depth], at = cell[at], kept[at]
    return [(s, tuple(cells)) for s, cells in zip(best, path.tolist())]


def plan_path(belief: BeliefMap, start: int, config: PlanConfig, channel: BinaryChannel,
              mask: Optional[frozenset] = None, alpha: float = 1.0) -> Trajectory:
    """Best fixed-horizon trajectory from `start` within `mask` at `alpha` (see plan_paths)."""
    [(_, cells)] = plan_paths(belief, start, config, channel, ((mask, alpha),))
    return Trajectory(start=start, cells=cells)


# A run walks a few masks at a time (one per sector of the current base), so
# a small memo holds them all.
@functools.lru_cache(maxsize=32)
def _walk_table(dims: GridDims, mask: Optional[frozenset]) -> tuple:
    """Each cell's walk options, neighbors(cell, dims, mask), indexed by cell;
    None for a cell outside the mask. Checks that the mask lies in the grid."""
    n = dims.n_cells
    if mask is None:
        idx = np.arange(n)
    else:
        idx = np.fromiter(mask, dtype=np.intp, count=len(mask))
        if idx.min() < 0 or idx.max() >= n:
            raise ParameterError(f"plan mask cells must lie in [0, {n})")
    inside = np.zeros(n + 1, dtype=bool)  # the padding cell n is never inside
    inside[idx] = True
    rows = _neighbor_table(dims)[idx]
    # a walk only stands on mask cells, so staying put is always in its row
    options = [None] * n
    for cell, row, ok in zip(idx.tolist(), rows.tolist(), inside[rows].tolist()):
        options[cell] = tuple(c for c, k in zip(row, ok) if k)
    return tuple(options)


def random_walk(start: int, horizon: int, dims: GridDims, mask: Optional[frozenset],
                rng: np.random.Generator) -> Trajectory:
    """Uniform 9-connected walk of fixed length; reproducible per rng state.

    Each step draws one of the current cell's neighbors(cell, dims, mask).
    """
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if mask is not None and start not in mask:
        raise ParameterError(f"start {start} outside the plan mask")
    table = _walk_table(dims, mask)
    cells = []
    cur = start
    for _ in range(horizon):
        options = table[cur]
        cur = options[int(rng.integers(len(options)))]
        cells.append(cur)
    return Trajectory(start=start, cells=tuple(cells))
