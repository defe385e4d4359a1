"""Fixed-horizon trajectory search over a 9-connected grid.

Motion primitives are the 8 surrounding cells plus stay-in-place. Candidate
paths are scored by survival-discounted behavioral mutual information and
searched with a width-limited beam held in numpy arrays, which plans any
number of (mask, alpha) groups in one pass: a bapp-sig alpha sweep, or
every sector of a team round. Beam width None means exhaustive.

A plan mask is a bool array of one entry per grid cell, True where a path
may go, or None for the whole grid.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

@functools.cache
def _neighbor_table(dims: GridDims) -> np.ndarray:
    """All 9-connected successors per cell (self included), ascending order.

    A read-only (n_cells + 1, 9) array: rows are padded with the cell
    n_cells for the missing moves, and the extra row n_cells is all padding,
    so the padding cell only ever leads to itself.
    """
    rows, cols = dims.rows, dims.cols
    n = rows * cols
    table = np.full((n + 1, 9), n, dtype=np.intp)
    for cell in range(n):
        r, c = divmod(cell, cols)
        row = [rr * cols + cc for rr in (r - 1, r, r + 1) for cc in (c - 1, c, c + 1)
               if 0 <= rr < rows and 0 <= cc < cols]
        table[cell, :len(row)] = row
    table.setflags(write=False)
    return table


def _check_mask(mask: Optional[np.ndarray], dims: GridDims) -> None:
    """Raise unless `mask` is None or a bool array of shape (n_cells,)."""
    if mask is not None and not (isinstance(mask, np.ndarray) and mask.dtype == bool
                                 and mask.shape == (dims.n_cells,)):
        raise ParameterError(f"a plan mask must be None or a bool array of shape ({dims.n_cells},)")


@dataclass(frozen=True)
class Trajectory:
    """Ordered cells visited after leaving `start`; length is the horizon."""

    start: int
    cells: tuple[int, ...]

    def __post_init__(self):
        try:
            start, cells = operator.index(self.start), tuple(map(operator.index, self.cells))
        except TypeError:
            raise ParameterError("trajectory start and cells must be integers") from None
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _of_ints(cls, start: int, cells: tuple[int, ...]) -> "Trajectory":
        """A trajectory over a start and a tuple of cells that are Python
        ints already (the beam's and the walk's), without the per-cell check."""
        out = object.__new__(cls)
        object.__setattr__(out, "start", start)
        object.__setattr__(out, "cells", cells)
        return out

    def validate(self, dims: GridDims, mask: Optional[np.ndarray] = None) -> None:
        if not dims.contains(self.start):
            raise ParameterError(f"start {self.start} outside grid")
        _check_mask(mask, dims)
        prev = self.start
        succ = _neighbor_table(dims)
        for c in self.cells:
            if not dims.contains(c):
                raise ParameterError(f"cell {c} outside grid")
            if c not in succ[prev]:
                raise ParameterError(f"move {prev} -> {c} is not 9-connected")
            if mask is not None and c != self.start and not mask[c]:
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


def neighbors(cell: int, dims: GridDims, mask: Optional[np.ndarray] = None) -> tuple[int, ...]:
    """9-connected successors of a cell in ascending (row-major) order.

    Staying put is always allowed, so the cell itself is returned even when
    the mask excludes every adjacent cell.
    """
    if not dims.contains(cell):
        raise ParameterError(f"cell {cell} outside grid")
    _check_mask(mask, dims)
    n = dims.n_cells
    return tuple(c for c in _neighbor_table(dims)[cell].tolist()
                 if c < n and (mask is None or c == cell or mask[c]))


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
    return _path_value(path.cells, gain, keep)


def _path_value(cells: Sequence[int], gain: np.ndarray, keep: np.ndarray) -> float:
    """score_path's sum over `cells`, given each cell's gain and survival factor."""
    total = 0.0
    surv = 1.0
    seen = set()
    for c in cells:
        if c not in seen:
            total += surv * gain[c]
            seen.add(c)
        surv *= keep[c]
    return float(total)


# A run plans a few shapes over and over: each group count it uses, at 1, 9
# and beam_width rows. An entry holds 4 * n_groups * rows * 9 indices.
@functools.lru_cache(maxsize=6)
def _child_index(n_groups: int, rows: int, stride: int) -> tuple[np.ndarray, ...]:
    """For child k of n_groups flat (rows, 9) blocks: its parent row, and the
    offsets of its own visited row, its parent's and its group's gain row,
    each of stride entries; read-only."""
    child = np.arange(n_groups * rows * 9)
    parent = child // 9
    tables = (parent, child * stride, parent * stride, parent // rows * stride)
    for table in tables:
        table.setflags(write=False)
    return tables


def plan_paths(belief: BeliefMap, start: int, config: PlanConfig, channel: BinaryChannel,
               groups: Sequence[tuple[Optional[np.ndarray], float]]) -> list[tuple[float, tuple[int, ...]]]:
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
    # column n, the padding cell, is always blocked and carries no gain
    blocked = np.ones((n_groups, stride), dtype=bool)
    for row, (mask, _) in zip(blocked, groups):
        _check_mask(mask, dims)
        row[:n] = False if mask is None else ~mask
    if blocked[:, start].any():
        raise ParameterError(f"start {start} outside the plan mask")
    alphas = tuple(dict.fromkeys(a for _, a in groups))
    gain = np.zeros((n_groups, stride))
    per_alpha = per_cell_gain(belief, channel, np.array(alphas)[:, None], config.mi_form)
    gain[:, :n] = per_alpha[[alphas.index(a) for _, a in groups]]
    keep = np.append(1.0 - cell_failure_prob(belief.probs, channel), 1.0)
    blocked, gain = blocked.ravel(), gain.ravel()
    width = config.beam_width

    # Each group holds `rows` = min(width, 9**depth) partial paths in
    # lexicographic cell order, groups ascending. A path that took a move its
    # group does not allow, or a padding move, is dead: it scores -inf and so
    # do its children. The start is not marked visited: staying put is a
    # first visit. steps[d] holds each row's parent row and cell at depth d.
    rows, steps = 1, []
    score, surv = np.zeros(n_groups), np.ones(n_groups)
    visited = np.zeros((n_groups, stride), dtype=bool)
    cell = np.full(n_groups, start, dtype=np.intp)  # each row's last cell
    last = config.horizon - 1
    for depth in range(config.horizon):
        kids = rows * 9
        parent, child_at, parent_at, group_at = _child_index(n_groups, rows, stride)
        cell = succ.take(cell, axis=0).ravel()
        at = group_at + cell
        # a row's 9 children are adjacent, so each gets its parent's values by repeat
        prev_score, prev_surv = score.repeat(9), surv.repeat(9)
        score = np.where(visited.take(parent_at + cell), prev_score, prev_score + prev_surv * gain.take(at))
        np.putmask(score, blocked.take(at), -np.inf)
        if depth == last:
            # no cut: it would keep each group's first best child, the one
            # the argmax over all of the group's children finds
            steps.append((parent, cell))
            rows = kids
            break
        kept = parent
        if width is not None and kids > width:
            # A group keeps its children above its width-th best score, then
            # those equal to it in row order until it holds `width`: the top
            # width of a stable sort, still in lexicographic order.
            block = score.reshape(n_groups, kids)
            cut = block.copy()
            cut.partition(kids - width, axis=1)
            cut = cut[:, kids - width, None]
            above, tie = block > cut, block == cut
            room = width - above.sum(axis=1, keepdims=True)
            chosen = (above | (tie & (tie.cumsum(axis=1) <= room))).ravel().nonzero()[0]
            kept, cell, score, prev_surv = parent.take(chosen), cell.take(chosen), score.take(chosen), prev_surv.take(chosen)
        surv = prev_surv * keep.take(cell)  # for the kept children only
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
              mask: Optional[np.ndarray] = None, alpha: float = 1.0) -> Trajectory:
    """Best fixed-horizon trajectory from `start` within `mask` at `alpha` (see plan_paths)."""
    [(_, cells)] = plan_paths(belief, start, config, channel, ((mask, alpha),))
    return Trajectory._of_ints(start, cells)


# A run walks a few masks at a time (one per sector of the current base), so
# a small memo holds them all.
@functools.lru_cache(maxsize=32)
def _walk_table(dims: GridDims, mask: Optional[bytes]) -> tuple:
    """Each cell's walk options, neighbors(cell, dims, mask), indexed by cell;
    None for a cell outside the mask. `mask` is a plan mask's bytes, or None."""
    n = dims.n_cells
    inside = np.zeros(n + 1, dtype=bool)  # the padding cell n is never inside
    inside[:n] = True if mask is None else np.frombuffer(mask, dtype=bool)
    idx = np.flatnonzero(inside)
    rows = _neighbor_table(dims)[idx]
    # a walk only stands on mask cells, so staying put is always in its row
    options = [None] * n
    for cell, row, ok in zip(idx.tolist(), rows.tolist(), inside[rows].tolist()):
        options[cell] = tuple(c for c, k in zip(row, ok) if k)
    return tuple(options)


def random_walk(start: int, horizon: int, dims: GridDims, mask: Optional[np.ndarray],
                words: Iterable[int]) -> Trajectory:
    """Uniform 9-connected walk of fixed length; reproducible per word stream.

    `words` yields uint32 words, a generator's full-range
    integers(0, 0xFFFFFFFF, dtype=np.uint32, endpoint=True) draws. Each step
    picks one of the current cell's k = len(neighbors(cell, dims, mask))
    options with the draw rng.integers(k) takes from those words: for k > 1
    it maps a word x to x * k >> 32 (Lemire's method) and rejects x, for the
    next word, when x * k mod 2**32 falls below (2**32 - k) % k; for k == 1
    it takes no word. Only a start with no other option has k == 1, and the
    walk then never moves; every other cell on a walk lists the cell it came
    from. So the walk reads `horizon` words, plus one per rejection, and no
    more: the words of one rng.integers(k) call per step.
    """
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    _check_mask(mask, dims)
    if mask is not None and not mask[start]:
        raise ParameterError(f"start {start} outside the plan mask")
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    table = _walk_table(dims, None if mask is None else mask.tobytes())
    if len(table[start]) == 1:
        return Trajectory._of_ints(start, (start,) * horizon)
    words = iter(words)
    cells = []
    cur = start
    try:
        for x in itertools.islice(words, horizon):
            options = table[cur]
            k = len(options)
            m = x * k
            while (m & 0xFFFFFFFF) < k and (m & 0xFFFFFFFF) < (0x100000000 - k) % k:
                m = next(words) * k  # rejected: this step takes the next word
            cur = options[m >> 32]
            cells.append(cur)
    except StopIteration:
        pass
    if len(cells) < horizon:
        raise ParameterError(f"the walk ran out of words after {len(cells)} of {horizon} steps")
    return Trajectory._of_ints(start, tuple(cells))
