"""Radial partitioning around the mobile base and entropy-aware relocation.

Sectors are angular wedges about the base cell: a cell at angle theta in
[0, 2*pi) lands in sector floor(n * theta / (2*pi)); the base cell itself is
sector 0. Each robot plans inside its wedge plus the 3x3 hub around the
base. Bases are plain cell indices. Relocation scans a square box of
candidate sites, keeps the ones that are believed safe and safely
reachable, and moves to the candidate whose simulated partition has the
highest average nearby entropy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .belief import BeliefMap, GridDims
from .errors import ParameterError
from .info_measures import binary_entropy
from .planner import _neighbor_table, neighbors

__all__ = [
    "RelocationPolicy",
    "radial_partition",
    "sector_masks",
    "regional_entropy",
    "select_base_site",
]


@dataclass(frozen=True)
class RelocationPolicy:
    explore_radius: float = 8.0   # Euclidean disc scored around a candidate
    search_radius: float = 4.0    # Chebyshev box of candidate sites
    safety_threshold: float = 0.6
    cadence: int = 1              # rounds between relocation attempts

    def __post_init__(self):
        if self.explore_radius <= 0 or self.search_radius <= 0:
            raise ParameterError("radii must be > 0")
        if not self.explore_radius * self.explore_radius < math.inf:  # the disc squares it
            raise ParameterError(f"explore_radius squared must be finite, got {self.explore_radius!r}")
        if not (0.0 < self.safety_threshold < 1.0):
            raise ParameterError("safety threshold must be in (0, 1)")
        if self.cadence < 1:
            raise ParameterError("cadence must be >= 1")


@functools.cache
def _offset_tables(dims: GridDims, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector id and squared distance of every (row, col) offset from a base.

    Both read-only tables are indexed by (drow + rows - 1, dcol + cols - 1)
    over drow in [-(rows-1), rows-1] and dcol in [-(cols-1), cols-1], so the
    offsets of a grid about base (br, bc) are the rows x cols window that
    starts at (rows - 1 - br, cols - 1 - bc). Offset (0, 0) has angle 0 and
    so lands in sector 0, which puts the base cell there.
    """
    dr = np.arange(-(dims.rows - 1), dims.rows)[:, None]
    dc = np.arange(-(dims.cols - 1), dims.cols)[None, :]
    theta = np.arctan2(dr, dc)
    theta = np.mod(theta, 2.0 * math.pi)
    sectors = np.minimum((n * theta / (2.0 * math.pi)).astype(int), n - 1)
    dist2 = dr ** 2 + dc ** 2
    sectors.setflags(write=False)
    dist2.setflags(write=False)
    return sectors, dist2


def _window(table: np.ndarray, dims: GridDims, cell: int) -> np.ndarray:
    """The offset table's value for every grid cell about `cell`, row-major."""
    r, c = dims.to_rc(cell)
    r0, c0 = dims.rows - 1 - r, dims.cols - 1 - c
    return table[r0:r0 + dims.rows, c0:c0 + dims.cols].ravel()


def radial_partition(base: int, dims: GridDims, n: int) -> np.ndarray:
    """Sector id in [0, n) of every cell about the base cell, as a read-only array."""
    if n < 1:
        raise ParameterError("sector count must be >= 1")
    if not dims.contains(base):
        raise ParameterError(f"base cell {base} outside grid")
    sectors = _window(_offset_tables(dims, n)[0], dims, base)
    sectors.setflags(write=False)
    return sectors


def sector_masks(base: int, dims: GridDims, n: int) -> np.ndarray:
    """Plan mask of each of n robots, as the rows of a read-only (n, n_cells) bool array.

    A robot's mask is its sector of the radial partition plus the hub; the
    one sector of a single robot is the whole grid.
    """
    masks = radial_partition(base, dims, n) == np.arange(n)[:, None]
    # thin angular wedges need not touch the base under 9-connectivity,
    # so every robot may cross the 3x3 hub around the base on its way out
    masks[:, list(neighbors(base, dims))] = True
    masks.setflags(write=False)
    return masks


def regional_entropy(belief: BeliefMap, candidate: int, policy: RelocationPolicy,
                     n: int) -> tuple[np.ndarray, float]:
    """Per-sector mean binary entropy near a candidate site, plus its average.

    The sectors are those of the n-sector radial partition about the
    candidate itself. Each sector's mean is taken over its cells within
    Euclidean distance explore_radius of the candidate; a sector with no
    such cells scores 0, which penalizes sites that leave some robot with
    nothing nearby.
    """
    dims = belief.dims
    if not dims.contains(candidate):
        raise ParameterError(f"candidate {candidate} outside grid")
    sectors = radial_partition(candidate, dims, n)
    dist2 = _window(_offset_tables(dims, n)[1], dims, candidate)
    in_disc = dist2 <= policy.explore_radius ** 2
    ent = binary_entropy(belief.probs, base=2.0)
    means = np.zeros(n)
    for s in range(n):
        sel = in_disc & (sectors == s)
        if np.any(sel):
            means[s] = float(ent[sel].mean())
    return means, float(means.mean())


def _reach(belief: BeliefMap, start: int, safety_threshold: float,
           targets: Optional[np.ndarray] = None) -> np.ndarray:
    """Cells reachable from start by 8-connected moves through sub-threshold cells.

    Returns a boolean mask over the grid, all False when start itself is at
    or above the threshold. Given target cells, only the mask's entries at
    the targets are exact, as the search stops once every sub-threshold
    target has been reached.
    """
    dims = belief.dims
    if not dims.contains(start):
        raise ParameterError(f"cell {start} outside grid")
    # breadth-first, one ring per step. Both masks carry one extra, always
    # False entry for the padding cell n_cells of the successor table.
    free = np.append(belief.probs < safety_threshold, False)
    reach = np.zeros(dims.n_cells + 1, dtype=bool)
    if free[start]:
        succ = _neighbor_table(dims)
        wanted = None if targets is None else targets[free[targets]]
        reach[start] = True
        ring = np.array([start])
        while ring.size and (wanted is None or not reach[wanted].all()):
            new = np.zeros_like(reach)
            new[succ[ring]] = True
            new &= free & ~reach
            reach |= new
            ring = np.flatnonzero(new)
    return reach[:-1]


# a run relocates with one (grid, team, radius), so a small memo holds it
@functools.lru_cache(maxsize=8)
def _disc(dims: GridDims, n: int, radius: float) -> tuple[np.ndarray, ...]:
    """The offsets within Euclidean distance `radius` of a base, in (sector,
    row offset, column offset) order, as read-only tables.

    Returns each offset's flat cell offset; whether it stays in the grid
    from a base in each row, and in each column, as (rows, offsets) and
    (cols, offsets) bool tables; and the index of each sector's last
    offset. Sector 0 holds offset (0, 0), so it is never empty, and an
    empty sector's last index is its predecessor's. In this order the
    in-grid cells of a sector about any base come in ascending cell order.
    """
    sectors, dist2 = _offset_tables(dims, n)
    inside = np.flatnonzero(dist2.ravel() <= radius ** 2)
    key = sectors.ravel()[inside]
    dr, dc = np.divmod(inside[np.argsort(key, kind="stable")], 2 * dims.cols - 1)
    dr, dc = dr - (dims.rows - 1), dc - (dims.cols - 1)
    r, c = np.arange(dims.rows)[:, None] + dr, np.arange(dims.cols)[:, None] + dc
    row_ok, col_ok = (r >= 0) & (r < dims.rows), (c >= 0) & (c < dims.cols)
    tables = (dr * dims.cols + dc, row_ok, col_ok, np.cumsum(np.bincount(key, minlength=n)) - 1)
    for table in tables:
        table.setflags(write=False)
    return tables


def _site_scores(belief: BeliefMap, base: int, policy: RelocationPolicy,
                 n: int) -> tuple[list, list]:
    """Candidate sites about `base` in ascending order, and the score of each.

    A score equals regional_entropy's average at that site to the bit.
    """
    dims = belief.dims
    br, bc = dims.to_rc(base)
    r_s = int(math.floor(policy.search_radius))
    box_rows = np.arange(max(0, br - r_s), min(dims.rows, br + r_s + 1))
    box_cols = np.arange(max(0, bc - r_s), min(dims.cols, bc + r_s + 1))
    cands = (box_rows[:, None] * dims.cols + box_cols).ravel()
    cands = cands[_reach(belief, base, policy.safety_threshold, cands)[cands]]
    if cands.size == 0:
        return [], []
    offsets, row_ok, col_ok, last = _disc(dims, n, policy.explore_radius)
    # Each candidate's in-disc cells, sector by sector, each sector's in
    # ascending cell order, so every sector mean adds the same values in the
    # same order as ndarray.mean in regional_entropy. Summing in any other
    # order (bincount, reduceat, rows padded with zeros) moves near-tied
    # scores by an ulp and changes the site.
    cand_r, cand_c = np.divmod(cands, dims.cols)
    in_grid = row_ok[cand_r] & col_ok[cand_c]
    cells = (cands[:, None] + offsets)[in_grid]
    # each (candidate, sector) run's length: the running count of in-grid
    # offsets at the sector's last offset, less the previous sector's
    counts = in_grid.astype(np.intp).cumsum(axis=1)[:, last]
    counts[:, 1:] -= counts[:, :-1].copy()
    lens = counts.ravel()
    starts = (np.cumsum(lens) - lens)[lens > 0]
    lens = lens[lens > 0]
    # the cells again, their runs in ascending length order: the runs of one
    # length L are then the rows of a C-contiguous (k, L) block, and each
    # row is summed by the same pairwise reduce as a 1-D run of L values,
    # bit for bit
    by_len = np.argsort(lens, kind="stable")
    sorted_lens = lens[by_len]
    # each run's start in `cells` less its start in length order
    shift = starts[by_len] - (np.cumsum(sorted_lens) - sorted_lens)
    vals = belief._entropy_bits[cells[np.repeat(shift, sorted_lens) + np.arange(cells.size)]]
    per_len = np.bincount(sorted_lens)
    blocks, at = [], 0
    for length in np.flatnonzero(per_len).tolist():
        k = int(per_len[length])
        blocks.append(np.add.reduce(vals[at:at + k * length].reshape(k, length), axis=1))
        at += k * length
    sums = np.empty(lens.size)
    sums[by_len] = np.concatenate(blocks)
    means = np.zeros(counts.shape)
    means[counts > 0] = sums / lens
    scores = np.add.reduce(means, axis=1) / n
    return cands.tolist(), scores.tolist()


def select_base_site(belief: BeliefMap, base: int, policy: RelocationPolicy, n: int) -> int:
    """Best relocation site within the search box, or the current base.

    Candidates are cells within Chebyshev distance search_radius whose
    belief is below the safety threshold and that are safely reachable.
    Each is scored by the average sector entropy of a simulated partition
    at that site, as regional_entropy scores it; ties go to the smaller
    cell index.
    """
    cands, scores = _site_scores(belief, base, policy, n)
    return cands[int(np.argmax(scores))] if cands else base  # argmax keeps the first maximum
