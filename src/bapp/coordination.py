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

import math
from dataclasses import dataclass

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
    "reachable_cells",
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
        if not (0.0 < self.safety_threshold < 1.0):
            raise ParameterError("safety threshold must be in (0, 1)")
        if self.cadence < 1:
            raise ParameterError("cadence must be >= 1")


_SECTOR_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _offset_tables(dims: GridDims, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector id and squared distance of every (row, col) offset from a base.

    Both read-only tables are indexed by (drow + rows - 1, dcol + cols - 1)
    over drow in [-(rows-1), rows-1] and dcol in [-(cols-1), cols-1], so the
    offsets of a grid about base (br, bc) are the rows x cols window that
    starts at (rows - 1 - br, cols - 1 - bc). Offset (0, 0) has angle 0 and
    so lands in sector 0, which puts the base cell there.
    """
    key = (dims.rows, dims.cols, n)
    entry = _SECTOR_CACHE.get(key)
    if entry is None:
        dr = np.arange(-(dims.rows - 1), dims.rows)[:, None]
        dc = np.arange(-(dims.cols - 1), dims.cols)[None, :]
        theta = np.arctan2(dr, dc)
        theta = np.mod(theta, 2.0 * math.pi)
        sectors = np.minimum((n * theta / (2.0 * math.pi)).astype(int), n - 1)
        dist2 = dr ** 2 + dc ** 2
        sectors.setflags(write=False)
        dist2.setflags(write=False)
        entry = (sectors, dist2)
        _SECTOR_CACHE[key] = entry
    return entry


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


def sector_masks(base: int, dims: GridDims, n: int) -> list:
    """Planner mask of each of n robots; [None] (no mask) for one robot.

    A robot's mask is its sector of the radial partition plus the hub.
    """
    if n == 1:
        return [None]
    sectors = radial_partition(base, dims, n)
    # thin angular wedges need not touch the base under 9-connectivity,
    # so every robot may cross the 3x3 hub around the base on its way out
    hub = frozenset(neighbors(base, dims))
    return [frozenset(np.flatnonzero(sectors == s).tolist()) | hub for s in range(n)]


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


def reachable_cells(belief: BeliefMap, start: int, safety_threshold: float) -> np.ndarray:
    """Cells reachable from start by 8-connected moves through sub-threshold cells.

    Returns a boolean mask over the grid, all False when start itself is at
    or above the threshold.
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
        reach[start] = True
        ring = np.array([start])
        while ring.size:
            new = np.zeros_like(reach)
            new[succ[ring]] = True
            new &= free & ~reach
            reach |= new
            ring = np.flatnonzero(new)
    return reach[:-1]


def _site_scores(belief: BeliefMap, base: int, policy: RelocationPolicy,
                 n: int) -> tuple[list, list]:
    """Candidate sites about `base` in ascending order, and the score of each.

    A score equals regional_entropy's average at that site to the bit.
    """
    dims = belief.dims
    reach = reachable_cells(belief, base, policy.safety_threshold)
    br, bc = dims.to_rc(base)
    r_s = int(math.floor(policy.search_radius))
    box_rows = np.arange(max(0, br - r_s), min(dims.rows, br + r_s + 1))
    box_cols = np.arange(max(0, bc - r_s), min(dims.cols, bc + r_s + 1))
    cands = (box_rows[:, None] * dims.cols + box_cols).ravel()
    cands = cands[reach[cands]]
    if cands.size == 0:
        return [], []
    ent = binary_entropy(belief.probs, base=2.0)
    sectors, dist2 = _offset_tables(dims, n)
    # flat index of each (candidate, cell) offset into the tables
    width = 2 * dims.cols - 1
    cells = np.arange(dims.n_cells)
    flat_rc = (cells // dims.cols) * width + cells % dims.cols
    off = flat_rc[None, :] - flat_rc[cands][:, None] + (dims.rows - 1) * width + dims.cols - 1
    # sector of each cell, or n for the cells outside the candidate's disc;
    # a stable sort keeps each sector's cells in ascending order, so every
    # sector mean adds the same values in the same order as ndarray.mean in
    # regional_entropy. Summing in any other order (bincount, reduceat,
    # padded rows) moves near-tied scores by an ulp and changes the site.
    key = np.where(dist2.ravel()[off] <= policy.explore_radius ** 2, sectors.ravel()[off], n)
    vals = ent[np.argsort(key, axis=1, kind="stable")].ravel()  # the sorted rows, end to end
    group = (key + (n + 1) * np.arange(len(cands))[:, None]).ravel()
    counts = np.bincount(group, minlength=len(cands) * (n + 1)).reshape(len(cands), n + 1)[:, :n]
    # bounds of each non-empty (candidate, sector) run in the flattened rows
    ends = np.cumsum(counts, axis=1) + dims.n_cells * np.arange(len(cands))[:, None]
    filled = counts > 0
    sums = np.zeros(counts.shape)
    sums[filled] = [np.add.reduce(vals[lo:hi]) for lo, hi in
                    zip((ends - counts)[filled].tolist(), ends[filled].tolist())]
    means = np.divide(sums, counts, out=np.zeros(counts.shape), where=filled)
    scores = [float(np.add.reduce(row) / n) for row in means]
    return cands.tolist(), scores


def select_base_site(belief: BeliefMap, base: int, policy: RelocationPolicy, n: int) -> int:
    """Best relocation site within the search box, or the current base.

    Candidates are cells within Chebyshev distance search_radius whose
    belief is below the safety threshold and that are safely reachable.
    Each is scored by the average sector entropy of a simulated partition
    at that site, as regional_entropy scores it; ties go to the smaller
    cell index.
    """
    best_score, best = None, base
    for cand, score in zip(*_site_scores(belief, base, policy, n)):
        if best_score is None or score > best_score:
            best_score, best = score, cand
    return best
