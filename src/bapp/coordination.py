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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .belief import BeliefMap, GridDims
from .errors import ParameterError
from .info_measures import binary_entropy
from .planner import neighbors

__all__ = [
    "Partition",
    "RelocationPolicy",
    "radial_partition",
    "sector_masks",
    "regional_entropy",
    "reachable_cells",
    "select_base_site",
]


@dataclass(frozen=True, eq=False)
class Partition:
    sector_count: int
    assignment: np.ndarray  # sector id per cell

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=int)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)

    def sector_cells(self, sector: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == sector)


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


def _cell_coords(dims: GridDims) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(dims.n_cells) // dims.cols
    cols = np.arange(dims.n_cells) % dims.cols
    return rows, cols


def radial_partition(base: int, dims: GridDims, n: int) -> Partition:
    """Assign every cell to one of n angular sectors about the base cell."""
    if n < 1:
        raise ParameterError("sector count must be >= 1")
    if not dims.contains(base):
        raise ParameterError(f"base cell {base} outside grid")
    br, bc = dims.to_rc(base)
    rows, cols = _cell_coords(dims)
    theta = np.arctan2(rows - br, cols - bc)
    theta = np.mod(theta, 2.0 * math.pi)
    sectors = np.minimum((n * theta / (2.0 * math.pi)).astype(int), n - 1)
    sectors[base] = 0
    return Partition(sector_count=n, assignment=sectors)


def sector_masks(base: int, dims: GridDims, n: int) -> list:
    """Planner mask of each of n robots; [None] (no mask) for one robot.

    A robot's mask is its sector of the radial partition plus the hub.
    """
    if n == 1:
        return [None]
    partition = radial_partition(base, dims, n)
    # thin angular wedges need not touch the base under 9-connectivity,
    # so every robot may cross the 3x3 hub around the base on its way out
    hub = frozenset(neighbors(base, dims))
    return [frozenset(int(c) for c in partition.sector_cells(s)) | hub for s in range(n)]


def regional_entropy(belief: BeliefMap, candidate: int, policy: RelocationPolicy,
                     partition: Partition) -> tuple[np.ndarray, float]:
    """Per-sector mean binary entropy near a candidate site, plus its average.

    Each sector's mean is taken over its cells within Euclidean distance
    explore_radius of the candidate; a sector with no such cells scores 0,
    which penalizes sites that leave some robot with nothing nearby.
    """
    dims = belief.dims
    if not dims.contains(candidate):
        raise ParameterError(f"candidate {candidate} outside grid")
    cr, cc = dims.to_rc(candidate)
    rows, cols = _cell_coords(dims)
    in_disc = (rows - cr) ** 2 + (cols - cc) ** 2 <= policy.explore_radius ** 2
    ent = binary_entropy(belief.probs, base=2.0)
    n = partition.sector_count
    means = np.zeros(n)
    for s in range(n):
        sel = in_disc & (partition.assignment == s)
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
    free = belief.probs < safety_threshold
    reach = np.zeros(dims.n_cells, dtype=bool)
    if not free[start]:
        return reach
    reach[start] = True
    queue = deque([start])
    while queue:
        for nxt in neighbors(queue.popleft(), dims):
            if free[nxt] and not reach[nxt]:
                reach[nxt] = True
                queue.append(nxt)
    return reach


def select_base_site(belief: BeliefMap, base: int, policy: RelocationPolicy, n: int) -> int:
    """Best relocation site within the search box, or the current base.

    Candidates are cells within Chebyshev distance search_radius whose
    belief is below the safety threshold and that are safely reachable.
    Each is scored by the average sector entropy of a simulated partition
    at that site; ties go to the smaller cell index.
    """
    dims = belief.dims
    reach = reachable_cells(belief, base, policy.safety_threshold)
    br, bc = dims.to_rc(base)
    r_s = int(math.floor(policy.search_radius))
    best = None
    for r in range(max(0, br - r_s), min(dims.rows, br + r_s + 1)):
        for c in range(max(0, bc - r_s), min(dims.cols, bc + r_s + 1)):
            cand = dims.to_cell(r, c)
            if not reach[cand]:
                continue
            part = radial_partition(cand, dims, n)
            _, score = regional_entropy(belief, cand, policy, part)
            if best is None or score > best[0]:
                best = (score, cand)
    return base if best is None else best[1]
