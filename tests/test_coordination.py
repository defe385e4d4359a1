import math

import numpy as np
import pytest

from bapp.belief import BeliefMap, GridDims, init_uniform
from bapp.coordination import (BasePose, RelocationPolicy, radial_partition, reachable_cells,
                               regional_entropy, select_base_site)
from bapp.errors import ParameterError


class TestRadialPartition:
    def test_single_sector_covers_all(self):
        dims = GridDims(4, 4)
        part = radial_partition(BasePose(5), dims, 1)
        assert np.all(part.assignment == 0)

    def test_partition_covers_grid_exactly_once(self):
        dims = GridDims(6, 7)
        for n in (2, 3, 5, 8):
            part = radial_partition(BasePose(dims.to_cell(3, 3)), dims, n)
            total = sum(len(part.sector_cells(s)) for s in range(n))
            assert total == dims.n_cells

    def test_base_cell_in_sector_zero(self):
        dims = GridDims(5, 5)
        part = radial_partition(BasePose(12), dims, 6)
        assert part.assignment[12] == 0

    def test_quadrants_match_angle_computation(self):
        dims = GridDims(5, 5)
        base = dims.to_cell(2, 2)
        part = radial_partition(BasePose(base), dims, 4)
        for cell in range(dims.n_cells):
            if cell == base:
                continue
            r, c = dims.to_rc(cell)
            theta = math.atan2(r - 2, c - 2) % (2 * math.pi)
            assert part.assignment[cell] == min(int(4 * theta / (2 * math.pi)), 3)

    def test_invalid_sector_count(self):
        with pytest.raises(ParameterError):
            radial_partition(BasePose(0), GridDims(3, 3), 0)


class TestRegionalEntropy:
    def test_uniform_scores_one(self):
        dims = GridDims(7, 7)
        belief = init_uniform(dims)
        part = radial_partition(BasePose(24), dims, 4)
        policy = RelocationPolicy(explore_radius=3.0)
        means, score = regional_entropy(belief, 24, policy, part)
        assert np.allclose(means, 1.0)
        assert score == pytest.approx(1.0)

    def test_resolved_disc_scores_zero(self):
        dims = GridDims(7, 7)
        belief = BeliefMap(dims, np.zeros(49))
        part = radial_partition(BasePose(24), dims, 3)
        policy = RelocationPolicy(explore_radius=2.5)
        _, score = regional_entropy(belief, 24, policy, part)
        assert score == 0.0

    def test_five_cell_mean(self):
        # radius 1 disc around the center = center + 4 orthogonal neighbors;
        # entropies {1, 1, 0, 0, 0} average to 0.4
        dims = GridDims(5, 5)
        probs = np.zeros(25)
        probs[[12, 7]] = 0.5
        belief = BeliefMap(dims, probs)
        part = radial_partition(BasePose(12), dims, 1)
        policy = RelocationPolicy(explore_radius=1.0)
        means, score = regional_entropy(belief, 12, policy, part)
        assert score == pytest.approx(0.4)

    def test_empty_sector_contributes_zero(self):
        # a candidate in the corner leaves far sectors without nearby cells
        dims = GridDims(9, 9)
        belief = init_uniform(dims)
        part = radial_partition(BasePose(0), dims, 8)
        policy = RelocationPolicy(explore_radius=1.5)
        means, score = regional_entropy(belief, 0, policy, part)
        assert np.any(means == 0.0)
        assert score < 1.0


class TestReachability:
    def test_same_cell(self):
        belief = init_uniform(GridDims(3, 3))
        assert reachable_cells(belief, 4, 0.6)[4]
        assert not reachable_cells(belief, 4, 0.4)[4]

    def test_blocked_by_ring(self):
        dims = GridDims(5, 5)
        probs = np.full(25, 0.1)
        ring = [6, 7, 8, 11, 13, 16, 17, 18]
        probs[ring] = 0.9
        belief = BeliefMap(dims, probs)
        assert not reachable_cells(belief, 0, 0.6)[12]

    def test_corridor(self):
        dims = GridDims(3, 5)
        probs = np.full(15, 0.95)
        probs[[5, 6, 7, 8, 9]] = 0.1  # middle row open
        belief = BeliefMap(dims, probs)
        assert reachable_cells(belief, 5, 0.6)[9]
        assert not reachable_cells(belief, 5, 0.6)[2]


class TestSelectBaseSite:
    def test_uniform_moves_to_lowest_index_candidate(self):
        dims = GridDims(7, 7)
        belief = init_uniform(dims)
        policy = RelocationPolicy(explore_radius=2.0, search_radius=2.0, safety_threshold=0.6)
        out = select_base_site(belief, BasePose(24), policy, 2)
        box = [dims.to_cell(r, c) for r in range(1, 6) for c in range(1, 6)]
        # every box cell ties at score 1.0, so the smallest index wins
        assert out.cell == min(box)

    def test_unsafe_everywhere_stays(self):
        dims = GridDims(5, 5)
        belief = BeliefMap(dims, np.full(25, 0.9))
        policy = RelocationPolicy(search_radius=2.0, safety_threshold=0.6)
        out = select_base_site(belief, BasePose(12), policy, 3)
        assert out.cell == 12

    def test_prefers_candidate_near_unexplored_region(self):
        dims = GridDims(7, 7)
        probs = np.zeros(49)
        for r in range(7):
            for c in range(5, 7):
                probs[dims.to_cell(r, c)] = 0.5  # east strip unknown
        belief = BeliefMap(dims, probs)
        policy = RelocationPolicy(explore_radius=1.5, search_radius=1.0, safety_threshold=0.6)
        base = dims.to_cell(3, 3)
        out = select_base_site(belief, BasePose(base), policy, 1)
        # exhaustive re-check over the box
        best = None
        reach = reachable_cells(belief, base, 0.6)
        for r in range(2, 5):
            for c in range(2, 5):
                cand = dims.to_cell(r, c)
                if belief.probs[cand] >= 0.6 or not reach[cand]:
                    continue
                part = radial_partition(BasePose(cand), dims, 1)
                _, score = regional_entropy(belief, cand, policy, part)
                if best is None or score > best[0]:
                    best = (score, cand)
        assert out.cell == best[1]
        br, bc = dims.to_rc(out.cell)
        assert bc == 4  # moved toward the unknown strip

    def test_never_returns_unsafe_or_unreachable(self):
        rng = np.random.default_rng(13)
        dims = GridDims(8, 8)
        policy = RelocationPolicy(explore_radius=2.0, search_radius=3.0, safety_threshold=0.55)
        for _ in range(20):
            belief = BeliefMap(dims, rng.uniform(0.0, 1.0, 64))
            base = BasePose(int(rng.integers(64)))
            out = select_base_site(belief, base, policy, 3)
            if out.cell != base.cell:
                assert belief.probs[out.cell] < 0.55
                assert reachable_cells(belief, base.cell, 0.55)[out.cell]

    def test_monotone_vs_current_base(self):
        rng = np.random.default_rng(15)
        dims = GridDims(8, 8)
        policy = RelocationPolicy(explore_radius=2.5, search_radius=2.0, safety_threshold=0.7)
        for _ in range(20):
            belief = BeliefMap(dims, rng.uniform(0.0, 0.6, 64))
            base = BasePose(int(rng.integers(64)))
            out = select_base_site(belief, base, policy, 4)
            part_old = radial_partition(base, dims, 4)
            part_new = radial_partition(out, dims, 4)
            _, s_old = regional_entropy(belief, base.cell, policy, part_old)
            _, s_new = regional_entropy(belief, out.cell, policy, part_new)
            assert s_new >= s_old - 1e-12
