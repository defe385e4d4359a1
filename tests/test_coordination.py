import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp import sim
from bapp.belief import BeliefMap, GridDims, init_uniform
from bapp.coordination import (RelocationPolicy, _reach, _site_scores, radial_partition,
                               regional_entropy, sector_masks, select_base_site)
from bapp.errors import ParameterError
from bapp.planner import neighbors
from bapp.scenario import load_scenario
from bapp.strategies import StrategyKind


def reference_partition(base: int, dims: GridDims, n: int) -> np.ndarray:
    """The arctan2 formula that radial_partition's offset-table gather replaced."""
    br, bc = dims.to_rc(base)
    rows = np.arange(dims.n_cells) // dims.cols
    cols = np.arange(dims.n_cells) % dims.cols
    theta = np.arctan2(rows - br, cols - bc)
    theta = np.mod(theta, 2.0 * math.pi)
    sectors = np.minimum((n * theta / (2.0 * math.pi)).astype(int), n - 1)
    sectors[base] = 0
    return sectors


def reference_reachable_cells(belief: BeliefMap, start: int, safety_threshold: float) -> np.ndarray:
    """The cell-by-cell queue BFS that _reach's ring-at-a-time search replaced."""
    dims = belief.dims
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


def reference_select_base_site(belief: BeliefMap, base: int, policy: RelocationPolicy, n: int) -> int:
    """The per-candidate loop that select_base_site replaced, kept as its reference."""
    dims = belief.dims
    reach = reference_reachable_cells(belief, base, policy.safety_threshold)
    br, bc = dims.to_rc(base)
    r_s = int(math.floor(policy.search_radius))
    best = None
    for r in range(max(0, br - r_s), min(dims.rows, br + r_s + 1)):
        for c in range(max(0, bc - r_s), min(dims.cols, bc + r_s + 1)):
            cand = dims.to_cell(r, c)
            if not reach[cand]:
                continue
            _, score = regional_entropy(belief, cand, policy, n)
            if best is None or score > best[0]:
                best = (score, cand)
    return base if best is None else best[1]


class TestRadialPartition:
    def test_single_sector_covers_all(self):
        dims = GridDims(4, 4)
        sectors = radial_partition(5, dims, 1)
        assert np.all(sectors == 0)

    def test_partition_covers_grid_exactly_once(self):
        dims = GridDims(6, 7)
        for n in (2, 3, 5, 8):
            sectors = radial_partition(dims.to_cell(3, 3), dims, n)
            total = sum(len(np.flatnonzero(sectors == s)) for s in range(n))
            assert total == dims.n_cells

    def test_base_cell_in_sector_zero(self):
        dims = GridDims(5, 5)
        sectors = radial_partition(12, dims, 6)
        assert sectors[12] == 0

    def test_quadrants_match_angle_computation(self):
        dims = GridDims(5, 5)
        base = dims.to_cell(2, 2)
        sectors = radial_partition(base, dims, 4)
        for cell in range(dims.n_cells):
            if cell == base:
                continue
            r, c = dims.to_rc(cell)
            theta = math.atan2(r - 2, c - 2) % (2 * math.pi)
            assert sectors[cell] == min(int(4 * theta / (2 * math.pi)), 3)

    def test_invalid_sector_count(self):
        with pytest.raises(ParameterError):
            radial_partition(0, GridDims(3, 3), 0)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (5, 7)])
    def test_returns_read_only_array(self, rows, cols):
        sectors = radial_partition(0, GridDims(rows, cols), 3)
        assert isinstance(sectors, np.ndarray) and sectors.shape == (rows * cols,)
        with pytest.raises(ValueError):
            sectors[0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 15])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (10, 10), (20, 20)])
    def test_table_gather_matches_angle_formula(self, rows, cols, n):
        dims = GridDims(rows, cols)
        for base in range(dims.n_cells):
            assert np.array_equal(radial_partition(base, dims, n), reference_partition(base, dims, n))


class TestSectorMasks:
    @staticmethod
    def box(dims, base):
        br, bc = dims.to_rc(base)
        return {dims.to_cell(r, c)
                for r in range(br - 1, br + 2) for c in range(bc - 1, bc + 2)
                if 0 <= r < dims.rows and 0 <= c < dims.cols}

    @pytest.mark.parametrize("base", [24, 0], ids=["centre", "corner"])
    def test_wedge_plus_hub(self, base):
        dims = GridDims(7, 7)
        sectors = radial_partition(base, dims, 5)
        hub = self.box(dims, base)
        assert len(hub) == (9 if base == 24 else 4)
        masks = sector_masks(base, dims, 5)
        assert masks.shape == (5, dims.n_cells) and masks.dtype == bool
        assert not masks.flags.writeable
        for s, mask in enumerate(masks):
            assert set(np.flatnonzero(mask).tolist()) == set(np.flatnonzero(sectors == s).tolist()) | hub

    def test_one_robot_mask_row_is_all_true(self):
        masks = sector_masks(12, GridDims(5, 5), 1)
        assert masks.shape == (1, 25) and masks.dtype == bool
        assert not masks.flags.writeable
        assert masks.all()


class TestRegionalEntropy:
    def test_uniform_scores_one(self):
        dims = GridDims(7, 7)
        belief = init_uniform(dims)
        policy = RelocationPolicy(explore_radius=3.0)
        means, score = regional_entropy(belief, 24, policy, 4)
        assert np.allclose(means, 1.0)
        assert score == pytest.approx(1.0)

    def test_resolved_disc_scores_zero(self):
        dims = GridDims(7, 7)
        belief = BeliefMap(dims, np.zeros(49))
        policy = RelocationPolicy(explore_radius=2.5)
        _, score = regional_entropy(belief, 24, policy, 3)
        assert score == 0.0

    def test_five_cell_mean(self):
        # radius 1 disc around the center = center + 4 orthogonal neighbors;
        # entropies {1, 1, 0, 0, 0} average to 0.4
        dims = GridDims(5, 5)
        probs = np.zeros(25)
        probs[[12, 7]] = 0.5
        belief = BeliefMap(dims, probs)
        policy = RelocationPolicy(explore_radius=1.0)
        means, score = regional_entropy(belief, 12, policy, 1)
        assert score == pytest.approx(0.4)

    def test_empty_sector_contributes_zero(self):
        # a candidate in the corner leaves far sectors without nearby cells
        dims = GridDims(9, 9)
        belief = init_uniform(dims)
        policy = RelocationPolicy(explore_radius=1.5)
        means, score = regional_entropy(belief, 0, policy, 8)
        assert np.any(means == 0.0)
        assert score < 1.0


class TestReachability:
    def test_same_cell(self):
        belief = init_uniform(GridDims(3, 3))
        assert _reach(belief, 4, 0.6)[4]
        assert not _reach(belief, 4, 0.4)[4]

    def test_blocked_by_ring(self):
        dims = GridDims(5, 5)
        probs = np.full(25, 0.1)
        ring = [6, 7, 8, 11, 13, 16, 17, 18]
        probs[ring] = 0.9
        belief = BeliefMap(dims, probs)
        assert not _reach(belief, 0, 0.6)[12]

    def test_corridor(self):
        dims = GridDims(3, 5)
        probs = np.full(15, 0.95)
        probs[[5, 6, 7, 8, 9]] = 0.1  # middle row open
        belief = BeliefMap(dims, probs)
        assert _reach(belief, 5, 0.6)[9]
        assert not _reach(belief, 5, 0.6)[2]

    def test_matches_queue_bfs(self):
        rng = np.random.default_rng(17)
        for rows, cols in ((1, 1), (1, 9), (6, 4), (20, 20)):
            dims = GridDims(rows, cols)
            for _ in range(25):
                belief = BeliefMap(dims, rng.uniform(0.0, 1.0, dims.n_cells))
                start = int(rng.integers(dims.n_cells))
                got = _reach(belief, start, 0.6)
                assert got.shape == (dims.n_cells,)
                assert np.array_equal(got, reference_reachable_cells(belief, start, 0.6))


class TestSelectBaseSite:
    def test_uniform_moves_to_lowest_index_candidate(self):
        dims = GridDims(7, 7)
        belief = init_uniform(dims)
        policy = RelocationPolicy(explore_radius=2.0, search_radius=2.0, safety_threshold=0.6)
        out = select_base_site(belief, 24, policy, 2)
        box = [dims.to_cell(r, c) for r in range(1, 6) for c in range(1, 6)]
        # every box cell ties at score 1.0, so the smallest index wins
        assert out == min(box)

    def test_unsafe_everywhere_stays(self):
        dims = GridDims(5, 5)
        belief = BeliefMap(dims, np.full(25, 0.9))
        policy = RelocationPolicy(search_radius=2.0, safety_threshold=0.6)
        out = select_base_site(belief, 12, policy, 3)
        assert out == 12

    def test_prefers_candidate_near_unexplored_region(self):
        dims = GridDims(7, 7)
        probs = np.zeros(49)
        for r in range(7):
            for c in range(5, 7):
                probs[dims.to_cell(r, c)] = 0.5  # east strip unknown
        belief = BeliefMap(dims, probs)
        policy = RelocationPolicy(explore_radius=1.5, search_radius=1.0, safety_threshold=0.6)
        base = dims.to_cell(3, 3)
        out = select_base_site(belief, base, policy, 1)
        # exhaustive re-check over the box
        best = None
        reach = _reach(belief, base, 0.6)
        for r in range(2, 5):
            for c in range(2, 5):
                cand = dims.to_cell(r, c)
                if belief.probs[cand] >= 0.6 or not reach[cand]:
                    continue
                _, score = regional_entropy(belief, cand, policy, 1)
                if best is None or score > best[0]:
                    best = (score, cand)
        assert out == best[1]
        br, bc = dims.to_rc(out)
        assert bc == 4  # moved toward the unknown strip

    def test_never_returns_unsafe_or_unreachable(self):
        rng = np.random.default_rng(13)
        dims = GridDims(8, 8)
        policy = RelocationPolicy(explore_radius=2.0, search_radius=3.0, safety_threshold=0.55)
        for _ in range(20):
            belief = BeliefMap(dims, rng.uniform(0.0, 1.0, 64))
            base = int(rng.integers(64))
            out = select_base_site(belief, base, policy, 3)
            if out != base:
                assert belief.probs[out] < 0.55
                assert _reach(belief, base, 0.55)[out]

    def test_monotone_vs_current_base(self):
        rng = np.random.default_rng(15)
        dims = GridDims(8, 8)
        policy = RelocationPolicy(explore_radius=2.5, search_radius=2.0, safety_threshold=0.7)
        for _ in range(20):
            belief = BeliefMap(dims, rng.uniform(0.0, 0.6, 64))
            base = int(rng.integers(64))
            out = select_base_site(belief, base, policy, 4)
            _, s_old = regional_entropy(belief, base, policy, 4)
            _, s_new = regional_entropy(belief, out, policy, 4)
            assert s_new >= s_old - 1e-12


@st.composite
def _relocations(draw):
    dims = GridDims(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.uniform(0.0, 0.7, dims.n_cells)
    # quantise some cells, so that candidate scores tie exactly
    quantised = rng.random(dims.n_cells) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    probs[quantised] = rng.choice((0.0, 0.25, 0.5), int(quantised.sum()))
    # radius 0.5: offset (0, 0) alone is in the disc, so every sector but 0 is empty
    policy = RelocationPolicy(explore_radius=draw(st.sampled_from((0.5, 1.5, 8.0, 16.0, 36.0))),
                              search_radius=draw(st.sampled_from((1.0, 4.0))))
    base = draw(st.integers(0, dims.n_cells - 1))
    n = draw(st.sampled_from((1, 2, 3, 5, 7, 15, 300)))  # 300: most sectors empty, trailing ones too
    return BeliefMap(dims, probs), base, policy, n


@settings(max_examples=300, deadline=None)
@given(case=_relocations())
def test_select_base_site_matches_reference_loop(case):
    belief, base, policy, n = case
    assert select_base_site(belief, base, policy, n) == reference_select_base_site(belief, base, policy, n)
    for cand, score in zip(*_site_scores(belief, base, policy, n)):
        assert score == regional_entropy(belief, cand, policy, n)[1]


@pytest.mark.parametrize("k", [1, 2, 7, 50, 400])
def test_row_reduce_equals_one_dimensional_reduce(k):
    # _site_scores sums every run of one length L as a row of a C-contiguous
    # (k, L) matrix; it matches ndarray.mean only if each row is added in
    # the order of a 1-D reduce. L runs past the 8-way unroll and the
    # 128-element blocks of numpy's pairwise sum.
    rng = np.random.default_rng(k)
    for length in range(1, 301):
        m = rng.uniform(0.0, 1.0, (k, length)) * 10.0 ** rng.uniform(-6.0, 0.0, (k, length))
        rows = np.add.reduce(m, axis=1)
        assert np.array_equal(rows, [np.add.reduce(row) for row in m]), length


def test_near_tie_relocation_matches_reference_loop(monkeypatch):
    # At the 13th relocation (round 14) candidates 199 and 219 hold the same
    # multiset of 331 entropies; only the summation order of each sector
    # mean separates them, by one ulp, so a sum in any other order (a
    # weighted bincount, say) moves the base to 199 instead.
    config, _ = load_scenario("energy-3x35")
    config = replace(config, strategy=StrategyKind.STD_ITP, master_seed=7)
    got = sim.run_trial(config, 0)
    monkeypatch.setattr(sim, "select_base_site", reference_select_base_site)
    want = sim.run_trial(config, 0)
    assert want.base_track[13] == 219
    assert got.base_track == want.base_track
    assert got.records == want.records
