from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp.belief import BeliefMap, GridDims, cell_failure_prob, init_uniform
from bapp.coordination import sector_masks
from bapp.errors import ParameterError
from bapp.info_measures import BinaryChannel, MiForm, mi_bgs
from bapp.oracles import exhaustive_plan
from bapp.planner import (PlanConfig, Trajectory, neighbors, per_cell_gain, plan_path, plan_paths,
                          random_walk, score_path)

CH = BinaryChannel(0.9, 0.1)
D3 = GridDims(3, 3)


def mask_row(n: int, cells) -> np.ndarray:
    """The plan mask of an n-cell grid that allows exactly `cells`."""
    row = np.zeros(n, dtype=bool)
    row[list(cells)] = True
    return row


def _rank_key(state):
    return (-state[0], state[1])


def reference_plan_path(belief: BeliefMap, start: int, config: PlanConfig,
                        channel: BinaryChannel, mask=None, alpha: float = 1.0) -> Trajectory:
    """The tuple-and-bitmask beam that plan_path replaced, kept as its reference."""
    dims = belief.dims
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if mask is not None and not mask[start]:
        raise ParameterError(f"start {start} outside the plan mask")
    gain = per_cell_gain(belief, channel, alpha, config.mi_form)
    keep = 1.0 - cell_failure_prob(belief.probs, channel)
    table = tuple(neighbors(cell, dims) for cell in range(dims.n_cells))
    gain_l = gain.tolist()
    keep_l = keep.tolist()
    if mask is not None:
        # pre-filter successor lists; staying put is exempt from the mask
        table = tuple(
            tuple(c for c in row if c == cell or mask[c])
            for cell, row in enumerate(table)
        )

    # state: (score, cells, survival, visited bitmask)
    beam = [(0.0, (), 1.0, 0)]
    width = config.beam_width
    for _ in range(config.horizon):
        nxt = []
        append = nxt.append
        for score, cells, surv, visited in beam:
            prev = cells[-1] if cells else start
            for c in table[prev]:
                bit = 1 << c
                if visited & bit:
                    append((score, cells + (c,), surv * keep_l[c], visited))
                else:
                    append((score + surv * gain_l[c], cells + (c,), surv * keep_l[c], visited | bit))
        nxt.sort(key=_rank_key)
        beam = nxt if width is None else nxt[:width]
    best = beam[0]
    return Trajectory(start=start, cells=best[1])


def reference_random_walk(start: int, horizon: int, dims: GridDims, mask, rng) -> Trajectory:
    """The neighbors()-filter walk that random_walk's per-mask table replaced, kept as its reference."""
    if not dims.contains(start):
        raise ParameterError(f"start {start} outside grid")
    if mask is not None and not mask[start]:
        raise ParameterError(f"start {start} outside the plan mask")
    cells = []
    cur = start
    for _ in range(horizon):
        options = neighbors(cur, dims, mask)
        cur = options[int(rng.integers(len(options)))]
        cells.append(cur)
    return Trajectory(start=start, cells=tuple(cells))


def words_of(rng):
    """rng's full-range uint32 words, drawn one at a time as a walk reads them."""
    while True:
        yield int(rng.integers(0, 0xFFFFFFFF, dtype=np.uint32, endpoint=True))


class TestNeighbors:
    def test_interior_has_nine(self):
        out = neighbors(4, D3)
        assert out == (0, 1, 2, 3, 4, 5, 6, 7, 8)

    def test_corner_has_four(self):
        assert neighbors(0, D3) == (0, 1, 3, 4)

    def test_stay_survives_empty_mask(self):
        assert neighbors(4, D3, mask=mask_row(9, ())) == (4,)

    def test_mask_filters(self):
        assert neighbors(4, D3, mask=mask_row(9, {1, 7})) == (1, 4, 7)

    def test_out_of_bounds(self):
        with pytest.raises(ParameterError):
            neighbors(9, D3)


class TestTrajectoryValidation:
    def test_accepts_connected(self):
        Trajectory(start=4, cells=(0, 1, 2)).validate(D3)

    def test_rejects_teleport(self):
        with pytest.raises(ParameterError):
            Trajectory(start=0, cells=(8,)).validate(D3)

    def test_rejects_mask_violation(self):
        with pytest.raises(ParameterError):
            Trajectory(start=4, cells=(0,)).validate(D3, mask=mask_row(9, {4, 1}))

    @pytest.mark.parametrize("start,cells", [(0, (1.9, 2.5)), (0, (1, 2.0)), (0.0, (1, 2)),
                                             (0, ("1",)), (None, (1,))])
    def test_non_integral_start_or_cells_rejected(self, start, cells):
        with pytest.raises(ParameterError, match="start and cells must be integers"):
            Trajectory(start=start, cells=cells)

    def test_numpy_integers_become_ints(self):
        t = Trajectory(start=np.int64(4), cells=np.array([0, 1, 2]))
        assert t == Trajectory(start=4, cells=(0, 1, 2))
        assert type(t.start) is int and all(type(c) is int for c in t.cells)


class TestScorePath:
    def test_single_cell_equals_mi(self):
        b = init_uniform(D3)
        t = Trajectory(start=4, cells=(1,))
        assert score_path(b, t, CH, 1.0) == pytest.approx(mi_bgs(0.5, CH), abs=1e-12)
        assert score_path(b, t, CH, 1.0) == pytest.approx(0.368064, abs=1e-6)

    def test_two_distinct_cells_discounted(self):
        b = init_uniform(D3)
        t = Trajectory(start=4, cells=(1, 2))
        # q = 0.5 at the first cell, so the second contributes half
        assert score_path(b, t, CH, 1.0) == pytest.approx(0.368064 * 1.5, abs=1e-5)

    def test_resolved_cells_score_zero(self):
        probs = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        b = BeliefMap(D3, probs)
        t = Trajectory(start=4, cells=(1, 2, 4))
        for form in (MiForm.POSTERIOR, MiForm.CHANNEL):
            assert score_path(b, t, CH, 0.7, form) == 0.0

    def test_revisit_adds_no_information_but_discounts(self):
        b = init_uniform(D3)
        revisit = Trajectory(start=4, cells=(1, 1, 2))
        # second step burns survival 0.5 without adding information
        expected = 0.368064 * (1 + 0.25)
        assert score_path(b, revisit, CH, 1.0) == pytest.approx(expected, abs=1e-5)

    def test_discount_upper_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            b = BeliefMap(D3, rng.uniform(0.05, 0.95, 9))
            cells = [4]
            for _ in range(4):
                cells.append(int(rng.choice(neighbors(cells[-1], D3))))
            t = Trajectory(start=4, cells=tuple(cells[1:]))
            score = score_path(b, t, CH, 1.0)
            undiscounted = sum(mi_bgs(float(b.probs[c]), CH) for c in set(t.cells))
            assert score <= undiscounted + 1e-12


class TestPlanPath:
    def test_uniform_tie_breaks_to_lowest_neighbor(self):
        b = init_uniform(D3)
        cfg = PlanConfig(horizon=1, beam_width=None)
        assert plan_path(b, 4, cfg, CH, alpha=1.0).cells == (0,)

    def test_seeks_informative_cell(self):
        probs = np.full(9, 0.01)
        probs[5] = 0.5
        b = BeliefMap(D3, probs)
        cfg = PlanConfig(horizon=1, beam_width=None)
        assert plan_path(b, 4, cfg, CH, alpha=1.0).cells == (5,)

    def test_unbounded_beam_matches_exhaustive(self):
        rng = np.random.default_rng(19)
        for dims, horizon in ((D3, 3), (GridDims(4, 4), 3), (GridDims(4, 4), 4)):
            start = dims.n_cells // 2
            for k in range(10):
                b = BeliefMap(dims, rng.uniform(0.02, 0.98, dims.n_cells))
                alpha = (1.0, 0.6, 1.7)[k % 3]
                form = (MiForm.POSTERIOR, MiForm.CHANNEL)[k % 2]
                mask = None
                if k >= 5:
                    mask = rng.random(dims.n_cells) < 0.6
                    mask[start] = True
                cfg = PlanConfig(horizon=horizon, beam_width=None, mi_form=form)
                want = exhaustive_plan(b, start, horizon, CH, alpha, form, mask)
                assert plan_path(b, start, cfg, CH, mask, alpha) == want

    def test_score_monotone_in_beam_width(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            b = BeliefMap(D3, rng.uniform(0.02, 0.98, 9))
            scores = []
            for width in (1, 2, 8, 64, None):
                cfg = PlanConfig(horizon=3, beam_width=width)
                t = plan_path(b, 4, cfg, CH, alpha=1.0)
                scores.append(score_path(b, t, CH, 1.0))
            assert all(a <= s + 1e-12 for a, s in zip(scores, scores[1:]))
            best = score_path(b, exhaustive_plan(b, 4, 3, CH, 1.0), CH, 1.0)
            assert scores[-1] == pytest.approx(best, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        b = BeliefMap(GridDims(5, 5), rng.uniform(0.05, 0.95, 25))
        cfg = PlanConfig(horizon=6, beam_width=16, mi_form=MiForm.CHANNEL)
        assert plan_path(b, 12, cfg, CH, alpha=0.8) == plan_path(b, 12, cfg, CH, alpha=0.8)

    def test_respects_mask_and_connectivity(self):
        rng = np.random.default_rng(29)
        dims = GridDims(5, 5)
        mask = mask_row(25, range(10, 20))
        b = BeliefMap(dims, rng.uniform(0.05, 0.95, 25))
        cfg = PlanConfig(horizon=5, beam_width=8)
        t = plan_path(b, 12, cfg, CH, mask, alpha=1.0)
        t.validate(dims, mask=mask)

    def test_start_outside_mask_rejected(self):
        b = init_uniform(D3)
        cfg = PlanConfig(horizon=2, beam_width=4)
        with pytest.raises(ParameterError):
            plan_path(b, 4, cfg, CH, mask_row(9, {0, 1}), alpha=1.0)
        with pytest.raises(ParameterError, match="start 4 outside the plan mask"):
            plan_paths(b, 4, cfg, CH, ((None, 1.0), (mask_row(9, {0, 1}), 0.5)))

    @pytest.mark.parametrize("outside", [9])
    def test_mask_cell_outside_grid_rejected(self, outside):
        # a row that marks a cell past the grid is one entry too long
        b = init_uniform(D3)
        cfg = PlanConfig(horizon=2, beam_width=4)
        mask = mask_row(outside + 1, {4, outside})
        with pytest.raises(ParameterError, match=r"bool array of shape \(9,\)"):
            plan_path(b, 4, cfg, CH, mask, alpha=1.0)
        with pytest.raises(ParameterError, match=r"bool array of shape \(9,\)"):
            plan_paths(b, 4, cfg, CH, ((mask, 0.5), (None, 1.0)))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ParameterError):
            plan_paths(init_uniform(D3), 4, PlanConfig(horizon=2), CH, ())


@st.composite
def _sweep_plans(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dims = GridDims(rows, cols)
    # quantised priors, so that scores tie
    probs = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                          min_size=dims.n_cells, max_size=dims.n_cells))
    start = draw(st.integers(0, dims.n_cells - 1))
    mask = draw(st.none() | st.sets(st.integers(0, dims.n_cells - 1)))
    if mask is not None:
        mask = mask_row(dims.n_cells, mask | {start})
    width = draw(st.sampled_from((1, 8, 32, None)))
    horizon = draw(st.integers(1, 4 if width is None else 15))
    cfg = PlanConfig(horizon=horizon, beam_width=width, mi_form=draw(st.sampled_from(MiForm)))
    alphas = draw(st.lists(st.sampled_from((0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)),
                           min_size=1, max_size=5))
    # BinaryChannel(1.0, 0.1) at a prior of 1.0 gives rows whose survival is 0
    channel = draw(st.sampled_from((CH, BinaryChannel(0.7, 0.1), BinaryChannel(0.5, 0.0),
                                    BinaryChannel(1.0, 0.1))))
    return BeliefMap(dims, np.array(probs)), start, cfg, mask, alphas, channel


@settings(max_examples=300, deadline=None)
@given(case=_sweep_plans())
def test_batched_beam_matches_reference_beam(case):
    belief, start, cfg, mask, alphas, channel = case
    got = plan_paths(belief, start, cfg, channel, [(mask, a) for a in alphas])
    assert len(got) == len(alphas)
    for a, (score, cells) in zip(alphas, got):
        ref = reference_plan_path(belief, start, cfg, channel, mask, a)
        assert cells == ref.cells
        assert score == score_path(belief, ref, channel, a, cfg.mi_form)
    assert plan_path(belief, start, cfg, channel, mask, alphas[0]).cells == got[0][1]


@st.composite
def _group_plans(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dims = GridDims(rows, cols)
    # quantised priors, so that scores tie
    probs = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                          min_size=dims.n_cells, max_size=dims.n_cells))
    start = draw(st.integers(0, dims.n_cells - 1))
    masks = st.none() | st.just(mask_row(dims.n_cells, {start})) | st.sets(
        st.integers(0, dims.n_cells - 1)).map(lambda m: mask_row(dims.n_cells, m | {start}))
    # a small alpha pool, so that groups share gain rows
    groups = draw(st.lists(st.tuples(masks, st.sampled_from((0.5, 1.0, 1.2, 2.0))),
                           min_size=1, max_size=6))
    width = draw(st.sampled_from((1, 8, 32, None)))
    horizon = draw(st.integers(1, 4 if width is None else 10))
    cfg = PlanConfig(horizon=horizon, beam_width=width, mi_form=draw(st.sampled_from(MiForm)))
    # BinaryChannel(1.0, 0.1) at a prior of 1.0 gives rows whose survival is 0
    channel = draw(st.sampled_from((CH, BinaryChannel(0.7, 0.1), BinaryChannel(0.5, 0.0),
                                    BinaryChannel(1.0, 0.1))))
    return BeliefMap(dims, np.array(probs)), start, cfg, groups, channel


@settings(max_examples=300, deadline=None)
@given(case=_group_plans())
def test_grouped_beam_matches_single_group_plans(case):
    belief, start, cfg, groups, channel = case
    got = plan_paths(belief, start, cfg, channel, groups)
    assert len(got) == len(groups)
    for (mask, a), (score, cells) in zip(groups, got):
        [(_, alone)] = plan_paths(belief, start, cfg, channel, [(mask, a)])
        assert cells == alone
        path = Trajectory(start=start, cells=cells)
        path.validate(belief.dims, mask)
        assert score == score_path(belief, path, channel, a, cfg.mi_form)


def test_three_way_tie_across_the_cut_keeps_the_first_two():
    # start 1 on a 1x4 row: its children (0), (1) and (2) tie, and a width-2
    # cut keeps (0) and (1), so (2, 3), the exhaustive best, is out of reach
    b = BeliefMap(GridDims(1, 4), np.array([0.2, 0.2, 0.2, 0.5]))
    first = [score_path(b, Trajectory(start=1, cells=(c,)), CH, 1.0) for c in (0, 1, 2)]
    assert first[0] == first[1] == first[2]
    cfg = PlanConfig(horizon=2, beam_width=2)
    assert plan_path(b, 1, cfg, CH).cells == (0, 1)
    assert reference_plan_path(b, 1, cfg, CH).cells == (0, 1)
    assert plan_path(b, 1, replace(cfg, beam_width=3), CH).cells == (2, 3)


@st.composite
def _thin_beside_wide_groups(draw):
    """1xN grids on which groups masked to {start} have one live path each,
    fewer than the width, beside unmasked groups that exceed it."""
    dims = GridDims(1, draw(st.integers(2, 12)))
    probs = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                          min_size=dims.n_cells, max_size=dims.n_cells))
    start = draw(st.integers(0, dims.n_cells - 1))
    masks = [mask_row(dims.n_cells, {start})] * draw(st.integers(1, 3)) + [None] * draw(st.integers(1, 3))
    masks = draw(st.permutations(masks))
    groups = [(mask, draw(st.sampled_from((0.5, 1.0, 2.0)))) for mask in masks]
    cfg = PlanConfig(horizon=draw(st.integers(1, 8)), beam_width=draw(st.sampled_from((2, 3, 8))),
                     mi_form=draw(st.sampled_from(MiForm)))
    channel = draw(st.sampled_from((CH, BinaryChannel(0.7, 0.1), BinaryChannel(0.5, 0.0))))
    return BeliefMap(dims, np.array(probs)), start, cfg, groups, channel


@settings(max_examples=150, deadline=None)
@given(case=_thin_beside_wide_groups())
def test_thin_groups_beside_wide_groups_match_reference_beam(case):
    belief, start, cfg, groups, channel = case
    got = plan_paths(belief, start, cfg, channel, groups)
    for (mask, a), (score, cells) in zip(groups, got):
        ref = reference_plan_path(belief, start, cfg, channel, mask, a)
        assert cells == ref.cells
        assert score == score_path(belief, ref, channel, a, cfg.mi_form)
        if mask is not None:
            assert cells == (start,) * cfg.horizon


@st.composite
def _sector_rounds(draw):
    """A team round's sector masks on a 12x12 to 20x20 grid, planned at H=7, width 32."""
    dims = GridDims(draw(st.integers(12, 20)), draw(st.integers(12, 20)))
    base = draw(st.integers(0, dims.n_cells - 1))
    n = draw(st.sampled_from((2, 3, 15)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # quantised priors, so that scores tie
    probs = rng.choice((0.05, 0.25, 0.5, 0.75), size=dims.n_cells)
    alpha = draw(st.sampled_from((0.8, 1.0)))
    cfg = PlanConfig(horizon=7, beam_width=32, mi_form=draw(st.sampled_from(MiForm)))
    groups = [(mask, alpha) for mask in sector_masks(base, dims, n)]
    return BeliefMap(dims, probs), base, cfg, groups, BinaryChannel(0.7, 0.1)


@settings(max_examples=30, deadline=None)
@given(case=_sector_rounds())
def test_sector_round_matches_reference_beam(case):
    belief, base, cfg, groups, channel = case
    got = plan_paths(belief, base, cfg, channel, groups)
    for (mask, a), (score, cells) in zip(groups, got):
        ref = reference_plan_path(belief, base, cfg, channel, mask, a)
        assert cells == ref.cells
        assert score == score_path(belief, ref, channel, a, cfg.mi_form)


class TestRandomWalk:
    def test_reproducible(self):
        a = random_walk(4, 10, D3, None, words_of(np.random.default_rng(5)))
        b = random_walk(4, 10, D3, None, words_of(np.random.default_rng(5)))
        assert a == b

    def test_single_cell_grid(self):
        dims = GridDims(1, 1)
        t = random_walk(0, 5, dims, None, words_of(np.random.default_rng(1)))
        assert t.cells == (0, 0, 0, 0, 0)

    def test_mask_respected(self):
        dims = GridDims(3, 3)
        row = mask_row(9, {3, 4, 5})
        t = random_walk(4, 40, dims, row, words_of(np.random.default_rng(2)))
        assert set(t.cells) <= {3, 4, 5}
        t.validate(dims, mask=row)

    @pytest.mark.parametrize("outside", [9])
    def test_mask_cell_outside_grid_rejected(self, outside):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match=r"bool array of shape \(9,\)"):
            random_walk(4, 5, D3, mask_row(outside + 1, {4, outside}), words_of(rng))
        assert rng.bit_generator.state == state

    def test_start_outside_mask_rejected(self):
        for start, mask in ((0, mask_row(9, {8})), (4, mask_row(9, ()))):
            with pytest.raises(ParameterError, match=f"start {start} outside the plan mask"):
                random_walk(start, 5, D3, mask, words_of(np.random.default_rng(4)))

    def test_negative_horizon_rejected(self):
        for mask in (None, mask_row(9, {4})):
            rng = np.random.default_rng(4)
            state = rng.bit_generator.state
            with pytest.raises(ParameterError, match="horizon must be >= 0, got -1"):
                random_walk(4, -1, D3, mask, words_of(rng))
            assert rng.bit_generator.state == state

    def test_start_checked_on_every_call(self):
        # the mask's table is memoised after the first walk; the start is not
        mask = mask_row(9, {3, 4, 5})
        random_walk(4, 5, D3, mask, words_of(np.random.default_rng(4)))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="start 0 outside the plan mask"):
            random_walk(0, 5, D3, mask, words_of(rng))
        assert rng.bit_generator.state == state


@st.composite
def _walks(draw):
    """A grid from 1x1 to 20x20, a corner, edge or centre base, and the
    base's sector mask for 1 (the whole grid), 2, 3 or 15 robots, or no mask."""
    dims = GridDims(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    r_last, c_last = dims.rows - 1, dims.cols - 1
    base = dims.to_cell(*draw(st.sampled_from([
        (0, 0), (0, c_last), (r_last, 0), (r_last, c_last),  # corners
        (0, c_last // 2), (r_last // 2, 0), (r_last, c_last // 2), (r_last // 2, c_last),  # edges
        (r_last // 2, c_last // 2)])))  # centre
    n = draw(st.sampled_from([1, 2, 3, 15]))
    mask = draw(st.sampled_from([None, *sector_masks(base, dims, n)]))
    return dims, base, mask, draw(st.integers(1, 30)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_walks())
def test_table_walk_matches_reference_walk(case):
    dims, start, mask, horizon, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    walk = random_walk(start, horizon, dims, mask, words_of(rng))
    assert walk == reference_random_walk(start, horizon, dims, mask, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _lemire(rng, k):
    """rng.integers(k) from 32-bit words: x * k >> 32, rejecting x while
    x * k mod 2**32 < (2**32 - k) % k; no word for k == 1."""
    if k == 1:
        return 0
    while True:
        m = int(rng.integers(0, 0xFFFFFFFF, dtype=np.uint32, endpoint=True)) * k
        if (m & 0xFFFFFFFF) >= (2 ** 32 - k) % k:
            return m >> 32


@pytest.mark.parametrize("k", range(1, 10))
def test_lemire_step_equals_integers(k):
    # random_walk maps its words to the draws of per-step integers(k)
    rng, ref = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(500):
        assert _lemire(rng, k) == int(ref.integers(k))
    assert rng.bit_generator.state == ref.bit_generator.state


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _rng_next_output_zero(seed: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output is 0: the state one step
    on has equal 64-bit halves, so XSL-RR outputs their xor, 0."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    after = 0x0123456789ABCDEF * (2 ** 64 + 1)
    before = (after - inc) * pow(_PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    state["state"]["state"] = before
    state["has_uint32"], state["uinteger"] = 0, 0
    rng.bit_generator.state = state
    return rng


def test_forced_rejection_walk_matches_reference_walk():
    # both 32-bit halves of the zero output are words 0, which k = 3 rejects
    # ((2**32 - 3) % 3 == 1): the walk's first step takes its third word
    assert _rng_next_output_zero(5).integers(0, 2 ** 64, dtype=np.uint64) == 0
    dims = GridDims(1, 3)
    assert len(neighbors(1, dims)) == 3
    rng, ref_rng = _rng_next_output_zero(5), _rng_next_output_zero(5)
    walk = random_walk(1, 6, dims, None, words_of(rng))
    assert walk == reference_random_walk(1, 6, dims, None, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the walk took 6 words plus the two rejected ones
    words = _rng_next_output_zero(5)
    words.integers(0, 0xFFFFFFFF, size=8, dtype=np.uint32, endpoint=True)
    assert rng.bit_generator.state == words.bit_generator.state


def test_walk_that_runs_out_of_words_rejected():
    with pytest.raises(ParameterError, match="the walk ran out of words after 2 of 5 steps"):
        random_walk(4, 5, D3, None, [0x80000000, 0x80000000])


def test_walk_that_cannot_move_draws_nothing():
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    assert random_walk(4, 7, D3, mask_row(9, {4}), words_of(rng)).cells == (4,) * 7
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bad", [
    frozenset({3, 4, 5}),
    [True] * 9,
    np.ones(9, dtype=int),
    np.ones(1, dtype=bool),
    np.ones(10, dtype=bool),
], ids=["frozenset", "list", "int-array", "length-1", "length-10"])
def test_malformed_mask_rejected(bad):
    message = r"a plan mask must be None or a bool array of shape \(9,\)"
    cfg = PlanConfig(horizon=2, beam_width=4)
    with pytest.raises(ParameterError, match=message):
        plan_paths(init_uniform(D3), 4, cfg, CH, ((None, 1.0), (bad, 0.5)))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match=message):
        random_walk(4, 5, D3, bad, words_of(rng))
    assert rng.bit_generator.state == state
    with pytest.raises(ParameterError, match=message):
        neighbors(4, D3, bad)
    with pytest.raises(ParameterError, match=message):
        Trajectory(start=4, cells=(4, 5)).validate(D3, bad)


@settings(max_examples=150, deadline=None)
@given(case=_sweep_plans(), seed=st.integers(0, 2 ** 32 - 1))
def test_all_true_row_plans_and_walks_as_none(case, seed):
    belief, start, cfg, _, alphas, channel = case
    dims = belief.dims
    everywhere = np.ones(dims.n_cells, dtype=bool)
    assert (plan_paths(belief, start, cfg, channel, [(everywhere, a) for a in alphas])
            == plan_paths(belief, start, cfg, channel, [(None, a) for a in alphas]))
    walk = random_walk(start, cfg.horizon, dims, everywhere, words_of(np.random.default_rng(seed)))
    assert walk == random_walk(start, cfg.horizon, dims, None, words_of(np.random.default_rng(seed)))
