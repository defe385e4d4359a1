import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bapp.belief import (BeliefMap, GridDims, _fold_round, cell_failure_prob, global_entropy,
                         init_uniform, update_on_failure, update_on_success)
from bapp.errors import InconsistentObservationError, ParameterError
from bapp.info_measures import BinaryChannel, _binary_h, binary_entropy
from bapp.oracles import (joint_posterior, martingale_gap, outcome_probability,
                          posterior_by_enumeration)

CH = BinaryChannel(0.7, 0.1)


def make_belief(dims, assignments):
    probs = np.full(dims.n_cells, 0.5)
    for cell, p in assignments.items():
        probs[cell] = p
    return BeliefMap(dims, probs)


class TestGridDims:
    def test_indexing_round_trip(self):
        dims = GridDims(4, 7)
        for cell in range(dims.n_cells):
            r, c = dims.to_rc(cell)
            assert dims.to_cell(r, c) == cell

    def test_zero_area_rejected(self):
        with pytest.raises(ParameterError):
            GridDims(0, 5)


class TestInitUniform:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (10, 10), (20, 20)])
    def test_all_half(self, rows, cols):
        b = init_uniform(GridDims(rows, cols))
        assert b.probs.shape == (rows * cols,)
        assert np.all(b.probs == 0.5)

    def test_snapshots_are_read_only(self):
        b = init_uniform(GridDims(2, 2))
        with pytest.raises(ValueError):
            b.probs[0] = 0.9


class TestCellFailureProb:
    def test_mixed(self):
        assert cell_failure_prob(0.5, CH) == pytest.approx(0.4)

    def test_endpoints(self):
        assert cell_failure_prob(0.0, CH) == pytest.approx(CH.fpr)
        assert cell_failure_prob(1.0, CH) == pytest.approx(CH.tpr)


class TestSuccessUpdate:
    def test_single_cell(self):
        b = init_uniform(GridDims(3, 3))
        out = update_on_success(b, [4], CH)
        assert out.probs[4] == pytest.approx(0.25)  # 0.15 / 0.60
        assert np.all(out.probs[[0, 1, 2, 3, 5, 6, 7, 8]] == 0.5)

    def test_uninformative_channel(self):
        b = init_uniform(GridDims(2, 2))
        out = update_on_success(b, [0], BinaryChannel(0.3, 0.3))
        assert out.probs[0] == pytest.approx(0.5)

    def test_certainty_absorbing(self):
        b = make_belief(GridDims(2, 2), {0: 1.0, 1: 0.0})
        out = update_on_success(b, [0, 1], CH)
        assert out.probs[0] == 1.0
        assert out.probs[1] == 0.0

    def test_strictly_decreases_interior(self):
        rng = np.random.default_rng(2)
        dims = GridDims(3, 3)
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            out = update_on_success(make_belief(dims, {2: p}), [2], CH)
            assert out.probs[2] < p

    def test_revisits_count_once(self):
        b = init_uniform(GridDims(3, 3))
        once = update_on_success(b, [4], CH)
        thrice = update_on_success(b, [4, 4, 4], CH)
        assert np.allclose(once.probs, thrice.probs)

    def test_out_of_bounds(self):
        with pytest.raises(ParameterError):
            update_on_success(init_uniform(GridDims(2, 2)), [7], CH)

    @pytest.mark.parametrize("update", [update_on_success, update_on_failure])
    @pytest.mark.parametrize("cells", [[2.9], [2, 2.0], [1.5, 3], ["2"], [None]])
    def test_non_integral_cells_rejected(self, update, cells):
        with pytest.raises(ParameterError, match="path cells must be integers"):
            update(init_uniform(GridDims(2, 2)), cells, CH)

    @pytest.mark.parametrize("update", [update_on_success, update_on_failure])
    def test_numpy_integer_cells_accepted(self, update):
        b = init_uniform(GridDims(2, 2))
        want = update(b, [1, 3], CH).probs
        for cells in (np.array([1, 3]), [np.int64(1), np.uint8(3)], (np.intp(3), 1, 1)):
            assert update(b, cells, CH).probs.tobytes() == want.tobytes()


class TestFailureUpdate:
    def test_single_cell_matches_direct_bayes(self):
        b = init_uniform(GridDims(3, 3))
        out = update_on_failure(b, [4], CH)
        assert out.probs[4] == pytest.approx(0.875)  # 0.35 / 0.40

    def test_two_cell_matches_enumeration(self):
        # exhaustive oracle over the 4 hazard configurations gives
        # P(fail) = 0.64 and P(fail | X_i = 1) = 0.82, so 0.5 * 0.82 / 0.64
        b = init_uniform(GridDims(3, 3))
        out = update_on_failure(b, [0, 1], CH)
        want = posterior_by_enumeration([0.5, 0.5], CH, 1)
        assert out.probs[0] == pytest.approx(want[0], abs=1e-12)
        assert out.probs[0] == pytest.approx(0.640625, abs=1e-12)
        assert outcome_probability([0.5, 0.5], CH, 1) == pytest.approx(0.64)

    def test_certain_cell_stays(self):
        b = make_belief(GridDims(2, 2), {0: 1.0})
        out = update_on_failure(b, [0, 1], CH)
        assert out.probs[0] == 1.0

    def test_strictly_increases_interior(self):
        rng = np.random.default_rng(4)
        dims = GridDims(3, 3)
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            out = update_on_failure(make_belief(dims, {5: p}), [5], CH)
            assert out.probs[5] > p

    def test_impossible_observation(self):
        b = make_belief(GridDims(2, 2), {0: 0.0})
        with pytest.raises(InconsistentObservationError):
            update_on_failure(b, [0], BinaryChannel(0.7, 0.0))


class TestUpdateResults:
    def test_read_only_and_not_aliased(self):
        prior = BeliefMap(GridDims(3, 3), np.linspace(0.1, 0.9, 9))
        before = prior.probs.copy()
        for update in (update_on_success, update_on_failure):
            post = update(prior, (0, 4, 4, 8), CH)
            assert not post.probs.flags.writeable
            with pytest.raises(ValueError):
                post.probs[0] = 0.5
            assert not np.shares_memory(post.probs, prior.probs)
            assert np.array_equal(prior.probs, before)
            # the unchecked result would pass every public check
            assert np.array_equal(BeliefMap(post.dims, post.probs).probs, post.probs)

    def test_public_constructor_copies_and_checks(self):
        arr = np.full(9, 0.5)
        b = BeliefMap(GridDims(3, 3), arr)
        assert not np.shares_memory(b.probs, arr) and not b.probs.flags.writeable
        arr[0] = 0.9
        assert b.probs[0] == 0.5
        with pytest.raises(ParameterError, match="does not match grid"):
            BeliefMap(GridDims(3, 3), np.full(8, 0.5))


class TestOracleEquivalence:
    def test_random_paths_match_enumeration(self):
        rng = np.random.default_rng(8)
        dims = GridDims(3, 3)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            cells = list(rng.choice(9, size=k, replace=False))
            probs = rng.choice([0.1, 0.5, 0.9], size=k)
            belief = make_belief(dims, dict(zip(cells, probs)))
            for channel in (CH, BinaryChannel(0.9, 0.1)):
                succ = update_on_success(belief, cells, channel)
                fail = update_on_failure(belief, cells, channel)
                want_s = posterior_by_enumeration(probs, channel, 0)
                want_f = posterior_by_enumeration(probs, channel, 1)
                assert np.allclose(succ.probs[cells], want_s, atol=1e-10)
                assert np.allclose(fail.probs[cells], want_f, atol=1e-10)

    def test_martingale(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            priors = rng.uniform(0.05, 0.95, size=k)
            assert martingale_gap(priors, CH) < 1e-10

    def test_martingale_through_updates(self):
        # posterior expectation under the two outcomes returns the prior
        dims = GridDims(3, 3)
        cells = [0, 1, 4]
        priors = [0.3, 0.5, 0.8]
        belief = make_belief(dims, dict(zip(cells, priors)))
        p0 = outcome_probability(priors, CH, 0)
        succ = update_on_success(belief, cells, CH).probs[cells]
        fail = update_on_failure(belief, cells, CH).probs[cells]
        blended = p0 * succ + (1 - p0) * fail
        assert np.allclose(blended, priors, atol=1e-10)


class TestGlobalEntropy:
    def test_uniform_is_one(self):
        assert global_entropy(init_uniform(GridDims(10, 10))) == pytest.approx(1.0)

    def test_certain_is_zero(self):
        dims = GridDims(2, 3)
        probs = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        assert global_entropy(BeliefMap(dims, probs)) == 0.0

    def test_half_resolved(self):
        dims = GridDims(2, 2)
        probs = np.array([0.5, 0.5, 0.0, 0.0])
        assert global_entropy(BeliefMap(dims, probs)) == pytest.approx(0.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        dims = GridDims(4, 4)
        probs = rng.uniform(0, 1, 16)
        h1 = global_entropy(BeliefMap(dims, probs))
        h2 = global_entropy(BeliefMap(dims, rng.permutation(probs)))
        assert h1 == pytest.approx(h2, abs=1e-12)


# tpr = 1 sends a safe return's cells to exactly 0, fpr = 0 a one-cell loss's to 1
_CHANNELS = (CH, BinaryChannel(1.0, 0.1), BinaryChannel(0.7, 0.0), BinaryChannel(1.0, 0.0),
             BinaryChannel(0.5, 0.5))


@st.composite
def _update_runs(draw, channels=_CHANNELS):
    dims = GridDims(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    probs = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
                          min_size=dims.n_cells, max_size=dims.n_cells))
    cell = st.integers(0, dims.n_cells - 1)
    steps = draw(st.lists(st.tuples(st.booleans(), st.lists(cell, min_size=1, max_size=6),
                                    st.sampled_from(channels), st.booleans()),
                          min_size=1, max_size=12))
    return BeliefMap(dims, np.array(probs)), steps


@settings(max_examples=200, deadline=None)
@given(run=_update_runs())
def test_carried_entropy_matches_a_fresh_pass(run):
    # each update patches its parent's per-cell entropy at the path cells
    # once the parent has been read; until then it is left to be computed
    belief, steps = run
    for lost, cells, channel, read in steps:
        try:
            belief = (update_on_failure if lost else update_on_success)(belief, cells, channel)
        except InconsistentObservationError:
            continue
        if read:
            fresh = binary_entropy(belief.probs, base=2.0)
            assert np.array_equal(belief._entropy_bits, fresh)
            assert global_entropy(belief) == float(np.mean(fresh))
    assert not belief._entropy_bits.flags.writeable


def reference_update_on_success(belief, path_cells, channel):
    """update_on_success as numpy arrays over the path's cells, the vectorised
    form the Python-float update replaced, kept as its reference. Returns
    the new probs and the carried per-cell entropy (None if the parent
    carries none)."""
    cells = np.asarray(sorted(set(int(c) for c in path_cells)), dtype=int)
    lam, gam = channel.tpr, channel.fpr
    probs = belief.probs.copy()
    p = probs[cells]
    num = p * (1.0 - lam)
    den = num + (1.0 - p) * (1.0 - gam)
    if np.any(den <= 0.0):
        raise InconsistentObservationError("a safe return was impossible under this belief")
    probs[cells] = num / den
    return probs, _reference_patch(belief, probs, cells)


def reference_update_on_failure(belief, path_cells, channel):
    """update_on_failure's vectorised form, kept as its reference (see above)."""
    cells = np.asarray(sorted(set(int(c) for c in path_cells)), dtype=int)
    lam, gam = channel.tpr, channel.fpr
    probs = belief.probs.copy()
    p = probs[cells]
    survive = 1.0 - (p * lam + (1.0 - p) * gam)
    total_survive = float(np.prod(survive))
    p_fail = 1.0 - total_survive
    if p_fail <= 0.0:
        raise InconsistentObservationError("a failure was impossible under this belief")
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
    return probs, _reference_patch(belief, probs, cells)


def _reference_patch(belief, probs, cells):
    h = belief.__dict__.get("_entropy_bits")
    if h is None:
        return None
    h = h.copy()
    h[cells] = _binary_h(probs[cells]) / math.log(2.0)
    return h


# lethality 1 and malfunction 0 resolve cells exactly; with p = 1 and tpr = 1
# (or p = 0 and fpr = 1) a cell's survival factor is 0
_EDGE_CHANNELS = _CHANNELS + (BinaryChannel(0.9, 1.0), BinaryChannel(1.0, 1.0), BinaryChannel(0.0, 0.0))


@st.composite
def _single_updates(draw):
    dims = GridDims(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    probs = draw(st.lists(st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1.0),
                          min_size=dims.n_cells, max_size=dims.n_cells))
    path = draw(st.lists(st.integers(0, dims.n_cells - 1), min_size=1, max_size=15))
    return (dims, probs, path, draw(st.sampled_from(_EDGE_CHANNELS)), draw(st.booleans()),
            draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(case=_single_updates())
# two, one and three zero survival factors, then an impossible loss and an impossible return
@example(case=(GridDims(2, 2), [1.0, 1.0, 0.3, 0.5], [0, 1, 2, 1], BinaryChannel(1.0, 0.1), True, True))
@example(case=(GridDims(2, 2), [1.0, 0.0, 0.3, 0.5], [0, 1, 2, 2], BinaryChannel(1.0, 0.1), True, True))
@example(case=(GridDims(1, 3), [0.0, 0.0, 0.0], [0, 1, 2], BinaryChannel(0.7, 1.0), True, False))
@example(case=(GridDims(1, 3), [0.0, 0.0, 0.5], [0, 1], BinaryChannel(0.7, 0.0), True, True))
@example(case=(GridDims(1, 3), [1.0, 0.0, 0.5], [0, 0], BinaryChannel(1.0, 0.0), False, True))
def test_updates_match_vectorised_references(case):
    dims, probs, path, channel, lost, read = case
    belief = BeliefMap(dims, np.array(probs))
    if read:
        global_entropy(belief)  # the parent carries its per-cell entropy
    update, reference = ((update_on_failure, reference_update_on_failure) if lost
                         else (update_on_success, reference_update_on_success))
    try:
        want_probs, want_h = reference(belief, path, channel)
    except InconsistentObservationError:
        with pytest.raises(InconsistentObservationError):
            update(belief, path, channel)
        return
    got = update(belief, path, channel)
    assert got.probs.tobytes() == want_probs.tobytes()
    if want_h is None:
        assert "_entropy_bits" not in got.__dict__
    else:
        assert got._entropy_bits.tobytes() == want_h.tobytes()


def test_np_prod_is_the_left_to_right_product():
    # update_on_failure multiplies survival factors with math.prod; numpy
    # pairs up only add reductions, so np.prod must stay sequential too
    rng = np.random.default_rng(13)
    for n in range(1, 40):
        for _ in range(200):
            factors = rng.random(n)
            want = 1.0
            for f in factors.tolist():
                want *= f
            assert float(np.prod(factors)) == want
            assert math.prod(factors.tolist()) == want


def test_min_max_keeps_np_clip_bits():
    values = [-0.0, 0.0, 1.0, -1e-300, 5e-324, 0.5, 1.0 + 2 ** -52, 2.0, -3.0,
              math.inf, -math.inf, math.nan]
    want = np.clip(np.array(values), 0.0, 1.0)
    got = np.array([v if 0.0 <= v <= 1.0 else min(max(v, 0.0), 1.0) for v in values])
    assert got.tobytes() == want.tobytes()


def test_row_reduce_is_each_rows_own_sum():
    # _fold_round reduces a (K, n_cells) array along its rows at once; each
    # row must get the pairwise sum of global_entropy's 1-D reduce
    rng = np.random.default_rng(14)
    for n in (1, 2, 7, 8, 9, 16, 100, 105, 127, 128, 129, 255, 256, 400, 1000, 1025):
        for k in (1, 2, 3, 15, 40):
            rows = rng.random((k, n)) * rng.choice([1.0, 1e-12, 1e12], size=(k, n))
            got = (np.add.reduce(rows, axis=1) / n).tolist()
            assert [h.hex() for h in got] == [float(np.add.reduce(r) / n).hex() for r in rows]


@settings(max_examples=400, deadline=None)
@given(run=_update_runs(_EDGE_CHANNELS))
# K = 1; cells repeated within and across deployments; resolved cells,
# whose bits are -0.0 (their sum is +0.0); an impossible loss in the middle
# of a round
@example(run=(BeliefMap(GridDims(2, 2), np.array([0.2, 0.5, 0.9, 0.5])), [(False, [0, 1], CH, True)]))
@example(run=(BeliefMap(GridDims(2, 2), np.array([0.2, 0.5, 0.9, 0.5])),
              [(True, [1, 1, 2], CH, True), (False, [2, 3, 2], CH, True), (True, [2], CH, True)]))
@example(run=(BeliefMap(GridDims(1, 2), np.array([0.5, 0.5])),
              [(False, [0], BinaryChannel(1.0, 0.1), True), (False, [1, 0], BinaryChannel(1.0, 0.1), True)]))
@example(run=(BeliefMap(GridDims(1, 3), np.array([0.0, 0.0, 0.5])),
              [(False, [2], CH, True), (True, [0, 1], BinaryChannel(0.7, 0.0), True), (False, [2], CH, True)]))
def test_round_fold_matches_per_deployment_updates(run):
    # one round folded at once gives each deployment the entropy, and the
    # round the belief, of the public updates applied one by one
    belief, steps = run
    carried = steps[0][3]
    if carried:
        global_entropy(belief)  # the round-start belief carries its per-cell entropy
    snap, want, raised = belief, [], None
    for k, (lost, cells, channel, _) in enumerate(steps):
        try:
            snap = (update_on_failure if lost else update_on_success)(snap, cells, channel)
        except InconsistentObservationError:
            raised = k
            break
        want.append(global_entropy(snap).hex() if carried else None)
    # each step's (distinct cells, theta, channel), as run_trial hands them over
    observed = [(np.array(sorted(set(cells)), dtype=np.intp), int(lost), channel)
                for lost, cells, channel, _ in steps]
    if raised is not None:
        # the fold raises at the same deployment, and not before it
        with pytest.raises(InconsistentObservationError):
            _fold_round(belief, observed[:raised + 1])
        observed = observed[:raised]
        if not observed:
            return
    before = belief.probs.tobytes()
    got, hs = _fold_round(belief, observed)
    assert belief.probs.tobytes() == before
    assert got.probs.tobytes() == snap.probs.tobytes()
    assert not got.probs.flags.writeable
    if carried:
        assert [h.hex() for h in hs] == want
        assert got._entropy_bits.tobytes() == snap._entropy_bits.tobytes()
        assert not got._entropy_bits.flags.writeable
    else:
        assert hs == [] and "_entropy_bits" not in got.__dict__


class TestJointPosterior:
    @pytest.mark.parametrize("channel", [CH, BinaryChannel(0.9, 0.1), BinaryChannel(1.0, 0.0)])
    def test_one_update_equals_closed_form(self, channel):
        rng = np.random.default_rng(21)
        dims = GridDims(2, 3)
        for _ in range(20):
            prior = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=6) if channel.tpr == 1.0 \
                else rng.uniform(0.02, 0.98, size=6)
            path = tuple(rng.integers(0, 6, size=int(rng.integers(1, 6))).tolist())
            belief = BeliefMap(dims, prior)
            for theta, update in ((0, update_on_success), (1, update_on_failure)):
                try:
                    want = update(belief, path, channel).probs
                except InconsistentObservationError:
                    with pytest.raises(ZeroDivisionError):
                        joint_posterior(dims, [(path, theta)], channel, prior)
                    continue
                got = joint_posterior(dims, [(path, theta)], channel, prior)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_loss_then_return_parts_from_the_factored_belief(self):
        # A documented property of the model, not a defect to fix here: the
        # factored belief keeps only marginals after the loss of path (0, 1),
        # so the return of path (0,) says nothing to it about cell 1, while
        # under the joint it shifts the blame for the loss onto cell 1.
        dims = GridDims(1, 2)
        belief = update_on_success(update_on_failure(init_uniform(dims), (0, 1), CH), (0,), CH)
        joint = joint_posterior(dims, [((0, 1), 1), ((0,), 0)], CH)
        assert belief.probs[1] == pytest.approx(0.640625, abs=1e-12)
        assert joint[1] == pytest.approx(31 / 44, abs=1e-12)  # 0.704545...
        assert joint_posterior(dims, [((0, 1), 1)], CH)[1] == pytest.approx(0.640625, abs=1e-12)

    def test_limits_and_impossible_histories(self):
        with pytest.raises(ParameterError, match="at most 16 cells"):
            joint_posterior(GridDims(1, 17), [], CH)
        with pytest.raises(ParameterError, match="leaves the grid"):
            joint_posterior(GridDims(2, 2), [((0, 4), 0)], CH)
        with pytest.raises(ZeroDivisionError):
            joint_posterior(GridDims(1, 2), [((0,), 1)], BinaryChannel(1.0, 0.0), prior=0.0)
