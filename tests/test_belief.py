import numpy as np
import pytest

from bapp.belief import (BeliefMap, GridDims, cell_failure_prob, global_entropy, init_uniform,
                         update_on_failure, update_on_success)
from bapp.errors import InconsistentObservationError, ParameterError
from bapp.info_measures import BinaryChannel
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
