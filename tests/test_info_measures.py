import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapp.belief import BeliefMap, GridDims
from bapp.errors import DistributionError, ParameterError
from bapp.info_measures import (AlphaSearchResult, BehaviorParams, BinaryChannel, MiForm,
                                behavioral_entropy, binary_behavioral_entropy, binary_entropy,
                                delta_mi, find_informative_alpha, mi_behavioral, mi_bgs,
                                prelec_weight, shannon_entropy)


def mi_joint_oracle(p, lam, gam):
    """Mutual information by direct 2x2 joint enumeration, written from scratch."""
    joint = {
        (1, 1): p * lam,
        (1, 0): p * (1 - lam),
        (0, 1): (1 - p) * gam,
        (0, 0): (1 - p) * (1 - gam),
    }
    px = {1: p, 0: 1 - p}
    pz = {1: joint[(1, 1)] + joint[(0, 1)], 0: joint[(1, 0)] + joint[(0, 0)]}
    total = 0.0
    for (x, z), pxz in joint.items():
        if pxz > 0:
            total += pxz * math.log(pxz / (px[x] * pz[z]))
    return total


class TestPrelecWeight:
    def test_identity_at_alpha_one(self):
        params = BehaviorParams(alpha=1.0, support_size=2)
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert prelec_weight(p, params) == pytest.approx(p, abs=1e-15)

    def test_half_is_fixed_point_for_binary(self):
        params = BehaviorParams(alpha=0.5, support_size=2)
        assert prelec_weight(0.5, params) == pytest.approx(0.5, abs=1e-15)

    def test_known_value(self):
        # direct evaluation of exp(-beta * (-ln p)^alpha)
        params = BehaviorParams(alpha=0.5, support_size=2)
        expected = math.exp(-math.sqrt(math.log(2)) * math.sqrt(-math.log(0.2)))
        got = prelec_weight(0.2, params)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.34775, abs=5e-5)

    def test_uniform_fixed_point_grid(self):
        for m in (2, 3, 4, 16, 100, 256, 1024):
            for alpha in np.arange(0.1, 5.01, 0.35):
                params = BehaviorParams(alpha=float(alpha), support_size=m)
                assert abs(prelec_weight(1.0 / m, params) - 1.0 / m) < 1e-12

    def test_boundaries(self):
        params = BehaviorParams(alpha=0.7, support_size=2)
        assert prelec_weight(0.0, params) == 0.0
        assert prelec_weight(1.0, params) == 1.0

    def test_monotone_in_p(self):
        grid = np.linspace(0.001, 0.999, 200)
        for alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
            params = BehaviorParams(alpha=alpha, support_size=2)
            w = prelec_weight(grid, params)
            assert np.all(np.diff(w) >= 0)
            # strict increase wherever float64 has not saturated to 0 or 1
            interior = (w[:-1] > 1e-300) & (w[1:] < 1.0 - 1e-16)
            assert np.all(np.diff(w)[interior] > 0)

    def test_errors(self):
        with pytest.raises(ParameterError):
            BehaviorParams(alpha=0.0, support_size=2)
        with pytest.raises(ParameterError):
            BehaviorParams(alpha=-1.0, support_size=2)
        with pytest.raises(ParameterError):
            BehaviorParams(alpha=math.nan, support_size=2)
        params = BehaviorParams(alpha=1.0, support_size=2)
        with pytest.raises(ParameterError):
            prelec_weight(1.5, params)
        with pytest.raises(ParameterError):
            prelec_weight(math.inf, params)

    def test_beta_formula(self):
        params = BehaviorParams(alpha=0.3, support_size=7)
        assert params.beta == math.exp((1 - 0.3) * math.log(math.log(7)))
        assert BehaviorParams(alpha=1.0, support_size=5).beta == 1.0


class TestShannonEntropy:
    def test_uniform_binary(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_skewed(self):
        expected = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
        assert shannon_entropy([0.2, 0.8]) == pytest.approx(expected, abs=1e-12)
        assert shannon_entropy([0.2, 0.8]) == pytest.approx(0.500402, abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            probs = rng.dirichlet(np.ones(m))
            h = shannon_entropy(probs)
            assert 0.0 <= h <= math.log(m) + 1e-12

    def test_invalid(self):
        with pytest.raises(DistributionError):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(DistributionError):
            shannon_entropy([1.2, -0.2])
        with pytest.raises(DistributionError):
            shannon_entropy([1.0])


class TestBehavioralEntropy:
    def test_uniform_gives_log_m(self):
        for m in (2, 3, 10, 64):
            for alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
                h = behavioral_entropy([1.0 / m] * m, alpha)
                assert h == pytest.approx(math.log(m), abs=1e-10)

    def test_alpha_one_reduces_to_shannon(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = float(rng.uniform(0.001, 0.999))
            dist = [p, 1 - p]
            assert abs(behavioral_entropy(dist, 1.0) - shannon_entropy(dist)) < 1e-9

    def test_known_value(self):
        # recompute by the definition with beta = sqrt(ln 2)
        beta = math.sqrt(math.log(2))
        w = [math.exp(-beta * math.sqrt(-math.log(p))) for p in (0.2, 0.8)]
        expected = -sum(v * math.log(v) for v in w)
        assert behavioral_entropy([0.2, 0.8], 0.5) == pytest.approx(expected, abs=1e-12)
        assert behavioral_entropy([0.2, 0.8], 0.5) == pytest.approx(0.63271, abs=5e-5)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            behavioral_entropy([0.5, 0.5], 0.0)


class TestMiBgs:
    def test_symmetric_channel_half_prior(self):
        assert mi_bgs(0.5, BinaryChannel(0.9, 0.1)) == pytest.approx(0.368064, abs=1e-6)

    def test_uninformative_channel(self):
        assert mi_bgs(0.5, BinaryChannel(0.3, 0.3)) == 0.0

    def test_degenerate_prior(self):
        assert mi_bgs(0.0, BinaryChannel(0.9, 0.1)) == 0.0
        assert mi_bgs(1.0, BinaryChannel(0.9, 0.1)) == 0.0

    def test_matches_joint_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p, lam, gam = rng.uniform(0.01, 0.99, 3)
            ch = BinaryChannel(float(lam), float(gam))
            assert mi_bgs(float(p), ch) == pytest.approx(mi_joint_oracle(p, lam, gam), abs=1e-12)

    def test_both_decompositions_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p, lam, gam = rng.uniform(0.01, 0.99, 3)
            pz1 = p * lam + (1 - p) * gam
            via_x = binary_entropy(p) - (pz1 * binary_entropy(p * lam / pz1)
                                         + (1 - pz1) * binary_entropy(p * (1 - lam) / (1 - pz1)))
            via_z = binary_entropy(pz1) - (p * binary_entropy(lam) + (1 - p) * binary_entropy(gam))
            got = mi_bgs(float(p), BinaryChannel(float(lam), float(gam)))
            assert got == pytest.approx(via_x, abs=1e-12)
            assert got == pytest.approx(via_z, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p, lam, gam = rng.uniform(0.0, 1.0, 3)
            assert mi_bgs(float(p), BinaryChannel(float(lam), float(gam))) >= 0.0


class TestMiBehavioral:
    def test_alpha_one_both_forms(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p, lam, gam = rng.uniform(0.01, 0.99, 3)
            ch = BinaryChannel(float(lam), float(gam))
            ref = mi_bgs(float(p), ch)
            for form in (MiForm.POSTERIOR, MiForm.CHANNEL):
                assert abs(mi_behavioral(float(p), ch, 1.0, form) - ref) < 1e-9

    def test_channel_form_examples(self):
        ch = BinaryChannel(0.9, 0.1)
        assert mi_behavioral(0.5, ch, 0.5, MiForm.CHANNEL) == pytest.approx(0.368064, abs=1e-6)
        assert mi_behavioral(0.2, ch, 0.5, MiForm.CHANNEL) == pytest.approx(0.359436, abs=1e-5)
        assert mi_bgs(0.2, ch) == pytest.approx(0.247974, abs=1e-6)

    def test_channel_form_recomputed_from_definition(self):
        # perceived marginal with the prior pushed through the Prelec weight
        p, lam, gam, alpha = 0.2, 0.9, 0.1, 0.5
        beta = math.sqrt(math.log(2))
        w = math.exp(-beta * (-math.log(p)) ** alpha)
        perceived = w * lam + (1 - w) * gam
        h_obs = binary_behavioral_entropy(perceived, alpha)
        cond = w * binary_entropy(lam) + (1 - w) * binary_entropy(gam)
        got = mi_behavioral(p, BinaryChannel(lam, gam), alpha, MiForm.CHANNEL)
        assert got == pytest.approx(h_obs - cond, abs=1e-14)

    def test_posterior_form_degenerate_prior(self):
        ch = BinaryChannel(0.9, 0.1)
        assert mi_behavioral(0.0, ch, 0.5, MiForm.POSTERIOR) == 0.0
        assert mi_behavioral(1.0, ch, 0.5, MiForm.POSTERIOR) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            mi_behavioral(0.3, BinaryChannel(0.9, 0.1), -0.5)


@settings(max_examples=200, deadline=None)
@given(probs=st.lists(st.sampled_from((0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 1.0)) | st.floats(0.0, 1.0),
                      min_size=1, max_size=40),
       alphas=st.lists(st.sampled_from((0.3, 0.5, 0.7, 1.0, 1.2, 2.0)), min_size=1, max_size=6),
       form=st.sampled_from(MiForm),
       channel=st.sampled_from((BinaryChannel(0.9, 0.1), BinaryChannel(0.7, 0.1), BinaryChannel(0.5, 0.0))))
def test_alpha_column_rows_equal_scalar_alpha_calls(probs, alphas, form, channel):
    # numpy squares or roots for a 0-d exponent of 2.0 or 0.5 and calls power
    # for an array of exponents; each row must still have the scalar call's bits
    p = np.array(probs)
    rows = mi_behavioral(p, channel, np.array(alphas)[:, None], form)
    assert rows.shape == (len(alphas), p.size)
    for row, a in zip(rows, alphas):
        assert np.array_equal(row, mi_behavioral(p, channel, a, form))


class TestDeltaMi:
    def test_zero_at_alpha_one(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p, lam, gam = rng.uniform(0.01, 0.99, 3)
            assert abs(delta_mi(float(p), float(lam), float(gam), 1.0).total) < 1e-12

    def test_example_gain(self):
        assert delta_mi(0.2, 0.9, 0.1, 0.5).total == pytest.approx(0.11146, abs=1e-5)

    def test_fixed_point_cancellation(self):
        # H(0.9) = H(0.1) and w(0.5) = 0.5 cancel both terms exactly
        assert abs(delta_mi(0.5, 0.9, 0.1, 0.5).total) < 1e-12

    def test_split_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p, lam, gam, alpha = rng.uniform(0.02, 0.98, 4)
            t = delta_mi(float(p), float(lam), float(gam), float(alpha) + 0.05)
            assert t.total == pytest.approx(t.weighted_term + t.delta_h_obs, abs=1e-12)

    def test_continuity_in_alpha(self):
        # variation over a dense grid stays bounded by a Lipschitz-style check
        alphas = np.linspace(0.05, 5.0, 2000)
        vals = delta_mi(0.3, 0.85, 0.15, alphas).total
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.01

    def test_grid_broadcasting(self):
        t = delta_mi(np.array([0.2, 0.5]), 0.9, 0.1, np.array([[0.5], [1.0]]))
        assert np.shape(t.total) == (2, 2)
        assert t.total[1] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert np.allclose(t.total, t.weighted_term + t.delta_h_obs, rtol=0.0, atol=1e-12)


class TestFindInformativeAlpha:
    def test_identity_membership_guarantees_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.55, 0.99))
            gam = float(rng.uniform(0.01, 0.45))
            res = find_informative_alpha(p, BinaryChannel(lam, gam), [0.5, 1.0, 2.0])
            assert isinstance(res, AlphaSearchResult)
            assert res.informative
            assert res.delta_i >= 0.0

    def test_low_alpha_wins_for_small_prior(self):
        res = find_informative_alpha(0.2, BinaryChannel(0.9, 0.1), [0.25, 0.5, 1.0, 2.0])
        assert res.alpha < 1.0
        assert res.delta_i > 0.0

    def test_existence_on_wide_grid(self):
        grid = np.arange(0.1, 5.0001, 0.05)
        res = find_informative_alpha(0.95, BinaryChannel(0.7, 0.3), grid)
        assert res.informative

    def test_errors(self):
        ch = BinaryChannel(0.9, 0.1)
        with pytest.raises(ParameterError):
            find_informative_alpha(0.5, ch, [])
        with pytest.raises(ParameterError):
            find_informative_alpha(0.5, BinaryChannel(0.1, 0.9), [1.0])
        with pytest.raises(ParameterError):
            find_informative_alpha(0.0, ch, [1.0])


_BAD_PROBS = [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
              (-1e-300, "must be in [0, 1]"), (1.0000000000000002, "must be in [0, 1]")]


@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("bad, problem", _BAD_PROBS)
def test_bad_probabilities_rejected_with_their_message(bad, problem, shape):
    value = bad if shape == "scalar" else np.array([0.5, 0.0, bad, 1.0])
    with pytest.raises(ParameterError) as exc:
        binary_entropy(value)
    assert str(exc.value) == f"p {problem}"
    with pytest.raises(ParameterError) as exc:
        mi_behavioral(value, BinaryChannel(0.7, 0.1), 0.8)
    assert str(exc.value) == f"prior {problem}"
    probs = np.array([0.5, 0.0, bad, 1.0])
    with pytest.raises(ParameterError) as exc:
        BeliefMap(GridDims(2, 2), probs)
    assert str(exc.value) == "belief probabilities must lie in [0, 1]"
