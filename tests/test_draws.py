"""draws.py against numpy, stage by stage, and run_trial's draw blocks
against the per-deployment seed_stream generators they stand for."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from bapp import draws, sim
from bapp.belief import GridDims
from bapp.coordination import RelocationPolicy
from bapp.planner import random_walk
from bapp.sim import AgentSpec, seed_stream
from bapp.strategies import StrategyKind, TriggerPolicy
from test_planner import _rng_next_output_zero, reference_random_walk, words_of
from test_sim import small_config, uniforms_of

PINNED_SEED = 20240501
WIDE_SEEDS = (2 ** 40, 2 ** 64 + 3)


def _assert_matches_numpy(entropy: np.ndarray, horizon: int) -> None:
    """Every stage of the kernel equals numpy's for each row of entropy words."""
    pool = draws.pools(entropy)
    state = draws.state_words(pool)
    pcg = draws.pcg64_states(state)
    out = draws.outputs(entropy, horizon)
    doubles, words = draws.uniforms(out), draws.words(out)
    assert words.shape == (len(entropy), 2 * horizon)
    for row in range(len(entropy)):
        seq = np.random.SeedSequence(entropy[row])
        assert pool[row].tolist() == seq.pool.tolist()
        assert state[row].tolist() == seq.generate_state(4, np.uint64).tolist()
        rng = np.random.default_rng(seq)
        assert rng.bit_generator.state["state"] == {
            "state": int(pcg[0][row]) << 64 | int(pcg[1][row]),
            "inc": int(pcg[2][row]) << 64 | int(pcg[3][row])}
        assert doubles[row].tolist() == rng.random(horizon).tolist()
        rng = np.random.default_rng(np.random.SeedSequence(entropy[row]))
        assert words[row].tolist() == rng.integers(
            0, 0xFFFFFFFF, size=2 * horizon, dtype=np.uint32, endpoint=True).tolist()


@pytest.mark.parametrize("n_words", range(1, 8))
def test_random_keys_match_numpy(n_words):
    rng = np.random.default_rng(n_words)
    entropy = rng.integers(0, 2 ** 32, size=(60, n_words), dtype=np.uint64).astype(np.uint32)
    _assert_matches_numpy(entropy, 15)


@pytest.mark.parametrize("word", [0, 2 ** 32 - 1])
def test_extreme_words_match_numpy(word):
    for n_words in range(1, 8):
        entropy = np.full((n_words + 1, n_words), word, dtype=np.uint32)
        entropy[np.arange(1, n_words + 1), np.arange(n_words)] = 2 ** 32 - 1 - word
        _assert_matches_numpy(entropy, 7)


@pytest.mark.parametrize("horizon", [1, 2, 35])
def test_output_counts_match_numpy(horizon):
    entropy = np.array([draws.key_words(PINNED_SEED, 3, 2, d, s) for d in (1, 2) for s in (0, 9)],
                       dtype=np.uint32)
    _assert_matches_numpy(entropy, horizon)


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_wide_master_seeds_match_numpy(seed):
    keys = [draws.key_words(seed, trial, tag, d, s)
            for trial in (0, 5) for tag in (2, 3) for d in (1, 60) for s in (0, 14)]
    _assert_matches_numpy(np.array(keys, dtype=np.uint32), 15)
    # and the words are the ones SeedSequence makes of the ints
    for key in ((seed, 0, 2, 1, 0), (seed, 2 ** 32, 3)):
        want = np.random.SeedSequence(list(key)).pool
        assert draws.pools(np.array([draws.key_words(*key)], dtype=np.uint32))[0].tolist() == want.tolist()


def test_key_words_are_little_endian_chunks():
    assert draws.key_words(0, 1, 2 ** 32 - 1) == [0, 1, 2 ** 32 - 1]
    assert draws.key_words(2 ** 32) == [0, 1]
    assert draws.key_words(2 ** 40) == [0, 2 ** 8]
    assert draws.key_words(2 ** 64 + 3) == [3, 0, 1]
    with pytest.raises(ValueError, match="expected non-negative integer"):
        draws.key_words(5, -1)


def _reference_round(config, trial, d):
    """Round d's failure uniforms and walk words from per-deployment seed_stream generators."""
    seed, horizon = config.master_seed, config.horizon
    failures = [seed_stream(seed, trial, sim._TAG_FAILURE, d, s).random(horizon).tolist()
                for s in range(config.team_size)]
    walks = [seed_stream(seed, trial, sim._TAG_WALK, d, s).integers(
        0, 0xFFFFFFFF, size=2 * horizon, dtype=np.uint32, endpoint=True).tolist()
        for s in range(config.team_size)]
    return failures, walks


@pytest.mark.parametrize("seed", [PINNED_SEED, *WIDE_SEEDS])
@pytest.mark.parametrize("strategy", [StrategyKind.RANDOM, StrategyKind.BAPP_TID])
def test_round_draws_on_both_sides_of_a_block_boundary(monkeypatch, seed, strategy):
    # a block of 14 streams holds 2 rounds of 3 sectors with a failure and a
    # walk stream each, or 4 rounds of failure streams alone
    monkeypatch.setattr(sim, "_BLOCK_STREAMS", 14)
    blocks = []
    outputs = draws.outputs

    def spy(entropy, k):
        blocks.append(len(entropy))
        return outputs(entropy, k)

    monkeypatch.setattr(draws, "outputs", spy)
    config = small_config(team_size=3, deployment_budget=7, strategy=strategy, master_seed=seed)
    walking = strategy is StrategyKind.RANDOM
    per_block = 2 if walking else 4
    rounds = sim._round_draws(config, 4)
    for d in range(1, 8):
        failures, walks = next(rounds)
        want_failures, want_walks = _reference_round(config, 4, d)
        assert failures == want_failures
        assert walks == (want_walks if walking else None)
        # a block is computed when its first round is asked for
        assert len(blocks) == (d - 1) // per_block + 1
    assert blocks == ([12, 12, 12, 6] if walking else [12, 9])
    assert next(rounds, None) is None


def test_a_block_holds_one_round_at_least(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_STREAMS", 1)
    config = small_config(team_size=3, deployment_budget=3, strategy=StrategyKind.RANDOM)
    for d, (failures, walks) in enumerate(sim._round_draws(config, 0), start=1):
        assert (failures, walks) == _reference_round(config, 0, d)


@pytest.mark.parametrize("in_block", [0, 1, 2, 3, 7])
def test_walk_rejecting_past_its_block_continues_the_stream(monkeypatch, in_block):
    # the rigged stream's first output is 0, and its two words are rejected
    # by k = 3 ((2**32 - 3) % 3 == 1): the walk reads 8 words, past its block
    monkeypatch.setattr(sim, "seed_stream", lambda *key: _rng_next_output_zero(5))
    block = _rng_next_output_zero(5).integers(
        0, 0xFFFFFFFF, size=in_block, dtype=np.uint32, endpoint=True).tolist()
    dims = GridDims(1, 3)
    walk = random_walk(1, 6, dims, None, sim._walk_words(block, 7, 0, 1, 0))
    assert walk == reference_random_walk(1, 6, dims, None, _rng_next_output_zero(5))


@pytest.mark.parametrize("in_block", [0, 5, 6, 9])
def test_walk_past_its_block_reads_the_seed_stream(in_block):
    key = (PINNED_SEED, 2, 4, 1)
    block = seed_stream(key[0], key[1], sim._TAG_WALK, key[2], key[3]).integers(
        0, 0xFFFFFFFF, size=in_block, dtype=np.uint32, endpoint=True).tolist()
    dims = GridDims(20, 20)
    walk = random_walk(210, 15, dims, None, sim._walk_words(block, *key))
    ref = reference_random_walk(210, 15, dims, None, seed_stream(key[0], key[1], sim._TAG_WALK, *key[2:]))
    assert walk == ref


def _configs(seed):
    """A relocating 3-robot team under each strategy."""
    base = small_config(team_size=3, deployment_budget=9, master_seed=seed, relocate=True,
                        disposable=AgentSpec(0.05, 40), high_fidelity=AgentSpec(0.01, 3),
                        relocation=RelocationPolicy(explore_radius=3.0, search_radius=2.0),
                        trigger=TriggerPolicy(phase_switch=3))
    return [replace(base, strategy=kind) for kind in StrategyKind]


def _per_deployment_draws(config, trial):
    """run_trial's round draws built per deployment with seed_stream, read
    one uniform and one word at a time."""
    seed, n = config.master_seed, config.team_size
    for d in itertools.count(1):
        failures = [uniforms_of(seed_stream(seed, trial, sim._TAG_FAILURE, d, s)) for s in range(n)]
        walks = ([words_of(seed_stream(seed, trial, sim._TAG_WALK, d, s)) for s in range(n)]
                 if config.strategy is StrategyKind.RANDOM else None)
        yield failures, walks


@pytest.mark.parametrize("seed", [PINNED_SEED, WIDE_SEEDS[1]])
def test_trials_match_per_deployment_seed_streams(monkeypatch, seed):
    monkeypatch.setattr(sim, "_BLOCK_STREAMS", 7)
    for config in _configs(seed):
        for trial in range(2):
            got = sim.run_trial(config, trial)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "_round_draws", _per_deployment_draws)
                patch.setattr(sim, "_walk_words", lambda words, *key: words)
                want = sim.run_trial(config, trial)
            assert got.records == want.records
            assert got.rounds_executed == 9
            assert got.entropy_series == want.entropy_series


def test_run_trial_builds_one_seed_sequence(monkeypatch):
    built = []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    def count_sequence(*args, **kwargs):
        built.append("SeedSequence")
        return seed_sequence(*args, **kwargs)

    def count_generator(*args, **kwargs):
        built.append("Generator")
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", count_sequence)
    monkeypatch.setattr(np.random, "default_rng", count_generator)
    for config in _configs(PINNED_SEED):
        built.clear()
        metrics = sim.run_trial(config, 1)
        assert len(metrics.records) == 27
        # the world's stream, and no deployment's
        assert built == ["SeedSequence", "Generator"]


def test_uniforms_are_exact_multiples_of_two_to_the_minus_53():
    out = np.array([[0, 2 ** 11 - 1, 2 ** 11, 2 ** 64 - 1]], dtype=np.uint64)
    assert draws.uniforms(out).tolist() == [[0.0, 0.0, 2.0 ** -53, 1.0 - 2.0 ** -53]]
