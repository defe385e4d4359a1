"""Seed streams in bulk: the draws of many seed_stream generators at once.

For a block of keys, each a row of uint32 entropy words, this computes what
np.random.default_rng(np.random.SeedSequence(words)) would draw first, in
uint32 and uint64 arrays over all keys together: SeedSequence's pool and
generate_state(4, np.uint64) (numpy's SeedSequence algorithm), PCG64's
seeding and its first k XSL-RR outputs (O'Neill 2014), and from those the
doubles of Generator.random and the uint32 words of Generator.integers over
the full 32-bit range. NumPy's stream-compatibility policy (NEP 19) fixes
both algorithms; the tests pin every stage against numpy.

All arithmetic is on arrays, which wrap silently, never on numpy scalars,
which warn on overflow.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_SHIFT16 = np.uint32(16)

# PCG64's 128-bit LCG multiplier, and its high and low words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2 ** 64 - 1))
_U32 = np.uint64(_MASK32)
_S1, _S11, _S32, _S58, _S63, _S64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))


def key_words(*key: int) -> list[int]:
    """The entropy words SeedSequence makes of a key of non-negative ints:
    each int's 32-bit chunks, least significant first, one word for 0."""
    words = []
    for value in map(operator.index, key):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constant of each of `calls` successive hashes,
    as (calls, 1) uint32 columns: SeedSequence's hash constant starts at
    `init` and is multiplied by `mult` before each hash multiplies by it."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _SHIFT16)


def pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).pool of each row of a (keys, words) uint32 array, as (keys, 4)."""
    entropy = np.asarray(entropy, dtype=np.uint32).T
    n_words = len(entropy)
    if n_words < _POOL:  # a short key hashes zeros into the rest of the pool
        entropy = np.concatenate([entropy, np.zeros((_POOL - n_words, entropy.shape[1]), np.uint32)])
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, n_words - _POOL))
    mixer = _hash(entropy[:_POOL], xor[:_POOL], mult[:_POOL])
    at = _POOL
    # every pool word is mixed into every other one; the source word does not
    # change while it is, so its hashes into the other three are one step
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        span = slice(at, at + _POOL - 1)
        mixer[dst] = _mix(mixer[dst], _hash(mixer[src], xor[span], mult[span]))
        at += _POOL - 1
    # then each entropy word past the pool's size into every pool word
    for src in range(_POOL, n_words):
        span = slice(at, at + _POOL)
        mixer = _mix(mixer, _hash(entropy[src], xor[span], mult[span]))
        at += _POOL
    return mixer.T


def state_words(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of each row of pools(), as (keys, 4) uint64."""
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    words = _hash(pool.T[list(range(_POOL)) * 2], xor, mult).astype(np.uint64)
    return (words[0::2] | (words[1::2] << _S32)).T


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & _U32, a >> _S32, b & _U32, b >> _S32
    low, cross, cross2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _S32) + (cross & _U32) + (cross2 & _U32)
    return (a1 * b1 + (cross >> _S32) + (cross2 >> _S32) + (mid >> _S32),
            (mid << _S32) | (low & _U32))


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 of 128-bit numbers held as high and low uint64 words."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_lo * b_hi + a_hi * b_lo, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def pcg64_states(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64(SeedSequence) state and increment of each row of state_words(),
    as high and low uint64 words: (state_hi, state_lo, inc_hi, inc_lo).

    The words are the initial state's and sequence's high and low halves;
    inc = (initseq << 1) | 1 and state = ((inc + initstate) * MULT + inc),
    mod 2**128.
    """
    s0, s1, s2, s3 = words.T
    inc_hi, inc_lo = (s2 << _S1) | (s3 >> _S63), (s3 << _S1) | _S1
    state = _add128(inc_hi, inc_lo, s0, s1)
    state = _mul128(*state, _MULT_HI, _MULT_LO)
    return (*_add128(*state, inc_hi, inc_lo), inc_hi, inc_lo)


@functools.lru_cache(maxsize=8)
def _jumps(k: int) -> tuple[np.ndarray, ...]:
    """MULT**j and 1 + MULT + ... + MULT**(j-1), mod 2**128, for j = 1..k, as
    high and low uint64 rows: the LCG's state j steps on is
    MULT**j * state + (1 + ... + MULT**(j-1)) * inc."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(k):
        power, total = power * _PCG_MULT % 2 ** 128, (total + power) % 2 ** 128
        powers.append(power)
        sums.append(total)
    rows = [[v >> 64 for v in powers], [v & (2 ** 64 - 1) for v in powers],
            [v >> 64 for v in sums], [v & (2 ** 64 - 1) for v in sums]]
    return tuple(np.array(row, dtype=np.uint64) for row in rows)


def pcg64_outputs(state_hi, state_lo, inc_hi, inc_lo, k: int) -> np.ndarray:
    """The first k 64-bit outputs of each PCG64 state, as (keys, k) uint64:
    step the LCG, then XSL-RR, the xor of the state's halves rotated right
    by its top 6 bits."""
    pow_hi, pow_lo, sum_hi, sum_lo = _jumps(k)
    col = np.newaxis
    hi, lo = _add128(*_mul128(state_hi[:, col], state_lo[:, col], pow_hi, pow_lo),
                     *_mul128(inc_hi[:, col], inc_lo[:, col], sum_hi, sum_lo))
    x, rot = hi ^ lo, hi >> _S58
    return (x >> rot) | (x << ((_S64 - rot) & _S63))


def outputs(entropy: np.ndarray, k: int) -> np.ndarray:
    """The first k 64-bit outputs of the PCG64 seeded from each row of
    entropy words through SeedSequence, as (keys, k) uint64."""
    return pcg64_outputs(*pcg64_states(state_words(pools(entropy))), k)


def uniforms(out: np.ndarray) -> np.ndarray:
    """Generator.random's doubles of 64-bit outputs: (x >> 11) * 2**-53."""
    return (out >> _S11) * (1.0 / 9007199254740992.0)


def words(out: np.ndarray) -> np.ndarray:
    """Generator.integers' full-range uint32 words of 64-bit outputs, low half first."""
    return out.astype("<u8", copy=False).view("<u4")
