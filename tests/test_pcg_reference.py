"""A plain-integer reference for the sampler's random draws.

Reading k of quadrature p in a run seeded with s compares the first
double of ``Generator(PCG64(SeedSequence((s, p, k))))`` with the chance
of a +1 reading (``qsim._reading``).  The documented ``numpy-PCG64``
readings rest on that double, so this module rebuilds it from the
published algorithms with Python ints alone and pins ``_reading`` to it
bit for bit.  A numpy upgrade that changed the draws would fail here,
and a vectorised port of the draws has a reference to be checked
against.

- SeedSequence (O'Neill's seed_seq_fe): each entropy int is split into
  little-endian 32-bit words, hashed into a pool of four words and mixed;
  the pool is then hashed out into the eight 32-bit words of PCG64's seed.
- PCG64: a 128-bit LCG seeded as in ``pcg_setseq_128_srandom_r``; each
  output steps the state, then folds it by XSL-RR.
- ``random()``: the top 53 bits of the first output, times 2^-53.
"""

import math
import random

import numpy as np
import pytest

from knit.qsim import _reading

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _words(entropy) -> list[int]:
    """The nonnegative entropy ints as little-endian 32-bit words; 0 is one word."""
    out = []
    for value in entropy:
        out.append(value & MASK32)
        value >>= 32
        while value:
            out.append(value & MASK32)
            value >>= 32
    return out


def _pool(entropy) -> list[int]:
    """The SeedSequence pool of four 32-bit words for ``entropy``."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y & MASK32
        return result ^ result >> 16

    words = _words(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool, count: int) -> list[int]:
    """``generate_state``: ``count`` 32-bit words hashed out of the pool."""
    hash_const = INIT_B
    out = []
    for i in range(count):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        out.append(value ^ value >> 16)
    return out


def first_double(entropy) -> float:
    """The first ``random()`` of PCG64 seeded by ``SeedSequence(entropy)``."""
    w = _state_words(_pool(entropy), 8)
    # four uint64 seed words, each from two little-endian 32-bit halves
    seed = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]
    initstate = seed[0] << 64 | seed[1]
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & MASK128
    state = inc  # one step from 0
    state = (state + initstate) & MASK128
    state = (state * PCG_MULTIPLIER + inc) & MASK128
    # the first output steps once more, then folds the new state
    state = (state * PCG_MULTIPLIER + inc) & MASK128
    rot = state >> 122
    folded = (state >> 64 ^ state) & MASK64
    output = (folded >> rot | folded << (64 - rot)) & MASK64
    return (output >> 11) * 2.0**-53


def _numpy_double(entropy) -> float:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).random()


def _triples(count: int, seed: int):
    """Seeds over every word count from one to three, and the run's own
    small seeds, quadratures and reading numbers."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 0:
            s = rng.randrange(1000)
        else:
            s = rng.randrange(1 << rng.choice((32, 33, 64, 65, 96)))
        yield (s, rng.randrange(2), rng.randrange(1 << rng.choice((4, 16, 24))))


@pytest.mark.parametrize("entropy", [
    (0, 0, 0), (0, 1, 0), (42, 0, 5807), (2**32 - 1, 1, 7),
    (2**32, 0, 0), (2**64 + 3, 1, 2**32), (2**96 - 1, 0, 1),
])
def test_reference_matches_numpy_on_word_boundaries(entropy):
    assert first_double(entropy) == _numpy_double(entropy)


def test_reading_is_the_reference_double_against_the_chance_of_plus_one():
    # a reading is +1 exactly when the draw falls below p_plus, so the
    # two chances either side of the draw pin it bit for bit
    for entropy in _triples(10_000, 2024):
        draw = first_double(entropy)
        assert _reading(draw, entropy) == -1, entropy
        assert _reading(math.nextafter(draw, 1.0), entropy) == 1, entropy
