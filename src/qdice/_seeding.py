"""Seeded generators, built from the words numpy's ``SeedSequence`` assembles.

``seeded_rng(seed, *spawn_key)`` starts in the state of
``default_rng(SeedSequence(entropy=seed, spawn_key=spawn_key))``, bit for
bit, so it draws the same sequence, for less set-up (its seed sequence
holds the words as its entropy, so children spawned from it would differ;
no sampler spawns). It hands ``SeedSequence`` the uint32 words that it
would assemble from the seed and key itself, which skips numpy's coercion
of Python ints. Its ``_WordSequence`` then hashes the mixed pool into
PCG64's seed in Python ints, which skips the ``np.errstate`` wrapper and
the array steps around ``SeedSequence.generate_state``. NumPy's RNG policy
(NEP 19) keeps the assembly and the hash fixed, since together they define
every seeded stream; the tests compare the states with numpy's own.

This module imports numpy, so the samplers load it through ``lazy_import``.
"""
from __future__ import annotations

import operator

import numpy as np

#: Words of ``SeedSequence``'s entropy pool: a seed with a spawn key is
#: padded with zeros to this many words before the key's words follow.
_POOL_WORDS = 4

_MASK32 = 0xFFFFFFFF

#: ``SeedSequence.generate_state``'s hash constants: 32-bit output i is
#: pool word i % 4 xor ``_HASH[i]``, times ``_HASH[i + 1]`` modulo 2**32,
#: with its top half xored into its bottom half.
_HASH = [0x8B51F9DD]
for _ in range(8):
    _HASH.append(_HASH[-1] * 0x58F38DED & _MASK32)


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of ``n`` >= 0, at least one."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _WordSequence(np.random.SeedSequence):
    """A ``SeedSequence`` whose ``generate_state(4, np.uint64)``, the seed
    PCG64 reads, is hashed from the pool in Python ints. Any other request
    goes to numpy's own."""

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            return super().generate_state(n_words, dtype)
        pool = self.pool.tolist() * 2  # the eight 32-bit outputs cycle the pool twice
        state = []
        for i in range(0, 8, 2):  # each uint64 is two outputs, the low one first
            low = (pool[i] ^ _HASH[i]) * _HASH[i + 1] & _MASK32
            high = (pool[i + 1] ^ _HASH[i + 1]) * _HASH[i + 2] & _MASK32
            state.append(low ^ low >> 16 | (high ^ high >> 16) << 32)
        return np.array(state, dtype=np.uint64)


def seeded_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """``default_rng(SeedSequence(entropy=seed, spawn_key=spawn_key))`` for a
    checked seed and key, built from the words that ``SeedSequence``
    assembles from them: the seed's words, then, with a spawn key, zeros up
    to ``_POOL_WORDS`` words and each key's words. Every seeded stream of
    the package is built here."""
    words = _words(operator.index(seed))
    if spawn_key:
        words += [0] * (_POOL_WORDS - len(words))
        for key in spawn_key:
            words += _words(operator.index(key))
    return np.random.Generator(np.random.PCG64(_WordSequence(np.array(words, dtype=np.uint32))))
