"""Spawned PCG64 streams built in array operations, state for state as numpy
spawns them.

numpy.random.SeedSequence (NEP 19, after O'Neill's seed_seq for PCG) hashes
its entropy words, then its spawn-key words, into a pool of four 32-bit
words, and a PCG64 takes its seed from that pool.  A child's key is its
parent's plus one word, so the child's pool is the parent's with that word
mixed in.  :func:`run_streams` (the samplers' per-run streams) and
:func:`spawn_tree` (the channel experiments' per-block streams) continue
from a pool numpy has computed and hash the last key word of every child at
once, in uint32 arrays that wrap mod 2**32 as the reference does.  Their
generators cannot spawn further.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError, check_count

__all__ = ["run_streams", "spawn_tree"]

# The k-th hash of an entropy word XORs in INIT_A * MULT_A**k and multiplies
# by the next constant; mixing a hashed word into a pool word weighs them by
# MIX_MULT_L and MIX_MULT_R; generate_state hashes the pool with the
# INIT_B/MULT_B constants.  All arithmetic is mod 2**32, and every hash ends
# by XORing in the word shifted right by 16.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# Keys from 2**32 on take a second word.
_MAX_KEYS = 2**32


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = first, ..., first + count - 1."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(first, first + count)],
                    dtype=np.uint32)


# generate_state(4, np.uint64) hashes the pool twice over, as eight 32-bit
# words: word 4a + b comes from pool word b.
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL + 1)
_STATE_XOR = _STATE_CONSTS[:-1].reshape(2, _POOL)
_STATE_MULT = _STATE_CONSTS[1:].reshape(2, _POOL)


class _PresetState(ISeedSequence):
    """Hands a PCG64 the four uint64 seed words its SeedSequence would
    generate.  It cannot spawn, so neither can the generator built on it."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds only the four uint64 words that seed a PCG64")
        return self._words


def _words(x) -> int:
    """Length of numpy's uint32 form of an entropy or a spawn key: 32-bit
    words of each integer, least significant first, one word for 0."""
    if isinstance(x, numbers.Integral):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_words(v) for v in x)


def _child_seeds(seq: np.random.SeedSequence, pools: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """PCG64 seed words, one (4,) uint64 row per entry of ``pools`` (..., 4)
    broadcast against the uint32 ``keys`` (...): the pool of a SeedSequence
    shaped like ``seq`` with the one-word key appended.

    ``seq`` hashed its entropy, zero-padded to the pool's four words, and
    then its spawn key: one hash per pool word, one per ordered pair of pool
    words and four per word beyond the fourth, so four per padded word.  The
    appended word takes the next four hashes.
    """
    first = _POOL * (max(_POOL, _words(seq.entropy)) + _words(seq.spawn_key))
    consts = _hash_constants(_INIT_A, _MULT_A, first, _POOL + 1)
    h = (keys[..., None] ^ consts[:-1]) * consts[1:]
    pool = _MIX_MULT_L * pools - _MIX_MULT_R * (h ^ h >> _SHIFT)
    pool ^= pool >> _SHIFT
    state = (pool[..., None, :] ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> _SHIFT
    # Word pairs join little-endian, as numpy joins them.
    return (state.reshape(-1, 2 * _POOL).astype("<u4", copy=False)
            .view("<u8").astype(np.uint64, copy=False))


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_PresetState(words)))


def run_streams(seed: int, runs: int, start: int = 0) -> list[np.random.Generator]:
    """The generators ``np.random.default_rng(seed).spawn(start + runs)[start:]``,
    with the same PCG64 states, in about a seventh of numpy's time per child.

    Child i of SeedSequence(seed) is the parent, whose pool numpy computes
    once, with its spawn key i hashed in as one last word; keys stop below
    2**32, where numpy's take a second word.
    """
    seed = check_count("seed", seed, 0, math.inf)
    runs = check_count("runs", runs, 0, _MAX_KEYS)
    start = check_count("start", start, 0, _MAX_KEYS)
    if start + runs > _MAX_KEYS:
        raise ParameterError(f"start + runs must be at most 2**32, got {start} + {runs}")
    parent = np.random.SeedSequence(seed)
    seeds = _child_seeds(parent, parent.pool,
                         np.arange(start, start + runs, dtype=np.uint32))
    return [_generator(row) for row in seeds]


def spawn_tree(rng: np.random.Generator, children: int, grandchildren: int):
    """The generators ``[c.spawn(grandchildren) for c in rng.spawn(children)]``,
    as an iterator of tuples with the same PCG64 states, made as they are
    consumed.

    rng spawns its children's SeedSequences at once, so its spawn counter
    advances as ``rng.spawn`` advances it; the grandchildren are then hashed
    from the children's pools in a few array operations.  Any generator but
    a plain ``Generator(PCG64)`` on a four-word SeedSequence, and any count
    that would take a child key to 2**32, goes through numpy's own spawn.
    """
    seq = rng.bit_generator.seed_seq
    if (type(rng) is not np.random.Generator or type(rng.bit_generator) is not np.random.PCG64
            or type(seq) is not np.random.SeedSequence or seq.pool_size != _POOL
            or seq.n_children_spawned + children > _MAX_KEYS or not children):
        return (tuple(child.spawn(grandchildren)) for child in rng.spawn(children))
    kids = seq.spawn(children)
    pools = np.array([kid.pool for kid in kids])[:, None, :]
    seeds = _child_seeds(kids[0], pools, np.arange(grandchildren, dtype=np.uint32)).reshape(
        children, grandchildren, _POOL)
    return (tuple(_generator(row) for row in block) for block in seeds)
