"""Keyed random substreams.

Every random decision in this package is drawn from a stream derived from a
master seed plus a structural key (for example the prefix whose edge is being
estimated, or a trial index).  Streams with the same (seed, key) are
identical no matter when or in which order they are created, which makes
randomized procedures order-invariant and lets two implementations be
coupled bit-for-bit.

A group of streams that differ only in their last key part is seeded in one
pass by substreams: the blake2b state over (master seed, *key) is hashed
once and copied per part, each part's digest, byte-reversed (substream's
child seed, little-endian), goes straight into one entropy block, and
numpy's SeedSequence algorithm (hashmix/mix over a pool of four uint32
words, then generate_state(4, uint64)) runs once over it in uint32 array
arithmetic.  The group keeps those words and each stream's (lane's) count
of doubles drawn, and no Generator: its one draw fills the next rows of
many lanes in one call, building each lane's PCG64 from one reused
seed-word carrier, advancing it past the doubles drawn (one step each) and
writing straight into the lane's slice, so one generator is alive at a time
and a lane read in several blocks gives the doubles of one whole draw.
Generators built up front would keep enough GC-tracked objects alive to
start the cyclic collector, whose full sweeps cost about 10 ms each on a
2-vCPU VM.  tests/test_streams.py pins the words to SeedSequence and every
lane to substream's draws.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RandomStream = np.random.Generator

_SEP = b"\x1f"


def _key_hash(master_seed: int, key):
    h = hashlib.blake2b(digest_size=16)
    h.update(str(master_seed).encode("ascii"))
    for part in key:
        h.update(_SEP)
        h.update(str(part).encode("utf-8"))
    return h


def child_seed(master_seed: int, *key) -> int:
    """Map (master_seed, key parts) to a 128-bit child seed.

    Key parts are stringified and joined; use plain tags (words, prefix
    bit-strings, integers) so distinct keys stay distinct.
    """
    return int.from_bytes(_key_hash(master_seed, key).digest(), "big")


def substream(master_seed: int, *key) -> RandomStream:
    """A generator that is a pure function of (master_seed, key)."""
    return np.random.default_rng(child_seed(master_seed, *key))


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    # SeedSequence's hash constant starts at init and is multiplied by mult
    # (mod 2^32) at every hashmix call, so call i xors with entry i and
    # multiplies by entry i + 1
    return [init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(calls + 1)]


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)   # 4 fill calls, then 12 cross-mix calls
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)   # generate_state's 8 uint32 words
# One (8, 1) column per step: the pool is kept twice over, so its last hash
# yields generate_state's 8 words (which cycle through the pool) at once.  In
# cross-mix round s, pool word d != s takes hash call 4 + 3s + d - (d > s);
# word s is not mixed and gets a dummy 0.  Every step is repeated to the full
# group width per call, because broadcasting costs more than the arithmetic.
_STEPS = np.array([
    _POOL_HASH[0:4] * 2, _POOL_HASH[1:5] * 2,
    *([_POOL_HASH[4 + 3 * s + d - (d > s) + o] if d != s else 0 for d in range(4)] * 2
      for s in range(4) for o in (0, 1)),
    _STATE_HASH[0:8], _STATE_HASH[1:9],
    [0xCA01F9DD] * 8, [0x4973F715] * 8, [16] * 8,
], dtype=np.uint32)[:, :, None]


def _entropy_words(entropy: bytes) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of each seed s in entropy, as one (k, 4) array.

    entropy holds each seed 0 <= s < 2^128 as its 16-byte little-endian form, written twice.
    """
    # row r of the entropy is uint32 word r % 4 of every seed, least significant first
    entropy = np.frombuffer(entropy, dtype="<u4").reshape(-1, 8).T
    fill_x, fill_m, *cross, state_x, state_m, mix_l, mix_r, shift = np.repeat(_STEPS, entropy.shape[1], axis=2)

    def hashmix(value, xor, mul):
        value = (value ^ xor) * mul
        return value ^ (value >> shift)

    pool = hashmix(entropy, fill_x, fill_m)
    for s in range(4):
        # mix(x, y) = r ^ (r >> 16) with r = L * x - R * y, for every pool word but s
        mixed = mix_l * pool - mix_r * hashmix(pool[s], cross[2 * s], cross[2 * s + 1])
        mixed ^= mixed >> shift
        mixed[s::4] = pool[s::4]
        pool = mixed
    # uint32 words 2i and 2i + 1 form uint64 word i, little-endian as in SeedSequence
    state = hashmix(pool, state_x, state_m)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """The PCG64 seed words (its words attribute) of one stream at a time, computed ahead by _entropy_words."""

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words   # PCG64 asks for generate_state(4, np.uint64) once, when built


class _StreamGroup:
    """The streams substream(master_seed, *key, part) of a group of parts, one lane per part.

    Holds each lane's seed words and the number of doubles it has drawn, and
    builds a lane's generator only for the draw that reads it.
    """

    def __init__(self, words: np.ndarray):
        self._words = words
        self._drawn = [0] * len(words)

    def __len__(self) -> int:
        return len(self._words)

    def draw(self, rows: int, cols, lanes=None) -> np.ndarray:
        """The next Generator.random((rows, cols)) doubles of each lane of lanes (all, in order, if None).

        With cols an int, lanes[i]'s are rows i * rows to (i + 1) * rows of one
        block; with one width per lane, the lanes' blocks follow each other, flat.
        """
        lanes = range(len(self)) if lanes is None else lanes
        sizes = (rows * np.asarray(cols)).tolist() if np.ndim(cols) else [rows * cols] * len(lanes)
        out = np.empty(sum(sizes))
        carrier, end = _SeedWords(), 0
        for lane, size in zip(lanes, sizes):
            if size:
                carrier.words = self._words[lane]
                bits = np.random.PCG64(carrier)
                drawn = self._drawn[lane]
                if drawn:
                    bits.advance(drawn)
                np.random.Generator(bits).random(out=out[end:end + size])
                self._drawn[lane] = drawn + size
                end += size
        return out if np.ndim(cols) else out.reshape(len(sizes) * rows, cols)


def substreams(master_seed: int, *key, parts: Sequence) -> _StreamGroup:
    """substream(master_seed, *key, part) for each part, as the lanes of one group seeded in one pass."""
    h = _key_hash(master_seed, key)
    h.update(_SEP)
    digests = []
    for part in parts:
        lane = h.copy()
        lane.update(str(part).encode("utf-8"))
        digests.append(lane.digest()[::-1] * 2)   # the big-endian child seed as little-endian entropy
    return _StreamGroup(_entropy_words(b"".join(digests)))
