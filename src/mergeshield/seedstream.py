"""numpy's seeded random streams in plain integer arithmetic.

The simulator draws from two numpy streams: ``np.random.default_rng(seed)``
for spawning and ``default_rng(SeedSequence(entropy=seed,
spawn_key=(k,)))`` for the random policy's step ``k``.  Both are fully
specified integer algorithms, reproduced here bit for bit, so the package
runs without numpy:

* ``SeedSequence`` splits the entropy into little-endian 32-bit words,
  hash-mixes them into a pool of four words and hashes the pool out into
  the generator's seed (``mix_entropy`` and ``generate_state`` in numpy's
  ``bit_generator.pyx``).  With a spawn key, the seed's words are padded
  with zeros to the pool size before the key's words follow; without one
  the padding changes nothing, as a missing word hashes like a zero word.
* PCG64 is O'Neill's 128-bit LCG with the XSL-RR 128/64 output (2014),
  seeded as ``pcg_setseq_128_srandom_r``; a 32-bit draw is the low half of
  a 64-bit draw, and the high half is kept for the next 32-bit draw.
* ``uniform(lo, hi)`` is ``lo + (hi - lo) * d`` with ``d`` the top 53 bits
  of a 64-bit draw over 2^53; ``integers(0, n, size)`` draws each value
  with Lemire's multiply-and-reject method on 32-bit draws ("Fast Random
  Integer Generation in an Interval", ACM TOMACS 2019).

The seed-only part of the pool mixing is done once by :class:`SeedPool`;
:meth:`SeedPool.generator` mixes in the spawn key.  The tests compare
every stream with numpy's.
"""

from __future__ import annotations

import operator

__all__ = ["SeedPool", "Generator"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value) -> list:
    """The 32-bit words of a non-negative int, least significant first;
    ``[0]`` for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hashmix(value: int, hc: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's ``hashmix`` (with ``_MULT_B``, a ``generate_state``
    word): the hashed word and the next hash constant."""
    value ^= hc
    hc = hc * mult & _M32
    value = value * hc & _M32
    return value ^ (value >> 16), hc


def _mix_into(pool: list, dst: int, word: int, hc: int) -> int:
    """Mix one word into pool word ``dst``; the next hash constant."""
    value, hc = _hashmix(word, hc)
    mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _M32
    pool[dst] = mixed ^ (mixed >> 16)
    return hc


def _absorb(pool: list, hc: int, words) -> int:
    """Mix each word into every pool word in place; the next hash constant."""
    for word in words:
        for dst in range(_POOL_SIZE):
            hc = _mix_into(pool, dst, word, hc)
    return hc


class SeedPool:
    """The entropy pool of ``SeedSequence(entropy=seed, spawn_key=...)``
    after mixing the seed's words, before any spawn-key word."""

    __slots__ = ("pool", "hash_const")

    def __init__(self, seed: int):
        words = _words(seed)
        words += [0] * (_POOL_SIZE - len(words))
        hc = _INIT_A
        pool = []
        for word in words[:_POOL_SIZE]:
            value, hc = _hashmix(word, hc)
            pool.append(value)
        # every word mixes into every other, so late words reach early ones
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hc = _mix_into(pool, dst, pool[src], hc)
        self.hash_const = _absorb(pool, hc, words[_POOL_SIZE:])
        self.pool = tuple(pool)

    def generator(self, *spawn_key: int) -> "Generator":
        """``np.random.default_rng(SeedSequence(entropy=seed,
        spawn_key=spawn_key))``; with no key, ``default_rng(seed)``."""
        pool = list(self.pool)
        _absorb(pool, self.hash_const, [w for key in spawn_key for w in _words(key)])
        state, hc = [], _INIT_B
        for i in range(8):
            value, hc = _hashmix(pool[i % _POOL_SIZE], hc, _MULT_B)
            state.append(value)
        # four 64-bit words, each two 32-bit words little-endian
        s0, s1, s2, s3 = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))
        return Generator(s0 << 64 | s1, s2 << 64 | s3)


class Generator:
    """numpy's ``Generator(PCG64)`` from the 128-bit seed ``initstate`` and
    stream selector ``initseq``."""

    __slots__ = ("state", "inc", "upper")

    def __init__(self, initstate: int, initseq: int):
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _M128
        #: high half of the last 64-bit draw, kept for the next 32-bit draw
        self.upper = None

    def next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (state >> 64) ^ (state & _M64)
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def next32(self) -> int:
        if self.upper is not None:
            word, self.upper = self.upper, None
            return word
        draw = self.next64()
        self.upper = draw >> 32
        return draw & _M32

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next64() >> 11) * (1.0 / 9007199254740992.0))

    def integers(self, n: int, size: int) -> list:
        """``integers(0, n, size=size)`` as a list, for ``1 <= n <= 2**32``."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must lie in [1, 2**32], got {n}")
        if n == 1:
            return [0] * size
        out = []
        for _ in range(size):
            m = self.next32() * n
            if m & _M32 < n:
                # reject the low products that would bias the result
                threshold = ((1 << 32) - n) % n
                while m & _M32 < threshold:
                    m = self.next32() * n
            out.append(m >> 32)
        return out
