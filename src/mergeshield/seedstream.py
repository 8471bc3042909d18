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
:meth:`SeedPool.generator` mixes in the spawn key.  SeedSequence steps its
hash constant through a fixed chain that no word changes, so the chains
are worked out ahead: ``generate_state``'s once at import, and the one
that mixes in a one-word spawn key once per pool.  The tests compare every
stream with numpy's.
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


def _hash_chain(hc: int, mult: int, count: int) -> tuple:
    """``hc`` and the ``count`` hash constants SeedSequence steps it through
    by ``mult``: its ``i``-th ``hashmix`` XORs the word with entry ``i`` and
    multiplies by entry ``i + 1``.  The chain depends on no word."""
    chain = [hc]
    for _ in range(count):
        hc = hc * mult & _M32
        chain.append(hc)
    return tuple(chain)


#: the hash constants of ``generate_state``'s eight output words
_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 8)


def _hashmix(value: int, chain: tuple, i: int) -> int:
    """SeedSequence's ``hashmix`` of one word, the ``i``-th of ``chain``."""
    value = (value ^ chain[i]) * chain[i + 1] & _M32
    return value ^ (value >> 16)


def _mix_into(pool: list, dst: int, word: int, chain: tuple, i: int) -> None:
    """Mix one word into pool word ``dst``, hashed as the ``i``-th of ``chain``."""
    mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(word, chain, i)) & _M32
    pool[dst] = mixed ^ (mixed >> 16)


def _absorb(pool: list, chain: tuple, words) -> None:
    """Mix each word into every pool word in place, hashing with ``chain``
    from its start: four entries per word."""
    i = 0
    for word in words:
        for dst in range(_POOL_SIZE):
            _mix_into(pool, dst, word, chain, i)
            i += 1


class SeedPool:
    """The entropy pool of ``SeedSequence(entropy=seed, spawn_key=...)``
    after mixing the seed's words, before any spawn-key word, and the hash
    constants that mix in a one-word key (``key_chain``, which starts at
    the constant the seed's mixing left)."""

    __slots__ = ("pool", "key_chain")

    def __init__(self, seed: int):
        words = _words(seed)
        words += [0] * (_POOL_SIZE - len(words))
        # one hash per word and pool word: P fill the pool, P * (P - 1) mix
        # every pool word into every other, so late words reach early ones,
        # and P mix in each word past the pool
        chain = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * len(words))
        pool = [_hashmix(word, chain, i) for i, word in enumerate(words[:_POOL_SIZE])]
        i = _POOL_SIZE
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    _mix_into(pool, dst, pool[src], chain, i)
                    i += 1
        _absorb(pool, chain[i:], words[_POOL_SIZE:])
        self.pool = tuple(pool)
        self.key_chain = _hash_chain(chain[-1], _MULT_A, _POOL_SIZE)

    def generator(self, *spawn_key: int) -> "Generator":
        """``np.random.default_rng(SeedSequence(entropy=seed,
        spawn_key=spawn_key))``; with no key, ``default_rng(seed)``."""
        words = [w for key in spawn_key for w in _words(key)]
        chain = self.key_chain
        if len(words) > 1:
            chain = _hash_chain(chain[0], _MULT_A, _POOL_SIZE * len(words))
        pool = list(self.pool)
        _absorb(pool, chain, words)
        # generate_state: four 64-bit words, each two 32-bit words little-endian
        w = [_hashmix(pool[i % _POOL_SIZE], _STATE_CHAIN, i) for i in range(8)]
        return Generator((w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32,
                         (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32)


class Generator:
    """numpy's ``Generator(PCG64)`` from the 128-bit seed ``initstate`` and
    stream selector ``initseq``."""

    __slots__ = ("state", "inc", "upper")

    def __init__(self, initstate: int, initseq: int):
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _M128
        #: high half of the last 64-bit draw, kept for the next 32-bit draw
        #: of :meth:`integers`
        self.upper = None

    def next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (state >> 64) ^ (state & _M64)
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next64() >> 11) * (1.0 / 9007199254740992.0))

    def integers(self, n: int, size: int) -> list:
        """``integers(0, n, size=size)`` as a list, for ``1 <= n <= 2**32``."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must lie in [1, 2**32], got {n}")
        if n == 1:
            return [0] * size
        # Lemire: a product whose low word lies below the threshold, which
        # is below n, would bias the result and is redrawn
        threshold = ((1 << 32) - n) % n
        upper = self.upper
        out = []
        for _ in range(size):
            while True:
                # a 32-bit draw: the high half kept from the last 64-bit
                # draw, else the low half of a new one
                if upper is None:
                    draw = self.next64()
                    word, upper = draw & _M32, draw >> 32
                else:
                    word, upper = upper, None
                m = word * n
                if m & _M32 >= threshold:
                    break
            out.append(m >> 32)
        self.upper = upper
        return out
