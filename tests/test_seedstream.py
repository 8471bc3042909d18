"""``seedstream`` draws what numpy draws for the same seed, numpy being
the oracle here and nowhere in the package."""

import numpy as np
import pytest

from mergeshield.seedstream import Generator, SeedPool

#: single-word seeds, multi-word entropy, entropy longer than the 4-word
#: pool, and the benchmark's fingerprint seed
SEEDS = [*range(300), 2**32, 2**40 + 7, 2**128, 2**128 + 2**100 + 99, 2**200 + 1, 4_000_000_000]


def numpy_spawned(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def test_uniform_equals_default_rng():
    for seed in SEEDS:
        ours, theirs = SeedPool(seed).generator(), np.random.default_rng(seed)
        for lo, hi in [(15.0, 25.0), (0.0, 8.0), (0.0, 1.0), (-3.5, 1e9)] * 3:
            assert ours.uniform(lo, hi) == theirs.uniform(lo, hi), seed


@pytest.mark.parametrize("key", [0, 149, 2**32 + 3])
def test_integers_equal_spawned_default_rng(key):
    for seed in SEEDS[::7] + SEEDS[-6:]:
        pool = SeedPool(seed)
        for size in (1, 9, 40, 41):
            assert pool.generator(key).integers(5, size) == (
                numpy_spawned(seed, key).integers(0, 5, size=size).tolist()), (seed, size)


@pytest.mark.parametrize("n", [1, 2, 7, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32])
def test_integers_equal_numpy_across_bounds(n):
    # bounds just past 2^31 reject about half of all draws, so numpy's
    # rejection loop runs here on random draws too
    for seed in range(20):
        ours = SeedPool(seed).generator(3).integers(n, 17)
        assert ours == numpy_spawned(seed, 3).integers(0, n, size=17).tolist()


def test_a_draw_after_integers_continues_numpy_stream():
    # an odd size leaves the upper half of the last 64-bit draw buffered;
    # a bound of 1 draws nothing
    ours, theirs = SeedPool(8).generator(1), numpy_spawned(8, 1)
    for n, size in ((5, 9), (1, 3), (5, 1), (7, 40), (5, 41)):
        assert ours.integers(n, size) == theirs.integers(0, n, size=size).tolist()
        assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)


class Stubbed(Generator):
    """A generator whose 32-bit draws are given, two to each 64-bit draw,
    low half first, as ``integers`` splits a draw."""

    def __init__(self, words):
        super().__init__(0, 0)
        self.words = list(words)

    def next64(self):
        low, high = self.words.pop(0), self.words.pop(0)
        return low | high << 32


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_integers_rejects_a_bound_outside_its_range(n):
    with pytest.raises(ValueError, match=r"n must lie in \[1, 2\*\*32\]"):
        SeedPool(0).generator(0).integers(n, 3)


def test_lemire_rejects_a_leftover_below_the_threshold():
    # for n = 5 the threshold is 2^32 mod 5 = 1: only a draw of 0 leaves a
    # product whose low word (0) lies below it, and it is redrawn; the
    # fourth word stays buffered for the next draw
    stub = Stubbed([0, 2**31, 2**31, 7])
    assert stub.integers(5, 2) == [2, 2]
    assert stub.words == [] and stub.upper == 7


def test_lemire_keeps_a_low_leftover_at_the_threshold():
    # n = 2^31 + 1: threshold (2^32 - n) mod n = 2^31 - 1.  A draw of 1
    # leaves leftover n (not below n, kept); a draw of 2 leaves 2n mod 2^32
    # = 2 (below the threshold, redrawn); 2^32 - 1 leaves 2^31 - 1, kept
    n = 2**31 + 1
    stub = Stubbed([1, 2, 2**32 - 1, 7])
    assert stub.integers(n, 2) == [0, (2**32 - 1) * n >> 32]
    assert stub.words == [] and stub.upper == 7


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_raises_like_numpy(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError):
        SeedPool(seed)
    with pytest.raises(ValueError):
        SeedPool(0).generator(seed)


def test_non_integer_seed_raises_like_numpy():
    with pytest.raises(TypeError):
        np.random.SeedSequence(2.0)
    with pytest.raises(TypeError):
        SeedPool(2.0)
