"""The random numbers and sums a run takes, in pure Python, bit for bit as
numpy computes them.

`default_rng(seed)` seeds a PCG64 generator the way numpy's
`np.random.default_rng(seed)` does (a SeedSequence pool of four 32-bit
words, then the 128-bit LCG seeded from four 64-bit words of state), and
its `random()` returns the same doubles in the same order. `choice` and
`choice_distinct` sample indices from a probability vector as numpy's
`Generator.choice(n, p=p)` and `Generator.choice(n, size, replace=False,
p=p)` do; they take any rng with a `random()` method, numpy's included.
`fsum_pairwise` and `mean` add float64 values in numpy's pairwise order, so
a normalized table or an averaged row comes out as numpy computes it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import accumulate, cycle, islice
from operator import add
from typing import Protocol, Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's pairwise summation: a plain loop under 8 terms, eight
# accumulators up to this many, split in halves above it
_PW_BLOCKSIZE = 128


class Random(Protocol):
    """What sampling needs of an rng: a uniform double in [0, 1)."""

    def random(self) -> float: ...


def _seed_words(seed: int) -> list[int]:
    """The seed's 32-bit words, least significant first; [0] for 0."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _seed_state(seed: int, n_words: int) -> list[int]:
    """SeedSequence(seed).generate_state(n_words, np.uint32)."""
    entropy = _seed_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for value in islice(cycle(pool), n_words):
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    return out


class Generator:
    """numpy's PCG64 generator, as `np.random.default_rng(seed)` builds it;
    only `random()` is provided."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError("seed must be an int, not %r" % (seed,))
        if seed < 0:
            raise ValueError("seed must be non-negative, got %d" % seed)
        w = _seed_state(seed, 8)
        # four little-endian uint64 words: the initial state, then the stream
        words = [w[k] | (w[k + 1] << 32) for k in range(0, 8, 2)]
        init_state = (words[0] << 64) | words[1]
        init_seq = (words[2] << 64) | words[3]
        # pcg64_srandom_r: from state 0, one step, add the initial state,
        # one more step
        self._inc = ((init_seq << 1) | 1) & _MASK128
        self._state = (self._inc + init_state) & _MASK128
        self.next64()

    def next64(self) -> int:
        """The next 64-bit output: step the LCG, then XSL-RR the new state."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def random(self) -> float:
        """A uniform double in [0, 1) from the top 53 bits of next64()."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)


def default_rng(seed: int) -> Generator:
    return Generator(seed)


def _pairwise(a: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= _PW_BLOCKSIZE:
        end = lo + n - n % 8
        r = [reduce(add, a[lo + k:end:8]) for k in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, lo, n2) + _pairwise(a, lo + n2, n - n2)


def fsum_pairwise(values: Sequence[float]) -> float:
    """The sum of `values` in numpy's pairwise order, as np.sum gives it for
    a float64 vector (or a table flattened row by row)."""
    return _pairwise(values, 0, len(values))


def mean(values: Sequence[float]) -> float:
    """np.mean of a nonempty float64 vector: its pairwise sum over its
    length."""
    return fsum_pairwise(values) / len(values)


def _cdf(p: Sequence[float]) -> list[float]:
    # np.cumsum(p) / its last entry
    cdf = list(accumulate(p))
    last = cdf[-1]
    return [c / last for c in cdf]


def choice(rng: Random, p: Sequence[float]) -> int:
    """One index drawn with probabilities `p`, as
    `Generator.choice(len(p), p=p)` draws it from the same stream."""
    return bisect_right(_cdf(p), rng.random())


def choice_distinct(rng: Random, p: Sequence[float], size: int) -> list[int]:
    """`size` distinct indices drawn with probabilities `p`, in draw order,
    as `Generator.choice(len(p), size, replace=False, p=p)` draws them: each
    round draws one double per index still missing, keeps the first
    occurrence of each new index, and zeroes the weights of those found."""
    if sum(1 for x in p if x > 0) < size:
        raise ValueError("fewer non-zero entries in p than size")
    p = list(p)
    found: list[int] = []
    while len(found) < size:
        draws = [rng.random() for _ in range(size - len(found))]
        for i in found:
            p[i] = 0.0
        cdf = _cdf(p)
        for u in draws:
            i = bisect_right(cdf, u)
            if i not in found:
                found.append(i)
    return found
