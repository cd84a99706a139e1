"""Distinct indices drawn from a weight vector with a seeded rng.

A run seeds one `random.Random` and draws from it both each iteration's
(section, operator) pairs and its annealing survivors, through
`choice_distinct`. Any rng with a `random()` method serves, numpy's
`Generator` included.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Protocol, Sequence


class Random(Protocol):
    """What sampling needs of an rng: a uniform double in [0, 1)."""

    def random(self) -> float: ...


def choice_distinct(rng: Random, weights: Sequence[float], k: int) -> list[int]:
    """`k` distinct indices drawn in turn, each with probability proportional
    to its weight among those not yet drawn, in draw order. A draw takes one
    double and bisects the cdf of the remaining weights divided by its last
    entry, so an index whose weight is zero is never drawn. ValueError when
    fewer than `k` weights are positive."""
    weights = list(weights)
    if sum(1 for w in weights if w > 0) < k:
        raise ValueError("fewer positive weights than draws")
    found = []
    for _ in range(k):
        cdf = list(accumulate(weights))
        last = cdf[-1]
        i = bisect_right([c / last for c in cdf], rng.random())
        weights[i] = 0.0
        found.append(i)
    return found
