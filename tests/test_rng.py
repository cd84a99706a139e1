"""promptopt.rng.choice_distinct: distinct indices, never one of zero weight,
each drawn in proportion to its weight, from any rng with `random()`."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promptopt import rng

# weight vectors with zeros among them, as a masked or partly drawn table has
WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
                   min_size=1, max_size=90)
SEEDS = st.integers(min_value=0, max_value=2**64)


@given(WEIGHTS, SEEDS, st.data())
@settings(max_examples=500, deadline=None)
def test_draws_are_distinct_and_never_of_zero_weight(weights, seed, data):
    positive = sum(1 for w in weights if w > 0)
    assume(positive > 0)
    k = data.draw(st.integers(min_value=1, max_value=positive))
    drawn = rng.choice_distinct(random.Random(seed), weights, k)
    assert len(drawn) == k == len(set(drawn))
    assert all(weights[i] > 0 for i in drawn)


@given(WEIGHTS, SEEDS)
@settings(max_examples=200, deadline=None)
def test_drawing_every_positive_weight_draws_each_once(weights, seed):
    positive = [i for i, w in enumerate(weights) if w > 0]
    drawn = rng.choice_distinct(random.Random(seed), weights, len(positive))
    assert sorted(drawn) == positive


class Fixed:
    """An rng whose random() returns the given doubles in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.mark.parametrize("u, want", [(0.0, 1), (0.25, 1), (0.5, 3), (0.75, 3)])
def test_a_draw_on_a_step_of_the_cdf_skips_zero_weights(u, want):
    # the cdf is 0, 0.5, 0.5, 1: a double equal to a step lands on the next
    # positive weight, never on a zero one before it
    assert rng.choice_distinct(Fixed(u), [0.0, 1.0, 0.0, 1.0], 1) == [want]


def test_choice_distinct_needs_enough_positive_weights():
    with pytest.raises(ValueError):
        rng.choice_distinct(random.Random(0), [0.5, 0.0, 0.5], 3)


def test_weights_are_not_modified():
    weights = [0.1, 0.2, 0.7]
    rng.choice_distinct(random.Random(0), weights, 3)
    assert weights == [0.1, 0.2, 0.7]


def test_first_draw_follows_the_weights():
    # 20,000 single draws: each index's count is binomial, with a standard
    # deviation of at most 71, so 5 of them (355) bound every miss
    weights = [0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
    total = sum(weights)
    n = 20_000
    gen = random.Random(12345)
    counts = Counter(rng.choice_distinct(gen, weights, 1)[0] for _ in range(n))
    assert counts[0] == counts[3] == 0
    for i, w in enumerate(weights):
        assert abs(counts[i] - n * w / total) < 355, (i, counts[i])


def test_second_draw_follows_the_remaining_weights():
    # with weights 1, 1, 2 the second index is drawn in proportion to what
    # is left: after index 2 (drawn first half of the time), 0 and 1 are
    # even; after 0 or 1, the other has 1/3 and index 2 has 2/3. So index 2
    # comes second with probability 1/4 * 2/3 * 2 = 1/3
    n = 20_000
    gen = random.Random(99)
    second = Counter(rng.choice_distinct(gen, [1.0, 1.0, 2.0], 2)[1] for _ in range(n))
    # standard deviation sqrt(n * 1/3 * 2/3) is about 67
    assert abs(second[2] - n / 3) < 335
    assert abs(second[0] - n / 3) < 335


@pytest.mark.parametrize("make", [random.Random, np.random.default_rng],
                         ids=["random.Random", "numpy.Generator"])
def test_any_rng_with_random_serves(make):
    weights = [0.5, 0.0, 1.5, 2.0, 0.0, 1.0]
    drawn = rng.choice_distinct(make(3), weights, 4)
    assert sorted(drawn) == [0, 2, 3, 5]
    # the draws read random() alone, one double per index
    ref = make(3)
    want = [ref.random() for _ in range(4)]
    counted = make(3)
    reads = []

    class Reading:
        def random(self):
            reads.append(counted.random())
            return reads[-1]

    assert rng.choice_distinct(Reading(), weights, 4) == drawn
    assert reads == want


def test_stream_of_random_zero_is_pinned():
    # a change to the draws or to random.Random's integer-seeded stream
    # moves every pair a seeded run selects; it must fail here first
    gen = random.Random(0)
    weights = [0.05, 0.0, 0.1, 0.2, 0.0, 0.15, 0.3, 0.05, 0.15]
    assert rng.choice_distinct(gen, weights, 5) == [7, 6, 3, 2, 5]
    assert rng.choice_distinct(gen, weights, 3) == [5, 7, 3]
    assert rng.choice_distinct(gen, weights, 7) == [5, 6, 8, 3, 2, 7, 0]
