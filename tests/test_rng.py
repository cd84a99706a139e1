"""promptopt.rng against numpy, its reference: the same doubles from the
same seed, the same indices from the same weights, and the same sums."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promptopt import rng

SEEDS = st.integers(min_value=0, max_value=2**160)
# weight vectors with zeros among them, as a masked or partly drawn table has
WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
                   min_size=1, max_size=90)
TERMS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _probs(weights):
    # as the program normalizes: each weight over the pairwise sum
    total = rng.fsum_pairwise(weights)
    return [w / total for w in weights]


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 + 7])
def test_random_stream_matches_numpy(seed):
    ours, ref = rng.default_rng(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(20)] == [ref.random() for _ in range(20)]


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_random_stream_matches_numpy_on_drawn_seeds(seed):
    ours, ref = rng.default_rng(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(20)] == [ref.random() for _ in range(20)]


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError),
                                         (True, TypeError), (None, TypeError)])
def test_seed_must_be_a_nonnegative_int(seed, error):
    with pytest.raises(error):
        rng.default_rng(seed)


@given(WEIGHTS, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=1000, deadline=None)
def test_choice_matches_numpy(weights, seed):
    assume(any(weights))
    p = _probs(weights)
    ref = np.random.default_rng(seed)
    want = int(ref.choice(len(p), p=np.array(p)))
    ours = rng.default_rng(seed)
    assert rng.choice(ours, p) == want
    assert ours.random() == ref.random()
    # any rng with random() draws the same index: numpy's own generator too
    assert rng.choice(np.random.default_rng(seed), p) == want


@given(WEIGHTS, st.integers(min_value=0, max_value=2**32), st.data())
@settings(max_examples=1000, deadline=None)
def test_choice_distinct_matches_numpy(weights, seed, data):
    positive = sum(1 for w in weights if w > 0)
    assume(positive > 0)
    size = data.draw(st.integers(min_value=1, max_value=positive))
    p = _probs(weights)
    ref = np.random.default_rng(seed)
    want = ref.choice(len(p), size=size, replace=False, p=np.array(p)).tolist()
    ours = rng.default_rng(seed)
    assert rng.choice_distinct(ours, p, size) == want
    # the same number of doubles was drawn
    assert ours.random() == ref.random()
    assert rng.choice_distinct(np.random.default_rng(seed), p, size) == want


def test_choice_distinct_needs_enough_positive_weights():
    with pytest.raises(ValueError):
        rng.choice_distinct(rng.default_rng(0), [0.5, 0.0, 0.5], 3)


@given(st.lists(TERMS, min_size=1, max_size=300))
@settings(max_examples=2000, deadline=None)
def test_pairwise_sum_and_mean_match_numpy(values):
    assert rng.fsum_pairwise(values) == float(np.sum(np.array(values)))
    assert rng.mean(values) == float(np.mean(values))


@given(st.integers(min_value=7, max_value=20), st.data())
@settings(max_examples=200, deadline=None)
def test_table_sum_and_mean_match_numpy(rows, data):
    # more than 128 cells, so numpy splits the flattened table in halves
    cols = data.draw(st.integers(min_value=128 // rows + 1, max_value=20))
    table = data.draw(st.lists(st.lists(TERMS, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    flat = [x for row in table for x in row]
    assert rng.fsum_pairwise(flat) == float(np.array(table).sum())
    assert rng.mean(flat) == float(np.array(table).mean())


def test_sums_split_at_block_boundaries_as_numpy_does():
    # 1e16 absorbs a 1.0 added to it alone, so the grouping of the terms
    # shows in the result: each length crosses one of numpy's boundaries
    for n in (7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1000):
        values = [1e16 if i % 3 == 0 else 1.0 for i in range(n)]
        assert rng.fsum_pairwise(values) == float(np.sum(np.array(values))), n
