"""The race, pinned run by run: the requests, latency units, tokens, round
trips, test F1, true prompt quality, returned prompt's length in tokens,
operator requests sent ahead and dropped, and request digest (see
tools/race_numbers.py) of training runs of every benchmark workload:
cls_rl_latency at workload seeds 101-102, at 64 and at 8 slots;
ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at seed 9001 at 64 and at
2 slots. A change to what any workload sends, such as a rung cut or
the order of a batch, fails here; a change that means to move these numbers
updates the rows and says why.

The quality per request is pinned too: cls_rl_latency at seeds 101-102 and
64 slots, in 12-iteration runs read at 2000 to 5000 training requests,
without noise and with half of the evaluation requests noisy."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# (training seed, requests, units, test F1, true p, sha256[:16])
ROWS = {
    64: [
        (404, 1748, 33, 0.67005, 0.66, "c40679fa075ba2e9"),
        (405, 1788, 32, 0.69036, 0.68, "f270ecbd3dcb7402"),
        (406, 1789, 32, 0.65990, 0.65, "4fb28f2e8173214b"),
        (407, 1817, 33, 0.67005, 0.66, "c12eb2295aa95be2"),
        (408, 1467, 26, 0.62944, 0.62, "5f03860a73a4d128"),
        (409, 1753, 31, 0.70051, 0.69, "22baf4040754afb5"),
        (410, 1789, 32, 0.67005, 0.66, "493bd8d31d7f3350"),
        (411, 1768, 32, 0.68020, 0.67, "183b9b958a14bf78"),
    ],
    8: [
        (404, 1979, 251, 0.69036, 0.68, "58bf888034b5c58a"),
        (405, 2026, 257, 0.69036, 0.68, "c9547fbb3d263434"),
        (406, 1910, 242, 0.65990, 0.65, "89bb15e4db4c0d2b"),
        (407, 2081, 264, 0.67005, 0.66, "3d24f8fcf1dab372"),
        (408, 1663, 211, 0.62944, 0.62, "792095e6755bc9d9"),
        (409, 1891, 239, 0.70051, 0.69, "c0a5f07379c8659e"),
        (410, 2099, 265, 0.67005, 0.66, "0225eca87e1e7b2a"),
        (411, 1999, 253, 0.69036, 0.68, "88203f73c40a8396"),
    ],
}

# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 11978, 189, 0.66599, 0.61, "40775e0c1c0a1438")],
    ("mrc_http", 64): [(9001, 488, 12, 0.8, 0.57, "08285d7c75ecefbc")],
    ("mrc_http", 2): [(9001, 562, 282, 0.8, 0.57, "418dfcb76790fc4e")],
}

# (training seed, tokens, round trips, the returned prompt's length in
# tokens, operator requests sent ahead and dropped) of each run above, by
# (workload, slots)
COSTS = {
    ("cls_rl_latency", 64): [(404, 361449, 19, 201, 5), (405, 389990, 19, 202, 4),
                             (406, 354351, 19, 161, 4), (407, 402677, 20, 193, 2),
                             (408, 287528, 15, 147, 6), (409, 383625, 18, 212, 5),
                             (410, 384814, 19, 201, 4), (411, 422941, 19, 199, 5)],
    ("cls_rl_latency", 8): [(404, 409997, 19, 201, 4), (405, 442508, 19, 202, 4),
                            (406, 378052, 18, 161, 2), (407, 459809, 20, 193, 2),
                            (408, 329134, 16, 147, 6), (409, 413056, 18, 215, 2),
                            (410, 447960, 20, 201, 7), (411, 471962, 19, 204, 5)],
    ("ner_msgd_cpu", 64): [(9001, 4241977, 15, 131, 6)],
    ("mrc_http", 64): [(9001, 85728, 9, 76, 2)],
    ("mrc_http", 2): [(9001, 98840, 9, 76, 2)],
}

BUDGETS = (2000, 3000, 4000, 5000)

# 12-iteration cls_rl_latency runs at 64 slots, by share of noisy evaluation
# requests: (training seed, requests, units, tokens, round trips, true p, the
# returned prompt's length in tokens, the true p within each of BUDGETS
# training requests, sha256[:16])
BUDGET_ROWS = {
    0.0: [
        (404, 3633, 65, 924437, 37, 0.75, 279, (0.67, 0.72, 0.75, 0.75), "c0a7153d3e82289a"),
        (405, 3647, 64, 904516, 37, 0.75, 246, (0.69, 0.72, 0.75, 0.75), "e8080b86307e594f"),
        (406, 3668, 64, 889821, 37, 0.73, 262, (0.66, 0.71, 0.73, 0.73), "34157c64d86da8dd"),
        (407, 3736, 66, 951768, 39, 0.72, 254, (0.66, 0.71, 0.72, 0.72), "9a2440417cdfd3c9"),
        (408, 1467, 26, 287528, 15, 0.62, 147, (0.62, 0.62, 0.62, 0.62), "5f03860a73a4d128"),
        (409, 3705, 65, 1003138, 38, 0.77, 284, (0.72, 0.74, 0.77, 0.77), "4bfdfdba58cdf1ef"),
        (410, 3692, 65, 1062062, 38, 0.76, 340, (0.69, 0.74, 0.76, 0.76), "e7aa87a540301f02"),
        (411, 3628, 64, 927946, 37, 0.73, 241, (0.68, 0.70, 0.73, 0.73), "c91f39ad1ef17aee"),
    ],
    0.5: [
        (404, 1177, 23, 226174, 13, 0.60, 134, (0.60, 0.60, 0.60, 0.60), "3c7f99c833f5399c"),
        (405, 1219, 22, 243568, 13, 0.61, 139, (0.61, 0.61, 0.61, 0.61), "f5af9766ab605457"),
        (406, 1467, 26, 280661, 15, 0.61, 142, (0.61, 0.61, 0.61, 0.61), "733ec961adc027f2"),
        (407, 1260, 23, 237974, 14, 0.60, 134, (0.60, 0.60, 0.60, 0.60), "6bfd9b4cb847afa9"),
        (408, 1506, 27, 415138, 16, 0.61, 238, (0.61, 0.61, 0.61, 0.61), "6ef31e2dc60651a2"),
        (409, 3336, 58, 868397, 33, 0.68, 239, (0.67, 0.68, 0.68, 0.68), "ce77151b16024fe5"),
        (410, 1835, 33, 365342, 20, 0.63, 150, (0.63, 0.63, 0.63, 0.63), "807477deaf5ce104"),
        (411, 1734, 31, 500853, 18, 0.63, 269, (0.63, 0.63, 0.63, 0.63), "db931a26842eb74c"),
    ],
}


def pinned(monkeypatch, workload, seeds, slots):
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import race_numbers

    rows = race_numbers(workload, seeds, slots)
    assert [(r.seed, r.tokens, r.round_trips, r.prompt_len, r.dropped) for r in rows] == \
        COSTS[workload, slots]
    return [(r.seed, r.requests, r.units, round(r.test_f1, 5), round(r.true_p, 4),
             r.sha256[:16]) for r in rows]


@pytest.mark.parametrize("slots", sorted(ROWS))
def test_cls_race_numbers(monkeypatch, slots):
    assert pinned(monkeypatch, "cls_rl_latency", [101, 102], slots) == ROWS[slots]


@pytest.mark.parametrize("workload, slots", sorted(SEED_9001_ROWS))
def test_race_numbers_at_seed_9001(monkeypatch, workload, slots):
    assert pinned(monkeypatch, workload, [9001], slots) == SEED_9001_ROWS[workload, slots]


@pytest.mark.parametrize("noise", sorted(BUDGET_ROWS))
def test_quality_per_request(monkeypatch, noise):
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import race_numbers

    rows = race_numbers("cls_rl_latency", [101, 102], 64, iterations=12, budgets=BUDGETS,
                        noise=noise)
    assert [(r.seed, r.requests, r.units, r.tokens, r.round_trips, round(r.true_p, 4),
             r.prompt_len, tuple(round(p, 4) for p in r.curve), r.sha256[:16])
            for r in rows] == BUDGET_ROWS[noise]


def test_noise_redraws_correctness_alone(monkeypatch, tmp_path):
    """Noisy leaves every reply as the oracle gives it at share 0. At share
    1 each evaluation reply is right at the prompt's accuracy level, up to
    sampling error, and only its correctness can differ from the oracle's:
    the wrapping is the same, a malformed reply stays malformed, and a
    request gets the same reply from any Noisy at that share."""
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import Counting, Noisy, true_p
    from workloads import build

    from promptopt.evaluation import FORMAT_FAILURE, eval_requests, parse_prediction
    from promptopt.prompt_model import Candidate

    spec = build("cls_rl_latency", 101, tmp_path)[0]
    reqs = eval_requests([(Candidate(prompt=spec.template), 0, len(spec.train))], spec.train)

    def texts(share=None):
        backend = Counting(spec.oracle(), 64)
        if share is not None:
            backend = Noisy(backend, share)
        replies = [res.text for res in backend.generate_batch(reqs)]
        assert backend.usage.requests == len(reqs)
        return replies

    clean = texts()
    assert texts(0.0) == clean
    noisy = texts(1.0)
    assert texts(1.0) == noisy
    right = [parse_prediction("CLS", text) == ex.gold for ex, text in zip(spec.train, noisy)]
    p, n = true_p(spec.template), len(reqs)
    assert abs(sum(right) / n - p) <= 4 * (p * (1 - p) / n) ** 0.5
    assert 0 < sum(a != b for a, b in zip(clean, noisy)) < n
    for a, b in zip(clean, noisy):
        assert a[:8] == b[:8]  # the same wrapping
        assert (parse_prediction("CLS", a) is FORMAT_FAILURE) == \
            (parse_prediction("CLS", b) is FORMAT_FAILURE)
