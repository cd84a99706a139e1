"""The race, pinned run by run: the requests, latency units, tokens, round
trips, test F1, true prompt quality, returned prompt's length in tokens and
request digest (see tools/race_numbers.py) of training runs of every
benchmark workload: cls_rl_latency at workload seeds 101-102, at 64 and at
8 slots; ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at seed 9001 at 64
and at 2 slots. A change to what any workload sends, such as a rung cut or
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
        (404, 1739, 37, 0.71066, 0.70, "7fc76da820352b84"),
        (405, 1744, 36, 0.67005, 0.66, "a0cf4cfbe799807a"),
        (406, 1783, 37, 0.65990, 0.65, "354b840eb2b3544a"),
        (407, 1826, 38, 0.68020, 0.67, "c8c4dd29aa2665a8"),
        (408, 1499, 31, 0.62944, 0.62, "bf1646d4c41d44e4"),
        (409, 1749, 36, 0.70051, 0.69, "147014e4104ad154"),
        (410, 1825, 38, 0.65990, 0.65, "423419233067a831"),
        (411, 1761, 37, 0.71066, 0.70, "b687cbf499e208bd"),
    ],
    8: [
        (404, 1947, 247, 0.69036, 0.68, "9305a1e1e64675c7"),
        (405, 1956, 248, 0.67005, 0.66, "21017b23047f8898"),
        (406, 2024, 256, 0.65990, 0.65, "d49e7b02a8938ec6"),
        (407, 2063, 261, 0.68020, 0.67, "8a9c359534c4f67c"),
        (408, 1657, 210, 0.62944, 0.62, "087de10b425a69ec"),
        (409, 1912, 242, 0.68020, 0.67, "a93c62166749cbf5"),
        (410, 1940, 245, 0.65990, 0.65, "1131eade35239aec"),
        (411, 1947, 247, 0.71066, 0.70, "8e08af5c07de17bf"),
    ],
}

# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 11972, 194, 0.66599, 0.61, "4b59d783e09bc5ef")],
    ("mrc_http", 64): [(9001, 486, 13, 0.8, 0.57, "40b7b77541404e5c")],
    ("mrc_http", 2): [(9001, 560, 282, 0.8, 0.57, "5d56bfff2b910322")],
}

# (training seed, tokens, round trips, the returned prompt's length in
# tokens) of each run above, by (workload, slots)
COSTS = {
    ("cls_rl_latency", 64): [(404, 388664, 23, 236), (405, 375246, 23, 190),
                             (406, 354399, 24, 163), (407, 384233, 25, 199),
                             (408, 293147, 20, 147), (409, 381728, 23, 212),
                             (410, 360066, 25, 163), (411, 441561, 24, 236)],
    ("cls_rl_latency", 8): [(404, 425689, 23, 202), (405, 420463, 23, 190),
                            (406, 403914, 24, 163), (407, 435042, 25, 199),
                            (408, 327257, 20, 147), (409, 386950, 23, 178),
                            (410, 379388, 23, 163), (411, 488443, 24, 236)],
    ("ner_msgd_cpu", 64): [(9001, 4233527, 20, 131)],
    ("mrc_http", 64): [(9001, 84988, 10, 76)],
    ("mrc_http", 2): [(9001, 98082, 10, 76)],
}

BUDGETS = (2000, 3000, 4000, 5000)

# 12-iteration cls_rl_latency runs at 64 slots, by share of noisy evaluation
# requests: (training seed, requests, units, tokens, round trips, true p, the
# returned prompt's length in tokens, the true p within each of BUDGETS
# training requests, sha256[:16])
BUDGET_ROWS = {
    0.0: [
        (404, 3544, 76, 1013359, 47, 0.79, 311, (0.71, 0.77, 0.79, 0.79), "53459fa1adc49e13"),
        (405, 3699, 77, 897477, 50, 0.72, 230, (0.66, 0.68, 0.72, 0.72), "bc28bf7d10a75a41"),
        (406, 3667, 77, 872853, 50, 0.73, 233, (0.68, 0.71, 0.73, 0.73), "e74ea9d50570f298"),
        (407, 3687, 77, 907540, 50, 0.73, 230, (0.67, 0.71, 0.73, 0.73), "28bd43ca462ebf3a"),
        (408, 1499, 31, 293147, 20, 0.62, 147, (0.62, 0.62, 0.62, 0.62), "bf1646d4c41d44e4"),
        (409, 3641, 76, 924495, 49, 0.76, 255, (0.70, 0.74, 0.76, 0.76), "abbee4da04ac1914"),
        (410, 3759, 79, 850154, 52, 0.70, 227, (0.65, 0.68, 0.70, 0.70), "2e2720293ae6594c"),
        (411, 3675, 77, 1069054, 50, 0.79, 317, (0.71, 0.74, 0.79, 0.79), "7282f6c59530a71e"),
    ],
    0.5: [
        (404, 1174, 25, 236222, 15, 0.60, 134, (0.60, 0.60, 0.60, 0.60), "4b69c0771766d278"),
        (405, 1197, 25, 245998, 16, 0.61, 139, (0.61, 0.61, 0.61, 0.61), "6662356b593a46bb"),
        (406, 1505, 31, 290260, 20, 0.61, 142, (0.61, 0.61, 0.61, 0.61), "0b635a4db44808a2"),
        (407, 1256, 26, 250032, 17, 0.60, 134, (0.60, 0.60, 0.60, 0.60), "80929983ea2f59a9"),
        (408, 1495, 31, 412305, 20, 0.61, 238, (0.61, 0.61, 0.61, 0.61), "47eb175b4067d80b"),
        (409, 1824, 38, 377552, 25, 0.63, 152, (0.63, 0.63, 0.63, 0.63), "a04d66b6fdb25b15"),
        (410, 2641, 55, 556820, 36, 0.64, 158, (0.64, 0.64, 0.64, 0.64), "c2e34a83cf9d857b"),
        (411, 2463, 51, 569211, 32, 0.66, 193, (0.66, 0.66, 0.66, 0.66), "cdc7d49a39ad359a"),
    ],
}


def pinned(monkeypatch, workload, seeds, slots):
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import race_numbers

    rows = race_numbers(workload, seeds, slots)
    assert [(r.seed, r.tokens, r.round_trips, r.prompt_len) for r in rows] == \
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
