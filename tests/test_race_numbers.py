"""The race, pinned run by run: the requests, latency units, tokens, round
trips, test F1, true prompt quality and request digest (see
tools/race_numbers.py) of training runs of every benchmark workload:
cls_rl_latency at workload seeds 101-102, at 64 and at 8 slots;
ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at seed 9001 at 64 and at 2
slots. A change to what any workload sends, such
as a rung cut, the rider rule or the order of a batch, fails here; a change
that means to move these numbers updates the rows and says why.

The quality per request is pinned too: cls_rl_latency at seeds 101-102 and
64 slots, in 12-iteration runs read at 2000 to 5000 training requests,
without noise and with half of the evaluation requests noisy."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# (training seed, requests, units, test F1, true p, sha256[:16])
ROWS = {
    64: [
        (404, 2030, 39, 0.69036, 0.68, "ea2ab0eeb5dba58a"),
        (405, 2202, 41, 0.69036, 0.68, "7e693fb8b474ee1c"),
        (406, 2135, 40, 0.69036, 0.68, "11d258577de9f331"),
        (407, 2143, 40, 0.68020, 0.67, "ef12627916893991"),
        (408, 1755, 33, 0.62944, 0.62, "77c07ab1143a9427"),
        (409, 2002, 38, 0.70051, 0.69, "bb948279979bfb6c"),
        (410, 2031, 39, 0.67005, 0.66, "3ed4e57aff361384"),
        (411, 1915, 37, 0.71066, 0.70, "c4af2c708a0db0ce"),
    ],
    8: [
        (404, 2360, 299, 0.67005, 0.66, "4bc0b530c7358198"),
        (405, 2476, 313, 0.69036, 0.68, "fd3acbbd4ba5ccf4"),
        (406, 2382, 302, 0.69036, 0.68, "f3c54d6bb789036b"),
        (407, 2399, 304, 0.68020, 0.67, "5a1de85abf4ef720"),
        (408, 1940, 246, 0.62944, 0.62, "f3c81c82804ffb3e"),
        (409, 2170, 276, 0.68020, 0.67, "ffa9734cdca05256"),
        (410, 2395, 304, 0.67005, 0.66, "0ae6a86b670d49d2"),
        (411, 2091, 266, 0.71066, 0.70, "1f3a56558a156de3"),
    ],
}

# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 11972, 194, 0.66599, 0.61, "4b59d783e09bc5ef")],
    ("mrc_http", 64): [(9001, 530, 13, 0.8, 0.57, "7c1a5241d35e7549")],
    ("mrc_http", 2): [(9001, 646, 324, 0.8, 0.57, "2e3a65ee57901ff7")],
}

# (training seed, tokens, round trips) of each run above, by (workload, slots)
COSTS = {
    ("cls_rl_latency", 64): [(404, 417961, 23), (405, 506441, 25), (406, 486402, 25),
                             (407, 454902, 25), (408, 354103, 21), (409, 437752, 25),
                             (410, 444704, 23), (411, 476228, 24)],
    ("cls_rl_latency", 8): [(404, 477465, 23), (405, 569734, 25), (406, 545207, 25),
                            (407, 509106, 25), (408, 394522, 21), (409, 441776, 24),
                            (410, 505348, 25), (411, 519770, 24)],
    ("ner_msgd_cpu", 64): [(9001, 4233527, 20)],
    ("mrc_http", 64): [(9001, 92887, 10)],
    ("mrc_http", 2): [(9001, 113156, 10)],
}

BUDGETS = (2000, 3000, 4000, 5000)

# 12-iteration cls_rl_latency runs at 64 slots, by share of noisy evaluation
# requests: (training seed, requests, units, tokens, round trips, true p, the
# true p within each of BUDGETS training requests, sha256[:16])
BUDGET_ROWS = {
    0.0: [
        (404, 4176, 81, 1031312, 49, 0.78, (0.68, 0.71, 0.77, 0.78), "8d66a7d478487d60"),
        (405, 4458, 84, 1218725, 53, 0.77, (0.67, 0.72, 0.75, 0.77), "6052cc2491ef501e"),
        (406, 4460, 84, 1209043, 53, 0.75, (0.67, 0.70, 0.73, 0.75), "ffeb56d70eff2cb4"),
        (407, 4351, 82, 1059451, 53, 0.74, (0.66, 0.70, 0.73, 0.74), "dd2f54f0354ae384"),
        (408, 1755, 33, 354103, 21, 0.62, (0.62, 0.62, 0.62, 0.62), "77c07ab1143a9427"),
        (409, 4251, 81, 1112985, 52, 0.78, (0.69, 0.71, 0.76, 0.78), "1574afa87d7f7d51"),
        (410, 4439, 84, 1225801, 51, 0.75, (0.66, 0.69, 0.73, 0.75), "07580b4d7817b241"),
        (411, 4140, 80, 1234827, 50, 0.79, (0.70, 0.75, 0.78, 0.79), "536db1de929ddfb5"),
    ],
    0.5: [
        (404, 1334, 26, 272623, 15, 0.60, (0.60, 0.60, 0.60, 0.60), "3ab1ffffd2c8f467"),
        (405, 1510, 28, 296240, 17, 0.61, (0.61, 0.61, 0.61, 0.61), "81f01f6a44ea9423"),
        (406, 1825, 34, 372353, 21, 0.61, (0.61, 0.61, 0.61, 0.61), "1ccd638e021dee5b"),
        (407, 3086, 58, 628831, 37, 0.64, (0.63, 0.64, 0.64, 0.64), "c9cff274bc5f0a94"),
        (408, 1815, 34, 513602, 21, 0.61, (0.61, 0.61, 0.61, 0.61), "a3de3f618c84c59b"),
        (409, 3405, 63, 693434, 40, 0.64, (0.63, 0.64, 0.64, 0.64), "84a89d65d2dc781b"),
        (410, 3148, 59, 646134, 37, 0.64, (0.63, 0.64, 0.64, 0.64), "fd8bbf2bcf021577"),
        (411, 2139, 40, 493635, 25, 0.65, (0.65, 0.65, 0.65, 0.65), "e2441c44afb27b56"),
    ],
}


def pinned(monkeypatch, workload, seeds, slots):
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import race_numbers

    rows = race_numbers(workload, seeds, slots)
    assert [(r.seed, r.tokens, r.round_trips) for r in rows] == COSTS[workload, slots]
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
             tuple(round(p, 4) for p in r.curve), r.sha256[:16])
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
