"""The race, pinned run by run: the requests, latency units, test F1, true
prompt quality and request digest (see tools/race_numbers.py) of training
runs of every benchmark workload: cls_rl_latency at workload seeds 101-102,
at 64 and at 8 slots; ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at
seed 9001 at 64 and at 2 slots. A change to what any workload sends, such
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
        (404, 2334, 42, 0.69036, 0.68, "91835ccec69cc111"),
        (405, 2405, 40, 0.68020, 0.67, "71897e15d019a781"),
        (406, 2368, 41, 0.69036, 0.68, "ea8c44227a67aff1"),
        (407, 2474, 41, 0.68020, 0.67, "2b5182717f6a7ab4"),
        (408, 1995, 35, 0.62944, 0.62, "f5b02aa3642850f1"),
        (409, 2268, 39, 0.71066, 0.70, "d5611528fccd4a63"),
        (410, 2413, 42, 0.69036, 0.68, "6569838e077e01f5"),
        (411, 2388, 41, 0.71066, 0.70, "6f0d0c03c075480c"),
    ],
    8: [
        (404, 2513, 318, 0.67005, 0.66, "3d58a4160ca1c45d"),
        (405, 2603, 329, 0.68020, 0.67, "4f549c5f2f3a6204"),
        (406, 2613, 330, 0.69036, 0.68, "16dfe5822dfd7df5"),
        (407, 2703, 341, 0.68020, 0.67, "c997be674b12df22"),
        (408, 2162, 273, 0.62944, 0.62, "385672d7af246fce"),
        (409, 2418, 306, 0.71066, 0.70, "23484d02ab1a536c"),
        (410, 2665, 336, 0.69036, 0.68, "2ec19dc06a985492"),
        (411, 2365, 299, 0.71066, 0.70, "f4af6aa5b271eaf1"),
    ],
}


# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 13124, 212, 0.66599, 0.61, "de32f48ed2b1e40f")],
    ("mrc_http", 64): [(9001, 530, 13, 0.8, 0.57, "7c1a5241d35e7549")],
    ("mrc_http", 2): [(9001, 646, 324, 0.8, 0.57, "2e3a65ee57901ff7")],
}

BUDGETS = (2000, 3000, 4000, 5000)

# 12-iteration cls_rl_latency runs at 64 slots, by share of noisy evaluation
# requests: (training seed, requests, units, true p, the true p within each
# of BUDGETS training requests, sha256[:16])
BUDGET_ROWS = {
    0.0: [
        (404, 4975, 87, 0.78, (0.65, 0.70, 0.74, 0.78), "fd0c6a03522bef1b"),
        (405, 5006, 83, 0.79, (0.66, 0.71, 0.75, 0.79), "7ae31ab6ab2b4067"),
        (406, 5019, 87, 0.75, (0.67, 0.69, 0.72, 0.75), "adc4b7992b47b8e2"),
        (407, 5024, 84, 0.74, (0.66, 0.68, 0.71, 0.74), "dce84006cb89b5dd"),
        (408, 1995, 35, 0.62, (0.62, 0.62, 0.62, 0.62), "f5b02aa3642850f1"),
        (409, 4676, 82, 0.78, (0.67, 0.72, 0.75, 0.78), "268960748d865824"),
        (410, 5020, 88, 0.75, (0.67, 0.69, 0.72, 0.75), "99e46d3a7529e740"),
        (411, 4875, 84, 0.79, (0.69, 0.71, 0.76, 0.79), "6dc5e090430685a1"),
    ],
    0.5: [
        (404, 1487, 27, 0.60, (0.60, 0.60, 0.60, 0.60), "a0e17716b5b8c076"),
        (405, 1747, 29, 0.61, (0.61, 0.61, 0.61, 0.61), "cdcf5b4a2999ac40"),
        (406, 1984, 34, 0.63, (0.63, 0.63, 0.63, 0.63), "94c76fce8000c5b7"),
        (407, 3577, 61, 0.65, (0.61, 0.65, 0.65, 0.65), "a6e4882fcd761e90"),
        (408, 3143, 53, 0.64, (0.64, 0.64, 0.64, 0.64), "d119b779c721a65a"),
        (409, 1552, 27, 0.61, (0.61, 0.61, 0.61, 0.61), "b42b29cb4c164a01"),
        (410, 3693, 62, 0.64, (0.63, 0.64, 0.64, 0.64), "f74d90bae9cc2c57"),
        (411, 1681, 29, 0.61, (0.61, 0.61, 0.61, 0.61), "3d76c2504b777916"),
    ],
}


def pinned(monkeypatch, workload, seeds, slots):
    monkeypatch.syspath_prepend(str(TOOLS))
    from race_numbers import race_numbers

    return [(r.seed, r.requests, r.units, round(r.test_f1, 5), round(r.true_p, 4),
             r.sha256[:16]) for r in race_numbers(workload, seeds, slots)]


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
    assert [(r.seed, r.requests, r.units, round(r.true_p, 4),
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
