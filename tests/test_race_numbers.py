"""The race, pinned run by run: the requests, latency units, tokens, round
trips, test F1, true prompt quality and request digest (see
tools/race_numbers.py) of training runs of every benchmark workload:
cls_rl_latency at workload seeds 101-102, at 64 and at 8 slots;
ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at seed 9001 at 64 and at 2
slots. A change to what any workload sends, such
as a rung cut or the order of a batch, fails here; a change that means to
move these numbers updates the rows and says why.

The quality per request is pinned too: cls_rl_latency at seeds 101-102 and
64 slots, in 12-iteration runs read at 2000 to 5000 training requests,
without noise and with half of the evaluation requests noisy."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# (training seed, requests, units, test F1, true p, sha256[:16])
ROWS = {
    64: [
        (404, 2030, 39, 0.69036, 0.68, "b98d480337946a88"),
        (405, 2202, 41, 0.69036, 0.68, "13dc103744a85241"),
        (406, 2135, 40, 0.69036, 0.68, "e5fc12d4664430b7"),
        (407, 2143, 40, 0.68020, 0.67, "2f90ea6c3ac2b9d4"),
        (408, 1755, 33, 0.62944, 0.62, "37203b08caa78fb1"),
        (409, 2002, 38, 0.70051, 0.69, "31432b386f512a5e"),
        (410, 2031, 39, 0.67005, 0.66, "07252f03004e0345"),
        (411, 1915, 37, 0.71066, 0.70, "23b9a10c2735c80e"),
    ],
    8: [
        (404, 2360, 299, 0.67005, 0.66, "44e95cc1064d9ae5"),
        (405, 2484, 315, 0.69036, 0.68, "ec44f173160842e1"),
        (406, 2395, 304, 0.69036, 0.68, "aeb264257eb63e4a"),
        (407, 2415, 307, 0.68020, 0.67, "33e5d6246469cc96"),
        (408, 1945, 248, 0.62944, 0.62, "a9b92a26fdd4bfd0"),
        (409, 2175, 277, 0.68020, 0.67, "1d7acb800006b98e"),
        (410, 2405, 305, 0.67005, 0.66, "6eeef522004fece8"),
        (411, 2101, 269, 0.71066, 0.70, "490572c3ae61e820"),
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
    ("cls_rl_latency", 8): [(404, 477487, 23), (405, 571866, 25), (406, 548238, 25),
                            (407, 512693, 25), (408, 395594, 21), (409, 442901, 24),
                            (410, 507660, 25), (411, 522445, 24)],
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
        (404, 4176, 81, 1031312, 49, 0.78, (0.68, 0.71, 0.77, 0.78), "b641f787742dbea1"),
        (405, 4458, 84, 1218725, 53, 0.77, (0.67, 0.72, 0.75, 0.77), "dcd0cf9e66b125cc"),
        (406, 4460, 84, 1209043, 53, 0.75, (0.67, 0.70, 0.73, 0.75), "fa87b3c9cf7b0c81"),
        (407, 4351, 82, 1059451, 53, 0.74, (0.66, 0.70, 0.73, 0.74), "3e1c41c613a32303"),
        (408, 1755, 33, 354103, 21, 0.62, (0.62, 0.62, 0.62, 0.62), "37203b08caa78fb1"),
        (409, 4251, 81, 1112985, 52, 0.78, (0.69, 0.71, 0.76, 0.78), "24edfc0a52a3a1a8"),
        (410, 4439, 84, 1225801, 51, 0.75, (0.66, 0.69, 0.73, 0.75), "c4a463f71fba9c77"),
        (411, 4140, 80, 1234827, 50, 0.79, (0.70, 0.75, 0.78, 0.79), "156a148e3fd3265c"),
    ],
    0.5: [
        (404, 1334, 26, 272623, 15, 0.60, (0.60, 0.60, 0.60, 0.60), "fbfc5e847c08d50c"),
        (405, 1510, 28, 296240, 17, 0.61, (0.61, 0.61, 0.61, 0.61), "7f2a9563ec575dbb"),
        (406, 1825, 34, 372353, 21, 0.61, (0.61, 0.61, 0.61, 0.61), "f68cf89b8c9b1eb6"),
        (407, 3086, 58, 628831, 37, 0.64, (0.63, 0.64, 0.64, 0.64), "ef729d780e4b15fa"),
        (408, 1815, 34, 513602, 21, 0.61, (0.61, 0.61, 0.61, 0.61), "004238ccf397439e"),
        (409, 3405, 63, 693434, 40, 0.64, (0.63, 0.64, 0.64, 0.64), "93bb19ed481505a4"),
        (410, 3148, 59, 646134, 37, 0.64, (0.63, 0.64, 0.64, 0.64), "966b01690e9f64c1"),
        (411, 2139, 40, 493635, 25, 0.65, (0.65, 0.65, 0.65, 0.65), "ebdf3f940e397ed5"),
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
