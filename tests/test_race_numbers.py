"""The race, pinned run by run: the requests, latency units, test F1, true
prompt quality and request digest (see tools/race_numbers.py) of training
runs of every benchmark workload: cls_rl_latency at workload seeds 101-102,
at 64 and at 8 slots; ner_msgd_cpu at seed 9001 at 64 slots; mrc_http at
seed 9001 at 64 and at 2 slots. A change to what any workload sends, such
as a rung cut, the rider rule or the order of a batch, fails here; a change
that means to move these numbers updates the rows and says why."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# (training seed, requests, units, test F1, true p, sha256[:16])
ROWS = {
    64: [
        (404, 2736, 48, 0.69036, 0.68, "6cac0f04f97663e0"),
        (405, 2558, 43, 0.71066, 0.70, "24eed7bbad00a375"),
        (406, 2636, 45, 0.69036, 0.68, "94b063073cf164fd"),
        (407, 2689, 46, 0.65990, 0.65, "ab62a907ddc2f151"),
        (408, 2116, 37, 0.62944, 0.62, "b732e771af06adf7"),
        (409, 2268, 39, 0.71066, 0.70, "d5611528fccd4a63"),
        (410, 3272, 55, 0.67005, 0.66, "5323bde7edef13ce"),
        (411, 2509, 43, 0.71066, 0.70, "7dba8b0ee46c6c95"),
    ],
    8: [
        (404, 2912, 368, 0.67005, 0.66, "cf744943ec331800"),
        (405, 2716, 342, 0.71066, 0.70, "aa078f95cb848084"),
        (406, 2858, 360, 0.69036, 0.68, "c76daa72e71e92c4"),
        (407, 2865, 362, 0.65990, 0.65, "be870c42ba73f6ca"),
        (408, 2266, 286, 0.62944, 0.62, "1c3cd291cf430f99"),
        (409, 2418, 306, 0.71066, 0.70, "23484d02ab1a536c"),
        (410, 3309, 416, 0.69036, 0.68, "cdf9355fdb0da886"),
        (411, 2365, 299, 0.71066, 0.70, "f4af6aa5b271eaf1"),
    ],
}


# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 13124, 212, 0.66599, 0.61, "de32f48ed2b1e40f")],
    ("mrc_http", 64): [(9001, 664, 15, 0.8, 0.57, "797c5df22048b6e4")],
    ("mrc_http", 2): [(9001, 746, 374, 0.8, 0.57, "9f0f228b4a81a901")],
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
