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
        (404, 2855, 48, 0.67005, 0.66, "3f921e4d9df20f28"),
        (405, 2515, 42, 0.68020, 0.67, "b3566f6fc8838061"),
        (406, 3091, 51, 0.73096, 0.72, "ca85e822cbcc60a5"),
        (407, 2401, 41, 0.65990, 0.65, "132814add18eb9a0"),
        (408, 2679, 47, 0.65990, 0.65, "ae93e848c8004381"),
        (409, 2102, 39, 0.68020, 0.67, "e3f3e53554ee0317"),
        (410, 2694, 45, 0.69036, 0.68, "591f41efb02d9b5a"),
        (411, 2764, 47, 0.69036, 0.68, "a3a2f56591ff0169"),
    ],
    8: [
        (404, 2677, 338, 0.71066, 0.70, "4ac176d6d672eb1d"),
        (405, 2714, 342, 0.69036, 0.68, "8093e376d48b9f1a"),
        (406, 3299, 416, 0.70051, 0.69, "f903fc38e9c82e4f"),
        (407, 2116, 267, 0.62944, 0.62, "2eaea78592468524"),
        (408, 3265, 411, 0.70051, 0.69, "736efb63e1a814ff"),
        (409, 2669, 336, 0.72081, 0.71, "0c7e3060f6cd1793"),
        (410, 2914, 368, 0.69036, 0.68, "787a8c5f3e2ba8d8"),
        (411, 3057, 385, 0.69036, 0.68, "0ff4f5d4263c17b3"),
    ],
}


# the other workloads at seed 9001, one run each, by (workload, slots)
SEED_9001_ROWS = {
    ("ner_msgd_cpu", 64): [(9001, 13124, 212, 0.66599, 0.61, "bc2b869521131a93")],
    ("mrc_http", 64): [(9001, 664, 15, 0.8, 0.57, "d6505e8ad1a19548")],
    ("mrc_http", 2): [(9001, 746, 374, 0.8, 0.57, "dba4f612b21a605d")],
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
