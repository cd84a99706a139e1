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
        (404, 2690, 46, 0.69036, 0.68, "985c55ca3cc2fad1"),
        (405, 2467, 42, 0.68020, 0.67, "80175bf578e64776"),
        (406, 3091, 51, 0.73096, 0.72, "8bb6a6e16e919368"),
        (407, 1734, 29, 0.61929, 0.61, "cbc918d5922265ff"),
        (408, 2610, 46, 0.65990, 0.65, "8fdbf0161844ac65"),
        (409, 2102, 39, 0.68020, 0.67, "e3f3e53554ee0317"),
        (410, 2539, 43, 0.69036, 0.68, "b91a154b7905c771"),
        (411, 2413, 42, 0.69036, 0.68, "a37bed5f10b57f80"),
    ],
    8: [
        (404, 2822, 357, 0.71066, 0.70, "94721a5f4162ccd6"),
        (405, 2667, 337, 0.69036, 0.68, "54b03610bcee5cb3"),
        (406, 3299, 416, 0.70051, 0.69, "f903fc38e9c82e4f"),
        (407, 2116, 267, 0.62944, 0.62, "2eaea78592468524"),
        (408, 3065, 386, 0.68020, 0.67, "947bbfeb79e35029"),
        (409, 2328, 294, 0.69036, 0.68, "4866537e57daee5f"),
        (410, 2718, 342, 0.69036, 0.68, "a799e18bfabb8c3a"),
        (411, 2667, 337, 0.69036, 0.68, "408d300ff461e0df"),
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
