"""tools/race_pairs.py on two hand-written race_numbers.py --json files: rows
pair by (seed, slots) whatever their order, each column's paired difference
has the sample standard deviation over the square root of the pairs as its
standard error, the runs that sent byte-identical requests are counted per
slot count, and files run at other settings are refused."""

import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def doc(rows, **settings):
    base = {"workload": "cls_rl_latency", "seeds": [101], "slots": [64, 8],
            "iterations": 12, "noise": 0.0, "budgets": [2000],
            "columns": ["requests", "p@2000"], "summary": []}
    base.update(settings)
    base["rows"] = [{"seed": seed, "slots": slots, "requests": requests, "p@2000": p,
                     "sha256": "0" * 64} for seed, slots, requests, p in rows]
    return base


PARENT = doc([(404, 64, 10, 0.60), (405, 64, 20, 0.62), (406, 64, 30, 0.64),
              (404, 8, 40, 0.70), (405, 8, 50, 0.70), (406, 8, 60, 0.70)])
# the same runs in another order: by (seed, slots) the requests change by
# -2, -1 and -3 at 64 slots and by +5 at 8, where position would pair them
# otherwise
CHANGE = doc([(406, 8, 65, 0.70), (406, 64, 27, 0.64), (404, 64, 8, 0.61),
              (405, 8, 55, 0.70), (404, 8, 45, 0.70), (405, 64, 19, 0.65)])


@pytest.fixture
def race_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import race_pairs

    return race_pairs


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    return str(path)


def test_rows_pair_by_seed_and_slots(race_pairs):
    got = {(r["slots"], r["column"]): r for r in race_pairs.pairs(PARENT, CHANGE)}
    assert list(got) == [(64, "requests"), (64, "p@2000"), (8, "requests"), (8, "p@2000")]
    requests = got[64, "requests"]
    assert requests["runs"] == 3
    assert (requests["parent"], requests["change"], requests["diff"]) == (20, 18, -2)
    # the differences -2, -1, -3 have sample standard deviation 1
    assert requests["se"] == pytest.approx(1 / math.sqrt(3))
    assert got[64, "p@2000"]["diff"] == pytest.approx(0.04 / 3)
    assert got[8, "requests"]["diff"] == 5 and got[8, "requests"]["se"] == 0
    assert got[8, "p@2000"]["diff"] == 0


def test_standard_error(race_pairs):
    assert race_pairs.se([3.0]) == 0.0
    assert race_pairs.se([1.0, 3.0]) == pytest.approx(1.0)  # stdev sqrt(2), 2 values


def test_prints_the_table(race_pairs, tmp_path, capsys):
    assert race_pairs.main([write(tmp_path, "a.json", PARENT),
                            write(tmp_path, "b.json", CHANGE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cls_rl_latency, seeds 101, iterations 12, noise 0.0"
    assert out[2].split() == ["64", "requests", "3", "20.0000", "18.0000", "-2.0000", "0.5774"]


def test_counts_the_runs_that_sent_byte_identical_requests(race_pairs, tmp_path, capsys):
    # seed 405 at 64 slots sent other requests; every other pair sent the same
    change = dict(CHANGE, rows=[dict(row, sha256="1" * 64)
                                if (row["seed"], row["slots"]) == (405, 64) else row
                                for row in CHANGE["rows"]])
    assert race_pairs.identical(PARENT, change) == [(64, 2, 3), (8, 3, 3)]
    assert race_pairs.identical(PARENT, CHANGE) == [(64, 3, 3), (8, 3, 3)]
    assert race_pairs.main([write(tmp_path, "a.json", PARENT),
                            write(tmp_path, "b.json", change)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "64 slots: 2 of 3 paired runs sent byte-identical requests",
        "8 slots: 3 of 3 paired runs sent byte-identical requests"]


@pytest.mark.parametrize("setting, value", [
    ("workload", "mrc_http"), ("seeds", [101, 102]), ("slots", [64]), ("iterations", None),
    ("noise", 0.5), ("budgets", [3000]),
    ("columns", ["requests"]),  # a file from a race_numbers.py with other columns
])
def test_files_at_other_settings_are_refused(race_pairs, tmp_path, capsys, setting, value):
    other = dict(CHANGE, **{setting: value})
    assert race_pairs.main([write(tmp_path, "a.json", PARENT),
                            write(tmp_path, "b.json", other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the files differ in %s\n" % setting


def test_rows_that_do_not_pair_are_refused(race_pairs, tmp_path, capsys):
    other = dict(CHANGE, rows=CHANGE["rows"][:-1])
    assert race_pairs.main([write(tmp_path, "a.json", PARENT),
                            write(tmp_path, "b.json", other)]) == 2
    assert "(seed, slots)" in capsys.readouterr().err
