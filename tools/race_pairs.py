"""Two versions of the program compared run by run: read two files that
`tools/race_numbers.py --json` wrote, one per version, pair their rows by
(training seed, slot count), and print for each slot count and column the
two means, the mean paired difference (second file minus first) and its
standard error, the sample standard deviation of the differences over the
square root of the number of pairs.

    python tools/race_pairs.py PARENT.json CHANGE.json

The files must come from the same settings and columns: workload, seeds,
slot counts, iterations, noise and budgets. When they do not, or when their
rows do not pair one to one, it names what differs on stderr and exits 2.
It needs neither the program nor the benchmark, only the two files.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from typing import Sequence

# what a file must share with the other to be paired with it
SETTINGS = ("workload", "seeds", "slots", "iterations", "noise", "budgets", "columns")


class Unpaired(ValueError):
    """The two files cannot be paired run by run."""


def se(values: Sequence[float]) -> float:
    """The standard error of the mean of `values`; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


def pairs(parent: dict, change: dict) -> list[dict]:
    """One record per slot count and column, in the files' order: slots,
    column, the number of pairs, each side's mean, and the mean paired
    difference with its standard error. Raises Unpaired when the files'
    settings or the keys of their rows differ."""
    differ = [key for key in SETTINGS if parent[key] != change[key]]
    if differ:
        raise Unpaired("the files differ in %s" % ", ".join(differ))

    def by_key(doc):
        rows = {(row["seed"], row["slots"]): row for row in doc["rows"]}
        if len(rows) != len(doc["rows"]):
            raise Unpaired("a file has two rows with one (seed, slots)")
        return rows

    a, b = by_key(parent), by_key(change)
    if a.keys() != b.keys():
        raise Unpaired("the files' rows differ in (seed, slots)")
    out = []
    for slots in parent["slots"]:
        keys = [key for key in a if key[1] == slots]
        for column in parent["columns"]:
            before = [a[key][column] for key in keys]
            after = [b[key][column] for key in keys]
            diffs = [y - x for x, y in zip(before, after)]
            out.append({"slots": slots, "column": column, "runs": len(keys),
                        "parent": statistics.fmean(before), "change": statistics.fmean(after),
                        "diff": statistics.fmean(diffs), "se": se(diffs)})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="race_numbers.py --json output of the first version")
    parser.add_argument("change", help="race_numbers.py --json output of the second version")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.parent, args.change):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    try:
        records = pairs(*docs)
    except Unpaired as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    doc = docs[0]
    seeds = doc["seeds"]
    shown = ",".join(map(str, seeds))
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        shown = "%d-%d" % (seeds[0], seeds[-1])
    print("%s, seeds %s, iterations %s, noise %s" % (
        doc["workload"], shown, doc["iterations"] or "the workload's", doc["noise"]))
    print("%5s %-12s %5s %12s %12s %12s %10s" % (
        "slots", "column", "runs", "parent", "change", "diff", "se"))
    for r in records:
        print("%5d %-12s %5d %12.4f %12.4f %+12.4f %10.4f" % (
            r["slots"], r["column"], r["runs"], r["parent"], r["change"], r["diff"], r["se"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
