"""What racing costs and what it finds, run by run: in-process training runs
of a benchmark workload, each with its requests, latency units, test F1,
true prompt quality and a digest of every request it sent.

Each run drives `promptopt.engine.train` on one of perfbench's workload specs
against its `OracleBackend` at latency 0, with `slots` requests to a wave.
perfbench's modules are imported, never edited. A unit is one wave: a batch
of b requests costs ceil(b / slots). True p is `oracle.accuracy_level` of
the returned prompt, the quality the oracle planted in it. The digest is a
sha256 over the content hash of each request, in the order sent, so two
runs that send the same requests have the same digest.

    PYTHONPATH=src python tools/race_numbers.py --seeds 101-110 --slots 64 8

prints one row per run and, per slot count, the mean of each column with
its standard error (the sample standard deviation over the square root of
the number of runs) on the row below.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import statistics
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from oracle import INPUT_OPEN, OracleBackend, accuracy_level  # noqa: E402
from workloads import build  # noqa: E402

from promptopt.engine import train  # noqa: E402
from promptopt.prompt_model import render  # noqa: E402


class Row(NamedTuple):
    seed: int  # the training run's seed, one of the workload seed's sub-seeds
    requests: int
    units: int
    test_f1: float
    true_p: float
    sha256: str


class Counting(OracleBackend):
    """OracleBackend that counts units and digests the requests it serves."""

    def __init__(self, oracle, slots: int):
        super().__init__(oracle, 0.0, slots)
        self.units = 0
        self.digest = hashlib.sha256()

    def _serve(self, req):
        self.digest.update(req.content_hash().encode())
        return super()._serve(req)

    def generate_batch(self, reqs):
        self.units += math.ceil(len(reqs) / self.max_parallel)
        return super().generate_batch(reqs)


def true_p(prompt) -> float:
    """The accuracy the oracle gives `prompt`: that of its rendered text with
    the input taken out, as the oracle sees an evaluation request."""
    text = render(prompt, "")
    start = text.find(INPUT_OPEN)
    return accuracy_level(text[:start] + text[start + len(INPUT_OPEN):])


def race_numbers(workload: str, seeds: Sequence[int], slots: int) -> list[Row]:
    """One row per training run of `workload` at each of `seeds`."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for j, spec in enumerate(build(workload, seed, Path(tmp))):
                oracle = spec.oracle()
                backend = Counting(oracle, slots)
                best, report, _ = train(spec.cfg, spec.train, spec.test, spec.template,
                                        backend, run_dir=Path(tmp) / ("run-%d-%d" % (seed, j)))
                rows.append(Row(spec.cfg.seed, backend.usage.requests, backend.units,
                                report.final_test_objective, true_p(best.prompt),
                                backend.digest.hexdigest()))
    return rows


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _se(values: Sequence[float]) -> float:
    """The standard error of the mean of `values`; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="cls_rl_latency")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-110"),
                        help="a workload seed or an inclusive range, such as 101-110")
    parser.add_argument("--slots", type=int, nargs="+", default=[64, 8])
    args = parser.parse_args(argv)
    print("%-6s %5s %8s %6s %8s %7s  %s" % (
        "seed", "slots", "requests", "units", "test_f1", "true_p", "sha256"))
    for slots in args.slots:
        rows = race_numbers(args.workload, args.seeds, slots)
        for row in rows:
            print("%-6d %5d %8d %6d %8.5f %7.4f  %s" % (
                row.seed, slots, row.requests, row.units, row.test_f1, row.true_p,
                row.sha256[:16]))
        columns = [[r.requests for r in rows], [r.units for r in rows],
                   [r.test_f1 for r in rows], [r.true_p for r in rows]]
        print("%-6s %5d %8.3f %6.3f %8.5f %7.4f  (%d runs)" % (
            "mean", slots, *map(statistics.fmean, columns), len(rows)))
        print("%-6s %5d %8.3f %6.3f %8.5f %7.4f\n" % ("se", slots, *map(_se, columns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
