"""What racing costs and what it finds, run by run: in-process training runs
of a benchmark workload, each with its requests, latency units, tokens,
round trips, test F1, true prompt quality, the returned prompt's length and
a digest of every request it sent.

Each run drives the training loop of `promptopt.engine` (its trainer,
subclassed as `Marking` to record the budget curve) on one of perfbench's
workload specs against its `OracleBackend` at latency 0, with `slots`
requests to a wave.
perfbench's modules are imported, never edited. A unit is one wave: a batch
of b requests costs ceil(b / slots). A round trip is one generate_batch
call, whatever its size; round trips run one after another. Tokens are the
prompt and completion tokens of every reply. True p is
`oracle.accuracy_level` of the returned prompt, the quality the oracle
planted in it. Its length is `count_tokens` of its text rendered with an
empty input, the tokens it adds to every request it is sent in. The digest
is a sha256 over the content hash of each request, in the order sent, so
two runs that send the same requests have the same digest.

    PYTHONPATH=src python tools/race_numbers.py --seeds 101-110 --slots 64 8

prints one row per run and, per slot count, the mean of each column with
its standard error (the sample standard deviation over the square root of
the number of runs) on the row below.

Three options compare settings at equal cost and under noise:
`--iterations N` overrides the workload's iteration budget; `--budgets B...`
adds a column per budget B, the true p of the best pool prompt at the last
iteration end (the initial pool's scoring counts as iteration 0) that the
run reached within B training requests; and `--noise W` serves the run
through `Noisy`, which answers a share W of the evaluation requests with a
fresh draw. So the quality per request of 12-iteration runs under noise is

    PYTHONPATH=src python tools/race_numbers.py --iterations 12 \
        --budgets 2000 3000 4000 5000 --noise 0.5 --slots 64

`--json FILE` also writes the settings, every row, and each slot count's
means and standard errors to FILE. Two versions of the program are compared
run by run by pointing PYTHONPATH at each one's `src`, writing one such file
for each, and pairing their rows by seed and slot count with
`tools/race_pairs.py`:

    PYTHONPATH=../parent/src python tools/race_numbers.py --slots 64 --json parent.json
    PYTHONPATH=src python tools/race_numbers.py --slots 64 --json change.json
    python tools/race_pairs.py parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from oracle import (  # noqa: E402
    INPUT_CLOSE,
    INPUT_OPEN,
    OracleBackend,
    accuracy_level,
    count_tokens,
    unit,
)
from race_pairs import se  # noqa: E402
from workloads import build  # noqa: E402

from promptopt.backend import Backend, GenerationResponse, UsageCounter  # noqa: E402
from promptopt.engine import _best, _Trainer  # noqa: E402
from promptopt.prompt_model import render  # noqa: E402


class Row(NamedTuple):
    seed: int  # the training run's seed, one of the workload seed's sub-seeds
    requests: int
    units: int
    tokens: int
    round_trips: int  # generate_batch calls
    test_f1: float
    true_p: float
    prompt_len: int  # the returned prompt's length in tokens (see prompt_len)
    sha256: str
    # the true p reached within each budget of training requests (see Marking)
    curve: tuple = ()


class Counting(OracleBackend):
    """OracleBackend that counts units and round trips and digests the
    requests it serves."""

    def __init__(self, oracle, slots: int):
        super().__init__(oracle, 0.0, slots)
        self.units = 0
        self.round_trips = 0
        self.digest = hashlib.sha256()

    def _serve(self, req):
        self.digest.update(req.content_hash().encode())
        return super()._serve(req)

    def generate_batch(self, reqs):
        self.units += math.ceil(len(reqs) / self.max_parallel)
        self.round_trips += 1
        return super().generate_batch(reqs)


class Noisy(Backend):
    """A backend around an OracleBackend that answers a share of the
    evaluation requests from a fresh draw. A request is picked when a draw
    keyed by the sha256 of its text is below `share`; then whether its
    example is answered right is a second such draw, at the accuracy level
    that the oracle gives the request's prompt, in place of the example's
    fixed draw. So a reply stays a pure function of the request text, and
    only correctness changes: the reply's wrapping, and whether it is
    malformed, stay the oracle's (on NER, a picked example's spans are all
    right or all wrong). Operator requests, and evaluation requests not
    picked, get the oracle's reply. `usage` counts the replies as returned.
    Training sends only batches, so only generate_batch is served."""

    def __init__(self, inner: OracleBackend, share: float):
        self.inner = inner
        self.share = share
        self.max_parallel = inner.max_parallel
        self.usage = UsageCounter()

    def _noisy(self, req, res):
        if not isinstance(res, GenerationResponse):
            return res
        text = req.messages[-1][1]
        oracle = self.inner.oracle
        start = text.find(INPUT_OPEN)
        if start >= 0 and unit(oracle.seed, "noise", text) < self.share:
            end = text.find(INPUT_CLOSE, start)
            inp = text[start + len(INPUT_OPEN):end]
            p = accuracy_level(text[:start] + text[end:])
            # the oracle answers right where the example's own draw, which
            # lies in (0, 1), is below the level it is given
            right = unit(oracle.seed, "noise draw", text) < p
            out = oracle._eval_reply(inp, 1.0 if right else 0.0)
            res = res._replace(text=out, completion_tokens=count_tokens(out))
        self.usage.add(res)
        return res

    def generate_batch(self, reqs):
        return [self._noisy(req, res)
                for req, res in zip(reqs, self.inner.generate_batch(reqs))]


class Marking(_Trainer):
    """The trainer, marking after the initial pool's scoring and after each
    iteration the training requests sent so far and the true p of the
    pool's best prompt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.marks: list[tuple[int, float]] = []

    def _mark(self, pool) -> None:
        self.marks.append((self.backend.usage.requests,
                           true_p(_best(pool, self.cfg.objective).prompt)))

    def _iteration(self, iteration, pool):
        if iteration == 1:
            self._mark(pool)
        pool = super()._iteration(iteration, pool)
        self._mark(pool)
        return pool

    def curve(self, budgets: Sequence[int]) -> tuple:
        """The true p of the last mark within each budget; nan when even the
        initial pool's scoring passed it."""
        within = ([p for n, p in self.marks if n <= b] for b in budgets)
        return tuple(ps[-1] if ps else math.nan for ps in within)


def true_p(prompt) -> float:
    """The accuracy the oracle gives `prompt`: that of its rendered text with
    the input taken out, as the oracle sees an evaluation request."""
    text = render(prompt, "")
    start = text.find(INPUT_OPEN)
    return accuracy_level(text[:start] + text[start + len(INPUT_OPEN):])


def prompt_len(prompt) -> int:
    """The length in tokens of `prompt` rendered with an empty input."""
    return count_tokens(render(prompt, ""))


def race_numbers(workload: str, seeds: Sequence[int], slots: int,
                 iterations: Optional[int] = None, budgets: Sequence[int] = (),
                 noise: float = 0.0) -> list[Row]:
    """One row per training run of `workload` at each of `seeds`, with
    `iterations` in place of the workload's own when given, the true p
    within each of `budgets` training requests, and a share `noise` of the
    evaluation requests answered by Noisy."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for j, spec in enumerate(build(workload, seed, Path(tmp))):
                cfg = spec.cfg if iterations is None else replace(spec.cfg, iterations=iterations)
                counting = Counting(spec.oracle(), slots)
                backend = Noisy(counting, noise) if noise else counting
                trainer = Marking(cfg, spec.train, spec.test, spec.template, backend,
                                  run_dir=Path(tmp) / ("run-%d-%d" % (seed, j)))
                best, report, _ = trainer.run()
                rows.append(Row(cfg.seed, backend.usage.requests, counting.units,
                                backend.usage.total_tokens, counting.round_trips,
                                report.final_test_objective, true_p(best.prompt),
                                prompt_len(best.prompt), counting.digest.hexdigest(),
                                trainer.curve(budgets)))
    return rows


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def columns(rows: Sequence[Row], budgets: Sequence[int]) -> dict[str, list]:
    """Each numeric column of `rows` by name, the true p within each budget
    B as p@B."""
    out = {name: [getattr(r, name) for r in rows]
           for name in ("requests", "units", "tokens", "round_trips", "test_f1", "true_p",
                        "prompt_len")}
    for i, b in enumerate(budgets):
        out["p@%d" % b] = [r.curve[i] for r in rows]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="cls_rl_latency")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-110"),
                        help="a workload seed or an inclusive range, such as 101-110")
    parser.add_argument("--slots", type=int, nargs="+", default=[64, 8])
    parser.add_argument("--iterations", type=int,
                        help="each run's iterations, in place of the workload's")
    parser.add_argument("--budgets", type=int, nargs="+", default=[], metavar="B",
                        help="add the true p reached within B training requests")
    parser.add_argument("--noise", type=float, default=0.0, metavar="W",
                        help="answer this share of evaluation requests by a fresh draw")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the settings, every row and the means and SEs here")
    args = parser.parse_args(argv)
    budgets = "".join(" %7s" % ("p@%d" % b) for b in args.budgets)
    print("%-6s %5s %8s %6s %9s %5s %8s %7s %6s%s  %s" % (
        "seed", "slots", "requests", "units", "tokens", "trips", "test_f1", "true_p", "length",
        budgets, "sha256"))
    doc = {"workload": args.workload, "seeds": args.seeds, "slots": args.slots,
           "iterations": args.iterations, "noise": args.noise, "budgets": args.budgets,
           "columns": list(columns([], args.budgets)), "rows": [], "summary": []}
    curve = " %7.4f" * len(args.budgets)
    for slots in args.slots:
        rows = race_numbers(args.workload, args.seeds, slots, args.iterations, args.budgets,
                            args.noise)
        for row in rows:
            print(("%-6d %5d %8d %6d %9d %5d %8.5f %7.4f %6d" + curve + "  %s") % (
                row.seed, slots, row.requests, row.units, row.tokens, row.round_trips,
                row.test_f1, row.true_p, row.prompt_len, *row.curve, row.sha256[:16]))
        table = columns(rows, args.budgets)
        for i, row in enumerate(rows):
            doc["rows"].append({"seed": row.seed, "slots": slots,
                                **{name: values[i] for name, values in table.items()},
                                "sha256": row.sha256})
        means = {name: statistics.fmean(values) for name, values in table.items()}
        ses = {name: se(values) for name, values in table.items()}
        doc["summary"].append({"slots": slots, "runs": len(rows), "mean": means, "se": ses})
        line = "%-6s %5d %8.3f %6.3f %9.1f %5.2f %8.5f %7.4f %6.1f" + curve
        print((line + "  (%d runs)") % ("mean", slots, *means.values(), len(rows)))
        print((line + "\n") % ("se", slots, *ses.values()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
