"""promptopt benchmark: training runs of each workload, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: this process calls `promptopt.engine.train`,
and `train` waits on its own batches. A round is one training run on each of
the inputs made from the seed (workloads.SUBRUNS gives how many). After a
warm-up round, rounds repeat until S seconds have passed; every round must
repeat the warm-up round's counts, scores and run directories exactly.

--trace 0 prints the end-to-end metrics, as means per training run. Times
are in reference seconds (see speed.py): train_wall_s is the mean over the
timed rounds, setup_s the median of the set-ups timed between them. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones, in seconds as measured, with the tracing overhead. A round
that fails a check (see `check_run`) prints no result and exits 1. Metric
names and units come from BENCHMARK.json. The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import REF_NOMINAL_S, reference_loop, to_reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_TIMED_ROUNDS = 2
SETUPS = 15  # set-ups timed in one end-to-end run, spread over its rounds


def declared_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


class CheckFailed(Exception):
    pass


def load_program():
    """Import promptopt from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "promptopt"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit("error: no promptopt sources at %s" % pkg)
    sys.path.insert(0, str(ROOT / "src"))
    import promptopt

    if Path(promptopt.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("error: imported promptopt from %s" % promptopt.__file__)


class Fixture:
    """One set-up of a workload: the inputs of every training run, their
    oracles and, for the HTTP workload, the loopback stub."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        from stub import Stub
        from workloads import build

        self.specs = build(name, seed, work_dir)
        # in-process oracles serve in-process runs and answer the checks
        self.oracles = [spec.oracle() for spec in self.specs]
        self.stub = Stub(name, seed) if self.specs[0].http else None
        self.work_dir = work_dir

    def new_backend(self, i: int):
        from promptopt.backend import BackendConfig, HttpBackend
        from oracle import OracleBackend

        spec = self.specs[i]
        if self.stub:
            return HttpBackend(BackendConfig(base_url=self.stub.base_url,
                                             max_parallel=spec.slots))
        return OracleBackend(self.oracles[i], spec.latency_s, spec.slots)

    def reset(self, i: int) -> None:
        if self.stub:
            self.stub.reset()
        else:
            self.oracles[i].reset()

    def oracle_stats(self, i: int):
        """(requests the oracle answered, seconds in it or None in-process)."""
        if self.stub:
            stats = self.stub.stats()
            return stats["requests"], stats["oracle_s"]
        return self.oracles[i].requests, None

    def close(self) -> None:
        if self.stub:
            self.stub.close()


class Meter:
    """Wraps the backend's `generate` and `generate_batch` on the instance.
    Counts the requests the program attempted and those that failed with a
    BackendError. With `probe`, times the reference loop at the start and
    before each call from the program, here and, through `remote`, in the
    process that serves the requests; `overhead_s` is the time that took."""

    def __init__(self, backend, probe: bool, remote=None):
        from promptopt.errors import BackendError

        self.attempted = 0
        self.failed = 0
        self.probes = []
        self.overhead_s = 0.0
        self._probe = probe
        self._remote = remote
        self._in_batch = False
        self._sample()
        generate, generate_batch = backend.generate, backend.generate_batch

        def metered_generate(req):
            if self._in_batch:  # a request of a batch: the batch counts it
                return generate(req)
            self._sample()
            self.attempted += 1
            try:
                return generate(req)
            except BackendError:
                self.failed += 1
                raise

        def metered_batch(reqs):
            self._sample()
            self._in_batch = True
            try:
                results = generate_batch(reqs)
            finally:
                self._in_batch = False
            self.attempted += len(results)
            self.failed += sum(isinstance(r, BackendError) for r in results)
            return results

        backend.generate = metered_generate
        backend.generate_batch = metered_batch

    def _sample(self) -> None:
        if self._probe:
            t0 = time.perf_counter()
            self.probes.append(reference_loop())
            if self._remote:
                self.probes.append(self._remote())
            self.overhead_s += time.perf_counter() - t0


@dataclass
class Run:
    wall_s: float  # as measured, without the reference loops
    slept_s: float  # of wall_s, simulated latency
    probes: list  # reference loop times, none when traced
    requests: int
    tokens: int
    attempted: int
    failed: int
    bests: list
    test_f1: float
    requests_to_best: int
    digest: str
    layers: dict = None
    tracer: object = None

    def signature(self):
        return (self.requests, self.tokens, self.attempted, self.failed, self.bests,
                self.test_f1, self.requests_to_best, self.digest)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_train(fx: Fixture, i: int, traced: bool) -> Run:
    """Training run i of a round, timed from backend construction to the
    return of `train`."""
    import promptopt.engine as engine
    from tracer import Tracer, install, layer_metrics

    spec = fx.specs[i]
    run_dir = fx.work_dir / ("run-%d" % i)
    fx.reset(i)
    shutil.rmtree(run_dir, ignore_errors=True)
    marks = []  # requests issued when each iteration ends
    retain = engine.retain

    def mark_iteration(*args, **kwargs):
        marks.append(backend.usage.requests)
        return retain(*args, **kwargs)

    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    backend = fx.new_backend(i)
    meter = Meter(backend, probe=not traced, remote=fx.stub.probe if fx.stub else None)
    engine.retain = mark_iteration
    try:
        if tracer:
            state = install(tracer, backend, None if fx.stub else fx.oracles[i], spec.test)
        try:
            if tracer and tracer.missing:
                raise CheckFailed("not traced, missing from the program: %s"
                                  % ", ".join(tracer.missing))
            best, report, _ = engine.train(spec.cfg, spec.train, spec.test, spec.template,
                                           backend, run_dir=run_dir)
            wall = time.perf_counter() - t0 - meter.overhead_s
        finally:
            if tracer:
                tracer.restore()
    finally:
        engine.retain = retain

    answered, oracle_s = fx.oracle_stats(i)
    bests = [row["best"] for row in report.iterations]
    check_run(spec, fx.oracles[i], best, report, backend, meter, answered, bool(fx.stub),
              bests, marks)
    run = Run(
        wall_s=wall,
        slept_s=getattr(backend, "slept", 0.0),
        probes=meter.probes,
        requests=backend.usage.requests,
        tokens=backend.usage.total_tokens,
        attempted=meter.attempted,
        failed=meter.failed,
        bests=bests,
        test_f1=report.final_test_objective,
        requests_to_best=marks[bests.index(max(bests))],
        digest=tree_digest(run_dir),
    )
    if tracer:
        run.layers = layer_metrics(tracer, state, wall, spec.latency_s, spec.slots,
                                   oracle_s=oracle_s)
        run.tracer = tracer
    return run


def check_run(spec, oracle, best, report, backend, meter, answered, remote, bests,
              marks) -> None:
    """The correctness checks every training run must pass. `answered` is
    the oracle's count of the requests it answered; a remote oracle may have
    answered a request whose reply the client did not receive."""
    from promptopt.backend import user_request
    from promptopt.evaluation import parse_prediction, score
    from promptopt.prompt_model import render

    done = backend.usage.requests
    if meter.attempted < 1:
        raise CheckFailed("no backend operation was attempted")
    if meter.attempted != done + meter.failed:
        raise CheckFailed("%d requests attempted, but %d completed and %d failed"
                          % (meter.attempted, done, meter.failed))
    if answered < done or (answered != done and not remote):
        raise CheckFailed("oracle answered %d requests, backend completed %d"
                          % (answered, done))
    if any(b < a for a, b in zip(bests, bests[1:])):
        raise CheckFailed("per-iteration best decreased: %r" % bests)
    if len(marks) != len(bests):
        raise CheckFailed("saw %d iteration ends for %d iterations"
                          % (len(marks), len(bests)))
    # re-score the best candidate's test predictions outside the program
    gold, preds = {}, {}
    for ex in spec.test:
        req = user_request(render(best.prompt, ex.input), model=spec.cfg.model)
        gold[ex.id] = ex.gold
        preds[ex.id] = parse_prediction(spec.task, oracle.answer(req.messages[-1][1]))
    rescored = score(spec.task, gold, preds, objective=spec.cfg.objective).objective_value()
    if rescored != report.final_test_objective:
        raise CheckFailed("re-scored test objective %r != reported %r"
                          % (rescored, report.final_test_objective))


def run_round(fx: Fixture, traced: bool) -> list[Run]:
    return [run_train(fx, i, traced) for i in range(len(fx.specs))]


def set_up(name: str, seed: int, work_dir: Path, times: list) -> Fixture:
    """Set the workload up; append the time taken, in reference seconds at
    the speed of the reference loop just before and after."""
    before = reference_loop()
    t0 = time.perf_counter()
    fx = Fixture(name, seed, work_dir)
    elapsed = time.perf_counter() - t0
    times.append(elapsed * REF_NOMINAL_S * 2 / (before + reference_loop()))
    return fx


def measure(fx: Fixture, seconds: float, trace: bool, between=None):
    """Warm-up round, then timed rounds until `seconds` pass, calling
    between(fraction of `seconds` gone) after each. With trace, timed rounds
    alternate untraced and traced. Returns the warm-up round, the untraced
    and traced rounds, and the peak resident set size after the warm-up, in
    MB."""
    reference = run_round(fx, traced=False)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        runs = run_round(fx, traced=use_trace)
        if [r.signature() for r in runs] != [r.signature() for r in reference]:
            raise CheckFailed("a repeated round differs from the first (traced=%s)"
                              % use_trace)
        (traced if use_trace else plain).append(runs)
        gone = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        if between:
            between(min(gone, 1.0))
        enough = len(plain) >= MIN_TIMED_ROUNDS and (not trace or len(traced) >= MIN_TIMED_ROUNDS)
        if enough and gone >= 1.0:
            return reference, plain, traced, peak_mb


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def describe(name: str, values) -> None:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print("%s over %d samples: min %.4f, quartiles %.4f %.4f %.4f, max %.4f"
          % (name, len(values), min(values), q[0], q[1], q[2], max(values)))


def end_to_end(reference, plain, setup_times, peak_mb) -> dict:
    runs = [r for rnd in plain for r in rnd]
    scale = to_reference([p for r in runs for p in r.probes])
    # mean per training run; time slept for simulated latency is not scaled
    wall = mean(r.slept_s + (r.wall_s - r.slept_s) * scale for r in runs)
    describe("train wall time as measured (timed rounds, s)",
             [mean(r.wall_s for r in rnd) for rnd in plain])
    describe("setup_s (set-ups, reference seconds)", setup_times)
    print("reference loop: median %.3f ms over %d probes in training runs"
          % (statistics.median(p for r in runs for p in r.probes) * 1e3,
             sum(len(r.probes) for r in runs)))
    requests = mean(r.requests for r in reference)
    return {
        "setup_s": statistics.median(setup_times),
        "train_wall_s": wall,
        "requests_per_s": requests / wall,
        "requests": requests,
        "tokens": mean(r.tokens for r in reference),
        "best_train_f1": mean(max(r.bests) for r in reference),
        "test_f1": mean(r.test_f1 for r in reference),
        "requests_to_best": mean(r.requests_to_best for r in reference),
        "ok_ratio": sum(r.requests for r in reference) / sum(r.attempted for r in reference),
        "peak_rss_mb": peak_mb,
    }


def per_layer(plain, traced, work_dir: Path) -> dict:
    from tracer import median_metrics

    # mean over the runs of a round, median over traced rounds
    by_round = [{k: mean(r.layers[k] for r in runs) for k in runs[0].layers}
                for runs in traced]
    metrics = median_metrics(by_round)
    metrics["trace.overhead_ratio"] = (
        statistics.median(mean(r.wall_s for r in runs) for runs in traced)
        / statistics.median(mean(r.wall_s for r in runs) for runs in plain) - 1.0)
    tracer = traced[-1][-1].tracer
    spans = work_dir / "spans.jsonl"
    tracer.write(spans)
    print("traced rounds %d, untraced rounds %d; spans of the last traced run in %s"
          % (len(traced), len(plain), spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="promptopt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    # workloads imports promptopt, so only after load_program
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work_dir = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    setup_times = []
    fx = None
    try:
        fx = set_up(args.workload, args.seed, work_dir, setup_times)
        between = None
        if not args.trace:
            def between(gone):
                # set-ups in step with the rounds, at least one after each
                due = 1 + max(1, math.ceil(SETUPS * gone))
                for _ in range(max(1, due - len(setup_times))):
                    set_up(args.workload, args.seed, work_dir, setup_times).close()
        reference, plain, traced, peak_mb = measure(fx, args.seconds, bool(args.trace),
                                                    between)
    except CheckFailed as e:
        print("check failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        if fx:
            fx.close()

    if args.trace:
        metrics = per_layer(plain, traced, work_dir)
    else:
        metrics = end_to_end(reference, plain, setup_times, peak_mb)
    if set(metrics) != set(units):
        print("error: computed metrics %s differ from BENCHMARK.json's %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, units[name]))
    runs = [r for rnd in [reference] + plain + traced for r in rnd]
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
