"""The outside-in tracer and the checks of the benchmark command."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import promptopt.engine
import promptopt.evaluation
import promptopt.msgd_rl
import promptopt.operators

import run as bench
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
MODULES = (promptopt.engine, promptopt.evaluation, promptopt.msgd_rl, promptopt.operators)


def small_fixture(tmp_path, workload="cls_rl_latency"):
    fx = bench.Fixture(workload, 7, tmp_path)
    for spec in fx.specs:
        spec.cfg.iterations = 2
        spec.latency_s = 0.0
    return fx


def names(module):
    return {k: v for k, v in vars(module).items() if callable(v)}


def test_traced_run_leaves_the_same_run_directory(tmp_path):
    fx = small_fixture(tmp_path)
    before = [names(m) for m in MODULES]
    plain = bench.run_train(fx, 0, traced=False)
    report = (tmp_path / "run-0" / "report.json").read_bytes()
    traced = bench.run_train(fx, 0, traced=True)
    # the signature holds the digest of report.json and every checkpoint
    assert traced.signature() == plain.signature()
    assert (tmp_path / "run-0" / "report.json").read_bytes() == report
    assert [names(m) for m in MODULES] == before
    assert traced.layers["evaluation.calls"] > 0
    assert traced.layers["backend.requests"] == traced.requests


def test_per_layer_metrics_and_overhead_are_reported(tmp_path):
    fx = small_fixture(tmp_path)
    reference, plain, traced, _ = bench.measure(fx, 0.0, trace=True)
    metrics = bench.per_layer(plain, traced, tmp_path)
    assert set(metrics) == set(bench.declared_units("per_layer"))
    assert "trace.overhead_ratio" in metrics
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_layer_map_names_declared_metrics():
    plan = json.loads((ROOT / "perfbench" / "plan.json").read_text())
    layers = set(bench.declared_units("per_layer"))
    ends = set(bench.declared_units("end_to_end"))
    for row in plan["layer_map"]:
        assert set(row["metrics"]) <= layers
        assert set(row["moves"]) <= ends


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "engine:train", 0.0, 10.0),
        (2, 1, "evaluation:evaluate", 1.0, 5.0),
        (3, 2, "backend:generate_batch", 2.0, 4.0),
        # two requests of the batch in flight at once
        (4, 3, "backend:generate", 2.0, 3.0),
        (5, 3, "backend:generate", 2.5, 3.5),
    ]
    got = self_times(spans)
    assert got == Counter({"engine": 6.0, "evaluation": 2.0, "backend": 2.5})


def test_missing_patch_target_is_listed():
    tracer = Tracer()
    tracer.patch(promptopt.engine, "no_such_function", "engine:none")
    assert tracer.missing == ["engine:none"]
    tracer.restore()


def test_traced_run_fails_when_a_target_is_missing(tmp_path, monkeypatch):
    fx = small_fixture(tmp_path)
    before = [names(m) for m in MODULES]
    monkeypatch.delattr(promptopt.evaluation, "extract_first_json")
    with pytest.raises(bench.CheckFailed, match="jsontools:extract_first_json"):
        bench.run_train(fx, 0, traced=True)
    monkeypatch.undo()
    assert [names(m) for m in MODULES] == before


def test_checks_reject_a_wrong_run(tmp_path):
    fx = small_fixture(tmp_path)
    spec, oracle = fx.specs[0], fx.oracles[0]
    backend = fx.new_backend(0)
    meter = bench.Meter(backend, probe=False)
    best, report, _ = promptopt.engine.train(spec.cfg, spec.train, spec.test,
                                             spec.template, backend,
                                             run_dir=tmp_path / "run")
    bests = [row["best"] for row in report.iterations]
    marks = list(range(len(bests)))
    done = backend.usage.requests

    def check(answered=done, remote=False, bests=bests, marks=marks):
        bench.check_run(spec, oracle, best, report, backend, meter, answered, remote,
                        bests, marks)

    check()
    # a remote oracle may answer a request whose reply was lost
    check(answered=done + 1, remote=True)
    with pytest.raises(bench.CheckFailed, match="oracle answered"):
        check(answered=done + 1)
    with pytest.raises(bench.CheckFailed, match="oracle answered"):
        check(answered=done - 1, remote=True)
    with pytest.raises(bench.CheckFailed, match="best decreased"):
        check(bests=[0.5, 0.4], marks=[1, 2])
    meter.failed += 1
    with pytest.raises(bench.CheckFailed, match="attempted"):
        check()
    meter.failed -= 1
    report.final_test_objective += 0.01
    with pytest.raises(bench.CheckFailed, match="re-scored"):
        check()


def test_failed_requests_are_counted_not_fatal(tmp_path, monkeypatch, capsys):
    import oracle as oracle_mod
    import workloads

    def small(seed):
        spec = workloads.cls_rl_latency(seed)
        spec.cfg.iterations = 2
        spec.latency_s = 0.0
        return spec

    victim = small(workloads.sub_seeds("cls_rl_latency", 3)[0]).train[0].input
    answer = oracle_mod.Oracle.answer

    def failing_answer(self, text):
        if oracle_mod.INPUT_OPEN + victim + oracle_mod.INPUT_CLOSE in text:
            raise oracle_mod.BackendError("injected failure")
        return answer(self, text)

    monkeypatch.setitem(workloads.WORKLOADS, "cls_rl_latency", small)
    monkeypatch.setattr(oracle_mod.Oracle, "answer", failing_answer)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench.signal, "signal", lambda *args: None)
    code = bench.main(["--workload", "cls_rl_latency", "--seed", "3",
                       "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and 0 < result["failed"] < result["attempted"]
    ok = result["metrics"]["ok_ratio"]
    assert ok["unit"] == "ratio" and 0.9 < ok["value"] < 1.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cls_rl_latency",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""

