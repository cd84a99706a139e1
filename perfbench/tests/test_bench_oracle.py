"""The planted-signal oracle and the in-process backend."""

from dataclasses import replace

import pytest

from promptopt.backend import user_request
from promptopt.engine import initialize_candidates, train
from promptopt.evaluation import FORMAT_FAILURE, evaluate, parse_prediction
from promptopt.operators import cot_scaffold
from promptopt.prompt_model import Candidate, render

import workloads
from oracle import EVAL_FENCED, EVAL_MALFORMED, EVAL_PROSE, OracleBackend


def small_cls(seed=5):
    spec = workloads.cls_rl_latency(seed)
    spec.cfg = replace(spec.cfg, iterations=3)
    return spec


def tree(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def train_once(spec, run_dir):
    backend = OracleBackend(spec.oracle())
    _, report, _ = train(spec.cfg, spec.train, spec.test, spec.template, backend,
                         run_dir=run_dir)
    return backend.usage.snapshot(), report.to_dict(), tree(run_dir)


def test_same_seed_gives_same_counts_and_run_dir(tmp_path):
    first = train_once(small_cls(), tmp_path / "a")
    second = train_once(small_cls(), tmp_path / "b")
    assert first == second
    assert first != train_once(small_cls(seed=6), tmp_path / "c")


def test_planted_cell_raises_accuracy():
    spec = workloads.cls_rl_latency(5)
    backend = OracleBackend(spec.oracle())
    template = spec.template
    label = template.section_by_id("label:sports")
    task = template.section_by_id("task_description")

    def f1(prompt):
        return evaluate(Candidate(prompt), spec.train, backend)[0].f1

    base = f1(template)
    elsewhere = f1(template.with_body(task.id, cot_scaffold(task)))
    planted = f1(template.with_body(label.id, cot_scaffold(label)))
    # any edit helps a little, the planted cell much more
    assert base < elsewhere < planted
    assert planted - base > 2 * (elsewhere - base)


def test_identical_requests_get_distinct_replies():
    spec = workloads.cls_rl_latency(5)
    backend = OracleBackend(spec.oracle())
    pool = initialize_candidates(spec.template, backend, beam_init=4, seed=5)
    assert len(pool) == 4


def test_evaluation_replies_depend_only_on_the_text():
    spec = workloads.cls_rl_latency(5)
    oracle = spec.oracle()
    text = render(spec.template, spec.train[0].input)
    assert oracle.answer(text) == oracle.answer(text)


def test_reply_format_shares():
    spec = workloads.ner_msgd_cpu(5)
    oracle = spec.oracle()
    replies = [oracle.answer(render(spec.template, ex.input)) for ex in spec.train]
    n = len(replies)
    fenced = sum(r.startswith("```json") for r in replies)
    prose = sum(r.startswith("After reading") for r in replies)
    failed = sum(parse_prediction("NER", r) is FORMAT_FAILURE for r in replies)
    assert failed == pytest.approx(EVAL_MALFORMED * n, abs=1)
    # malformed replies come out of the fenced and prose shares too
    assert fenced == pytest.approx(EVAL_FENCED * n, abs=0.02 * n)
    assert prose == pytest.approx(EVAL_PROSE * n, abs=0.02 * n)


def test_latency_is_per_batch_of_slots(monkeypatch):
    import oracle

    slept = []
    monkeypatch.setattr(oracle.time, "sleep", slept.append)
    spec = workloads.cls_rl_latency(5)
    backend = OracleBackend(spec.oracle(), latency_s=0.02, slots=4)
    reqs = [user_request(render(spec.template, ex.input)) for ex in spec.train[:9]]
    assert len(backend.generate_batch(reqs)) == 9
    backend.generate(reqs[0])
    assert slept == [pytest.approx(0.06), pytest.approx(0.02)]
    assert backend.usage.requests == 10
