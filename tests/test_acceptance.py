"""Acceptance gate: one test per release criterion, each printing a PASS line
when its checks hold. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion summary."""

import hashlib
import json
import random
import time

import numpy as np
import pytest

from promptopt.backend import GenerationResponse, MockBackend
from promptopt.engine import RunConfig, run_id_for, train
from promptopt.evaluation import loss, score
from promptopt.matrix import (
    GradientObservation,
    SelectionPair,
    TransitionMatrix,
    init_uniform,
    select_pairs,
    selection_distribution,
)
from promptopt.msgd import msgd_update, norm_delta
from promptopt.msgd_rl import (
    ExperienceStore,
    apply_sarsa_updates,
    load_experience,
    mean_reward,
    provisional_next_q,
    read_experience,
    rl_epoch,
    save_experience,
)
from promptopt.evaluation import ExampleRecord

from helpers import make_prompt

SECTIONS = ("Address", "Book", "Name", "Company")
OPERATORS = ("rewrite", "refine", "reflect", "cot")

PRIOR_Q = np.array([
    [0.0647, 0.0625, 0.0625, 0.0625],
    [0.0605, 0.0605, 0.0820, 0.0625],
    [0.0610, 0.0625, 0.0625, 0.0440],
    [0.0625, 0.0550, 0.0625, 0.0625],
])


def report(n, slug):
    print("ACCEPTANCE %d (%s): PASS" % (n, slug))


class TestCriterion1:
    def test_msgd_golden(self):
        start = time.monotonic()
        m = init_uniform(SECTIONS, OPERATORS)
        before = m.q.copy()

        norm_up = norm_delta(0.64513, 0.66812)
        norm_down = norm_delta(0.64513, 0.62440)
        assert norm_up == pytest.approx(0.03564, abs=1e-5)
        assert norm_down == pytest.approx(-0.03213, abs=1e-5)

        m = msgd_update(m, SelectionPair("Address", "rewrite"), norm_up, alpha=1.0)
        m = msgd_update(m, SelectionPair("Book", "refine"), norm_down, alpha=1.0)
        assert m.value("Address", "rewrite") == pytest.approx(0.0647, abs=5e-4)
        assert m.value("Book", "refine") == pytest.approx(0.0605, abs=5e-4)

        touched = {(0, 0), (1, 1)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in touched:
                    assert m.q[i, j] == before[i, j]  # bit-identical
        assert time.monotonic() - start < 1.0
        report(1, "msgd golden update")


class TestCriterion2:
    def test_msgd_rl_golden(self):
        start = time.monotonic()
        m = TransitionMatrix(SECTIONS, OPERATORS, PRIOR_Q.copy())
        epoch = [  # (section, operator, prev score, gradient)
            ("Name", "reflect", 0.6501, 0.0101),
            ("Book", "rewrite", 0.6052, -0.0012),
            ("Company", "refine", 0.5565, 0.0947),
            ("Book", "cot", 0.5254, -0.0143),
            ("Name", "cot", 0.6400, -0.0020),
        ]
        grads = [g for _, _, _, g in epoch]
        assert mean_reward(grads) == pytest.approx(0.0174, abs=1e-4)

        expected_next = [0.0726, 0.0593, 0.1497, 0.0482, 0.0419]
        for (sec, op, _, g), want in zip(epoch, expected_next):
            assert provisional_next_q(m.value(sec, op), g) == pytest.approx(want, abs=1e-3)

        obs = [
            GradientObservation(SelectionPair(sec, op), prev, prev + g)
            for sec, op, prev, g in epoch
        ]
        out = apply_sarsa_updates(m, obs, sarsa_alpha=0.5, sarsa_gamma=0.5)
        expected_final = [0.0581, 0.0537, 0.0736, 0.0520, 0.0412]
        for (sec, op, _, _), want in zip(epoch, expected_final):
            assert out.value(sec, op) == pytest.approx(want, abs=1e-3)
        assert time.monotonic() - start < 1.0
        report(2, "sarsa golden epoch")


class TestCriterion3:
    def test_loss_complement(self):
        assert loss(0.64513) == 0.35487
        report(3, "loss complement")


def brute_force_ner(gold, predictions):
    tp = fp = fn = 0
    for ex_id in gold:
        pred = predictions[ex_id] if isinstance(predictions[ex_id], dict) else {}
        for label in set(gold[ex_id]) | set(pred):
            g = set(gold[ex_id].get(label, ()))
            p = set(pred.get(label, ()))
            for span in p:
                if span in g:
                    tp += 1
                else:
                    fp += 1
            for span in g:
                if span not in p:
                    fn += 1
    return tp, fp, fn


def brute_force_cls(gold, predictions):
    tp = fp = fn = 0
    for ex_id, g in gold.items():
        p = predictions[ex_id]
        if p == g:
            tp += 1
        else:
            fn += 1
            if isinstance(p, str):
                fp += 1
    return tp, fp, fn


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestCriterion4:
    def test_oracle_equivalence(self):
        rng = random.Random(4)
        labels = ["a", "b", "c", "d"]
        for trial in range(1000):
            n = rng.randint(1, 10)
            k = rng.randint(1, 4)
            if trial % 2 == 0:
                gold, predictions = {}, {}
                for i in range(n):
                    ex = str(i)
                    gold[ex] = {
                        lbl: frozenset(
                            (s, s + rng.randint(1, 3))
                            for s in rng.sample(range(20), rng.randint(0, 2))
                        )
                        for lbl in rng.sample(labels, k)
                    }
                    predictions[ex] = {
                        lbl: frozenset(
                            (s, s + rng.randint(1, 3))
                            for s in rng.sample(range(20), rng.randint(0, 2))
                        )
                        for lbl in rng.sample(labels, k)
                    }
                rep = score("NER", gold, predictions)
                want = _prf(*brute_force_ner(gold, predictions))
            else:
                gold = {str(i): rng.choice(labels[:k]) for i in range(n)}
                predictions = {ex: rng.choice(labels[:k]) for ex in gold}
                rep = score("CLS", gold, predictions)
                want = _prf(*brute_force_cls(gold, predictions))
            assert (rep.precision, rep.recall, rep.f1) == want
        report(4, "metric oracle equivalence")


class TestCriterion5:
    def test_sampling_frequencies(self):
        m = init_uniform(SECTIONS, OPERATORS)
        counts = np.zeros((4, 4))
        for trial in range(10_000):
            pair = select_pairs(m, 1, np.random.default_rng(trial))[0]
            i, j = m.index(pair.section, pair.operator)
            counts[i, j] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.0625) < 0.01)

        q = np.zeros((4, 4))
        q[2, 1] = 0.4
        point = TransitionMatrix(SECTIONS, OPERATORS, q)
        for trial in range(100):
            pair = select_pairs(point, 1, np.random.default_rng(trial))[0]
            assert (pair.section, pair.operator) == ("Name", "refine")
        report(5, "selection sampling")


class TestCriterion6:
    MAGIC = ("Name", "refine")

    def _magic_prob(self, m):
        i, j = m.index(*self.MAGIC)
        return selection_distribution(m)[i, j]

    def test_msgd_rl_learns_policy(self):
        start = time.monotonic()
        m = init_uniform(SECTIONS, OPERATORS)
        initial = self._magic_prob(m)
        rng = np.random.default_rng(6)
        base = 0.5
        for epoch in range(50):
            m, _, _ = rl_epoch(
                m, base, pairs_per_epoch=2, rng=rng,
                apply_pair=lambda pair: pair,
                evaluate_candidate=lambda pair: base + (
                    0.05 if (pair.section, pair.operator) == self.MAGIC else 0.0
                ),
            )
            if self._magic_prob(m) > 2 * initial:
                break
        assert self._magic_prob(m) > 2 * initial
        assert time.monotonic() - start < 10.0
        report(6, "policy learning, sarsa")

    def test_msgd_learns_policy(self):
        start = time.monotonic()
        m = init_uniform(SECTIONS, OPERATORS)
        initial = self._magic_prob(m)
        rng = np.random.default_rng(66)
        base = 0.5
        for epoch in range(100):
            for pair in select_pairs(m, 2, rng):
                hit = (pair.section, pair.operator) == self.MAGIC
                cur = base + (0.05 if hit else 0.0)
                m = msgd_update(m, pair, norm_delta(base, cur), alpha=1.0)
            if self._magic_prob(m) > 2 * initial:
                break
        assert self._magic_prob(m) > 2 * initial
        assert time.monotonic() - start < 10.0
        report(6, "policy learning, msgd")


def _mock_dataset(n=20):
    return [
        ExampleRecord("%02d" % i, "CLS", "item %02d please" % i,
                      "A" if i % 2 == 0 else "B")
        for i in range(n)
    ]


def _mock_script(examples, wrong_ids=()):
    script = []
    for ex in examples:
        label = ex.gold
        if ex.id in wrong_ids:
            label = "B" if label == "A" else "A"
        script.append({
            "match": {"contains": "item %s please" % ex.id},
            "response": json.dumps({"label": label}),
        })
    script.append({"response": "pass"})
    return script


def _template():
    return make_prompt(
        ["Classify the item as A or B.", "", 'Return JSON: {"label": ""}'],
        editable=[True, True, False],
    )


class TestCriterion7:
    def test_end_to_end_determinism(self, tmp_path):
        start = time.monotonic()
        data = _mock_dataset(20)
        trees = []
        for run in ("one", "two"):
            cfg = RunConfig(
                iterations=10, beam_init=1, top_k=3, anneal_count=2, seed=7,
                task="CLS", operators=("refine", "cot", "few_shot"),
                output_dir=str(tmp_path / run),
            )
            backend = MockBackend(_mock_script(data, wrong_ids={"00", "03", "08"}))
            train(cfg, data, data, _template(), backend)
            run_dir = tmp_path / run / run_id_for(cfg)
            trees.append({
                p.relative_to(run_dir): p.read_bytes()
                for p in sorted(run_dir.rglob("*")) if p.is_file()
            })
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]
        assert time.monotonic() - start < 30.0
        report(7, "end-to-end determinism")


class _HashOracle(MockBackend):
    """Responses derived from a hash of the request, so prompt edits move the
    evaluation score pseudo-randomly but reproducibly."""

    def __init__(self, salt):
        super().__init__([])
        self.salt = salt

    def generate(self, req):
        text = req.messages[-1][1]
        key = ("%s\x1f%s" % (self.salt, text)).encode("utf-8")
        digest = int.from_bytes(hashlib.sha256(key).digest()[:2], "big")
        if "optimization method" in text:  # a section-edit request
            out = json.dumps({"s0": "variant %d of the instruction" % digest})
        else:
            out = json.dumps({"label": "A" if digest % 2 == 0 else "B"})
        res = GenerationResponse(text=out)
        self.usage.add(res)
        return res


class TestCriterion8:
    def test_best_objective_nondecreasing(self, tmp_path):
        data = _mock_dataset(6)
        for trial in range(100):
            cfg = RunConfig(
                iterations=4, beam_init=1, top_k=2, anneal_count=1, seed=trial,
                task="CLS", operators=("refine", "cot"),
                output_dir=str(tmp_path / str(trial)),
            )
            _, rep, _ = train(cfg, data, [], _template(), _HashOracle(trial))
            bests = [row["best"] for row in rep.iterations]
            assert bests == sorted(bests)
        report(8, "elitism keeps the best")


class TestCriterion9:
    def test_experience_recycling(self, tmp_path):
        m = TransitionMatrix(SECTIONS, OPERATORS, PRIOR_Q.copy())
        path = tmp_path / "exp.json"
        save_experience(ExperienceStore.new(m, "NER", epochs_trained=3), path)
        again = read_experience(path)
        assert np.array_equal(again.matrix.q, PRIOR_Q)
        assert again.task_kind == "NER" and again.epochs_trained == 3

        extended = load_experience(path, SECTIONS + ("Scene",), OPERATORS + ("merge",))
        assert np.array_equal(extended.q[:4, :4], PRIOR_Q)
        for i in range(4):
            assert extended.q[i, 4] == pytest.approx(PRIOR_Q[i].mean())
        for j in range(4):
            assert extended.q[4, j] == pytest.approx(PRIOR_Q[:, j].mean())
        assert extended.q[4, 4] == pytest.approx(PRIOR_Q.mean())
        report(9, "experience recycling")


class TestCriterion10:
    def test_full_benchmark_out_of_scope(self):
        print(
            "ACCEPTANCE 10 (full benchmark scores): NOT CHECKED - reproducing "
            "published leaderboard-scale accuracy needs a hosted GPT-4/Qwen-class "
            "model and the full 1400/600 data splits; the importers and config "
            "presets ship here, and acceptance rests on criteria 1-9."
        )
