import json
import random

import pytest

from promptopt.backend import MockBackend
from promptopt.errors import (
    AlignmentError,
    AuthError,
    BackendTimeout,
    CorruptFile,
    EmptyDataset,
    OutOfRange,
)
from promptopt.evaluation import (
    FORMAT_FAILURE,
    ExampleRecord,
    evaluate,
    load_dataset,
    loss,
    parse_prediction,
    predict_many,
    report_predictions,
    score,
)
from promptopt.prompt_model import Candidate

from helpers import make_prompt


class TestParsePrediction:
    def test_cls(self):
        assert parse_prediction("CLS", '{"label":"Games"}') == "Games"

    def test_cls_with_fence(self):
        raw = 'Sure, here it is:\n```json\n{"label": "Sports"}\n```'
        assert parse_prediction("CLS", raw) == "Sports"

    def test_ner_span(self):
        out = parse_prediction("NER", '{"name":{"张三":[[0,2]]}}')
        assert out == {"name": frozenset({(0, 2)})}

    def test_ner_multiple_mentions(self):
        out = parse_prediction("NER", '{"name":{"a":[[0,1],[5,6]],"b":[[2,3]]}}')
        assert out["name"] == frozenset({(0, 1), (5, 6), (2, 3)})

    def test_mrc(self):
        assert parse_prediction("MRC", '{"answer": "42"}') == "42"

    def test_no_json(self):
        assert parse_prediction("CLS", "I think the answer is...") is FORMAT_FAILURE

    def test_wrong_shape(self):
        assert parse_prediction("NER", '{"name": [1, 2]}') is FORMAT_FAILURE
        assert parse_prediction("CLS", '{"answer": 3}') is FORMAT_FAILURE


class TestLoss:
    def test_paper_value(self):
        assert loss(0.64513) == pytest.approx(0.35487, abs=1e-12)

    def test_bounds(self):
        assert loss(1.0) == 0.0
        assert loss(0.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            loss(1.2)

    def test_complement_exact(self):
        for x in [0.0, 0.1, 0.25, 0.5, 0.64513, 1.0]:
            assert loss(x) + x == 1.0


class TestScoreCLS:
    def test_all_correct(self):
        gold = {"1": "A", "2": "B"}
        rep = score("CLS", gold, dict(gold))
        assert rep.precision == rep.recall == rep.f1 == 1.0
        for m in rep.per_label.values():
            assert m.f1 == 1.0

    def test_three_wrong_of_ten(self):
        gold = {str(i): "A" if i < 5 else "B" for i in range(10)}
        preds = dict(gold)
        preds["0"] = "B"
        preds["5"] = "A"
        preds["6"] = "A"
        rep = score("CLS", gold, preds)
        assert rep.f1 == pytest.approx(0.7)

    def test_format_failure_counts_as_miss(self):
        gold = {"1": "A", "2": "A"}
        rep = score("CLS", gold, {"1": "A", "2": FORMAT_FAILURE})
        assert rep.recall == pytest.approx(0.5)
        assert rep.precision == 1.0  # no spurious prediction

    def test_alignment_error(self):
        with pytest.raises(AlignmentError):
            score("CLS", {"1": "A"}, {"2": "A"})


class TestScoreNER:
    def test_half_right(self):
        gold = {"1": {"name": frozenset({(0, 2), (4, 6)})}}
        preds = {"1": {"name": frozenset({(0, 2), (8, 9)})}}
        rep = score("NER", gold, preds)
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.f1 == 0.5

    def test_per_label_sums_to_overall(self):
        gold = {
            "1": {"a": frozenset({(0, 1)}), "b": frozenset({(2, 3)})},
            "2": {"a": frozenset({(1, 2)})},
        }
        preds = {
            "1": {"a": frozenset({(0, 1)}), "b": frozenset({(5, 6)})},
            "2": {"a": frozenset()},
        }
        rep = score("NER", gold, preds)
        tot = [0, 0, 0]
        for m in rep.per_label.values():
            tot[0] += m.tp
            tot[1] += m.fp
            tot[2] += m.fn
        assert tot[0] / (tot[0] + tot[1]) == rep.precision
        assert tot[0] / (tot[0] + tot[2]) == rep.recall
        # tp + fn equals gold span count
        assert tot[0] + tot[2] == 3

    def test_span_collection_types_agree(self):
        def listed(spans):  # a list, with one span repeated
            return sorted(spans) + sorted(spans)[:1]

        def converted(doc, kind):
            return {ex_id: {lbl: kind(spans) for lbl, spans in m.items()}
                    if isinstance(m, dict) else m for ex_id, m in doc.items()}

        rng = random.Random(77)
        for _ in range(200):
            gold, preds = random_ner_instance(rng)
            reports = []
            for kind in (listed, set, frozenset):
                r = score("NER", converted(gold, kind), converted(preds, kind))
                reports.append((r.as_dict(), {k: (m.tp, m.fp, m.fn)
                                              for k, m in r.per_label.items()}))
            assert reports[0] == reports[1] == reports[2]


class TestScoreMRC:
    def test_exact_match(self):
        rep = score("MRC", {"1": "the cat"}, {"1": "The cat."})
        assert rep.f1 == 1.0

    def test_empty_gold(self):
        assert score("MRC", {"1": ""}, {"1": ""}).f1 == 1.0
        assert score("MRC", {"1": ""}, {"1": "something"}).f1 == 0.0

    def test_partial_overlap(self):
        rep = score("MRC", {"1": "red apple pie"}, {"1": "apple pie crust"})
        # 2 common tokens, p = 2/3, r = 2/3
        assert rep.f1 == pytest.approx(2 / 3)

    def test_averaged_over_examples(self):
        rep = score("MRC", {"1": "a", "2": "b"}, {"1": "a", "2": "c"})
        assert rep.f1 == pytest.approx(0.5)

    def test_best_of_several_gold_answers(self):
        gold = {"1": ("the red car", "a bicycle"), "2": ("red apple pie", "apple pie crust")}
        rep = score("MRC", gold, {"1": "A bicycle.", "2": "apple pie"})
        # example 2: p = 1 against both answers, r = 2/3, so f1 = 0.8
        assert rep.f1 == pytest.approx((1.0 + 0.8) / 2)
        assert rep.recall == pytest.approx((1.0 + 2 / 3) / 2)


def brute_force_ner(gold, preds):
    """Independent oracle: enumerate every (label, span) tuple and count."""
    tp = fp = fn = 0
    for ex_id, gmap in gold.items():
        pmap = preds[ex_id] if isinstance(preds[ex_id], dict) else {}
        gold_tuples = {(lbl, s, e) for lbl, spans in gmap.items() for s, e in spans}
        pred_tuples = {(lbl, s, e) for lbl, spans in pmap.items() for s, e in spans}
        for t in pred_tuples:
            if t in gold_tuples:
                tp += 1
            else:
                fp += 1
        for t in gold_tuples:
            if t not in pred_tuples:
                fn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def brute_force_cls(gold, preds):
    tp = fp = fn = 0
    labels = {g for g in gold.values()} | {p for p in preds.values() if isinstance(p, str)}
    for lbl in labels:
        for ex_id, g in gold.items():
            p = preds[ex_id]
            if g == lbl and p == lbl:
                tp += 1
            elif g == lbl and p != lbl:
                fn += 1
            elif g != lbl and p == lbl:
                fp += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def random_ner_instance(rng):
    labels = ["l%d" % i for i in range(rng.randint(1, 4))]
    gold, preds = {}, {}
    for ex in range(rng.randint(1, 10)):
        gmap, pmap = {}, {}
        for lbl in labels:
            gmap[lbl] = frozenset(
                (s, s + rng.randint(1, 3))
                for s in rng.sample(range(20), rng.randint(0, 3))
            )
            pmap[lbl] = frozenset(
                (s, s + rng.randint(1, 3))
                for s in rng.sample(range(20), rng.randint(0, 3))
            )
        gold[str(ex)] = gmap
        preds[str(ex)] = pmap if rng.random() > 0.1 else FORMAT_FAILURE
    return gold, preds


def random_cls_instance(rng):
    labels = ["l%d" % i for i in range(rng.randint(1, 4))]
    gold, preds = {}, {}
    for ex in range(rng.randint(1, 10)):
        gold[str(ex)] = rng.choice(labels)
        roll = rng.random()
        if roll < 0.1:
            preds[str(ex)] = FORMAT_FAILURE
        else:
            preds[str(ex)] = rng.choice(labels)
    return gold, preds


class TestOracleEquivalence:
    def test_ner_matches_brute_force(self):
        rng = random.Random(1234)
        for _ in range(1000):
            gold, preds = random_ner_instance(rng)
            rep = score("NER", gold, preds)
            assert (rep.precision, rep.recall, rep.f1) == brute_force_ner(gold, preds)

    def test_cls_matches_brute_force(self):
        rng = random.Random(4321)
        for _ in range(1000):
            gold, preds = random_cls_instance(rng)
            rep = score("CLS", gold, preds)
            assert (rep.precision, rep.recall, rep.f1) == brute_force_cls(gold, preds)

    def test_format_failure_monotonicity(self):
        rng = random.Random(99)
        for _ in range(200):
            gold, preds = random_cls_instance(rng)
            base = score("CLS", gold, preds)
            correct_ids = [i for i, p in preds.items() if p == gold[i]]
            if not correct_ids:
                continue
            broken = dict(preds)
            broken[rng.choice(correct_ids)] = FORMAT_FAILURE
            worse = score("CLS", gold, broken)
            assert worse.precision <= base.precision + 1e-12
            assert worse.recall <= base.recall + 1e-12
            assert worse.f1 <= base.f1 + 1e-12


class TestLoadDataset:
    def test_ner_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [
            {"id": "a", "text": "张三住在北京", "label": {"name": {"张三": [[0, 2]]}}},
            {"text": "没有实体", "label": {}},
        ]
        path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows),
                        encoding="utf-8")
        recs = load_dataset(path, "NER")
        assert recs[0].gold == {"name": frozenset({(0, 2)})}
        assert recs[1].gold == {}

    def test_ner_inclusive_end_normalized(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"text": "张三住在北京", "label": {"name": {"张三": [[0, 1]]}}},
                       ensure_ascii=False),
            encoding="utf-8")
        recs = load_dataset(path, "NER", inclusive_end=True)
        assert recs[0].gold == {"name": frozenset({(0, 2)})}

    def test_cls_and_mrc(self, tmp_path):
        cls_path = tmp_path / "c.jsonl"
        cls_path.write_text(json.dumps({"text": "news", "label": "Games"}),
                            encoding="utf-8")
        assert load_dataset(cls_path, "CLS")[0].gold == "Games"
        mrc_path = tmp_path / "m.jsonl"
        mrc_path.write_text(
            json.dumps({"context": "ctx", "question": "q?", "answers": ["yes"]}),
            encoding="utf-8")
        rec = load_dataset(mrc_path, "MRC")[0]
        assert rec.gold == "yes"
        assert "q?" in rec.input and "ctx" in rec.input

    def test_mrc_keeps_every_answer(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "q1", "context": "ctx", "question": "q?",
                                    "answers": ["the red car", "a bicycle"]}), encoding="utf-8")
        records = load_dataset(path, "MRC")
        assert records[0].gold == ("the red car", "a bicycle")
        # the reply matches only answers[1]
        backend = MockBackend([{"response": json.dumps({"answer": "a bicycle"})}])
        candidate = Candidate(prompt=make_prompt(["Answer."], placeholder_in=0))
        rep, bad = evaluate(candidate, records, backend)
        assert rep.f1 == 1.0
        assert bad == []

    @pytest.mark.parametrize("task, line, needle", [
        ("CLS", "not json", "line 2: not valid JSON"),
        ("CLS", '{"text": "x"}', "line 2: missing field 'label'"),
        ("CLS", "[1, 2]", "line 2: not a JSON object"),
        ("MRC", '{"context": "c", "answers": ["a"]}', "line 2: missing field 'question'"),
        ("MRC", '{"context": "c", "question": "q", "answers": "a"}',
         'line 2: "answers" must be a list of strings'),
        ("NER", '{"text": "ab", "label": {"x": {"ab": [[0, 5]]}}}', "line 2: bad span (0,5)"),
        ("NER", '{"text": "ab", "label": {"x": {"ab": [[0]]}}}', "line 2: "),
        ("NER", '{"text": "ab", "label": ["x"]}', "line 2: "),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, task, line, needle):
        good = {"CLS": {"text": "t", "label": "A"},
                "MRC": {"context": "c", "question": "q", "answers": ["a"]},
                "NER": {"text": "ab", "label": {}}}[task]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorruptFile) as err:
            load_dataset(path, task)
        assert str(err.value).startswith("%s line 2: " % path) and needle in str(err.value)

    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text": "caf\xe9", "label": "A"}\n')
        with pytest.raises(CorruptFile, match="not UTF-8 text"):
            load_dataset(path, "CLS")

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            ExampleRecord("1", "NER", "ab", {"x": frozenset({(0, 5)})})


class TestEvaluate:
    def _candidate(self):
        return Candidate(prompt=make_prompt(["Classify the text."], placeholder_in=0))

    def test_oracle_backend_perfect(self, cls_examples):
        backend = MockBackend([
            {"match": {"contains": ex.input}, "response": json.dumps({"label": ex.gold})}
            for ex in cls_examples
        ])
        rep, bad = evaluate(self._candidate(), cls_examples, backend)
        assert rep.f1 == 1.0
        assert bad == []

    def test_three_wrong_collects_bad_cases(self, cls_examples):
        script = []
        for i, ex in enumerate(cls_examples):
            label = ("B" if ex.gold == "A" else "A") if i < 3 else ex.gold
            script.append({"match": {"contains": ex.input + "\n"}, "response":
                           json.dumps({"label": label})})
        # disambiguate "text 1" from "text 10" by matching rendered suffix
        backend = MockBackend([
            {"match": {"contains": "text %d" % i}, "response": s["response"]}
            for i, s in enumerate(script)
        ])
        rep, bad = evaluate(self._candidate(), cls_examples, backend)
        assert rep.f1 == pytest.approx(0.7)
        assert len(bad) == 3

    def test_bad_case_cap_deterministic(self, cls_examples):
        backend = MockBackend([{"response": json.dumps({"label": "WRONG"})}])
        rep1, bad1 = evaluate(self._candidate(), cls_examples, backend, bad_case_cap=4, seed=7)
        rep2, bad2 = evaluate(self._candidate(), cls_examples, MockBackend(
            [{"response": json.dumps({"label": "WRONG"})}]), bad_case_cap=4, seed=7)
        assert [b.example_id for b in bad1] == [b.example_id for b in bad2]
        assert len(bad1) == 4

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            evaluate(self._candidate(), [], MockBackend([]))

    @staticmethod
    def _failing_on(needle, error, cls_examples):
        class FailingOn(MockBackend):
            def generate(self, req):
                if needle in req.messages[-1][1]:
                    raise error("backend failed on %s" % needle)
                return super().generate(req)

        return FailingOn([{"match": {"contains": ex.input}, "response":
                           json.dumps({"label": ex.gold})} for ex in cls_examples])

    def test_backend_error_scores_as_miss(self, cls_examples):
        backend = self._failing_on("text 3", BackendTimeout, cls_examples)
        rep, bad = evaluate(self._candidate(), cls_examples, backend)
        assert (rep.precision, rep.recall) == (1.0, pytest.approx(0.9))
        assert [(b.example_id, b.predicted) for b in bad] == [("3", FORMAT_FAILURE)]

    def test_predictions_then_reports_equal_one_evaluation(self, cls_examples):
        backend = self._failing_on("Label the text.\ntext 3", BackendTimeout, cls_examples)
        cands = [self._candidate(),
                 Candidate(prompt=make_prompt(["Label the text."], placeholder_in=0))]
        predicted = predict_many(cands, cls_examples, backend)
        assert predicted[0] == [ex.gold for ex in cls_examples]
        assert predicted[1][3] is FORMAT_FAILURE
        # the two steps give what one evaluation of each candidate gives
        assert [report_predictions(cls_examples, preds, seed=5) for preds in predicted] \
            == [evaluate(cand, cls_examples, backend, seed=5) for cand in cands]

    def test_auth_error_is_raised(self, cls_examples):
        backend = self._failing_on("text 3", AuthError, cls_examples)
        with pytest.raises(AuthError):
            evaluate(self._candidate(), cls_examples, backend)


class TestRepeatedIds:
    """Scoring keys examples by position: examples that share an id are all
    scored, and bad cases keep their ids."""

    def test_every_example_sharing_an_id_is_scored(self):
        examples = [ExampleRecord(ex_id, "CLS", "text %d" % i, gold)
                    for i, (ex_id, gold) in enumerate([("a", "A"), ("a", "B"),
                                                       ("b", "A"), ("b", "B")])]
        report, bad = report_predictions(examples, ["A"] * 4)
        assert report.support == 4
        assert report.f1 == pytest.approx(0.5)
        assert [b.example_id for b in bad] == ["a", "b"]

    def test_line_number_id_colliding_with_an_explicit_id(self, tmp_path):
        path = tmp_path / "cls.jsonl"
        path.write_text('{"text": "first", "label": "A"}\n'
                        '{"id": "0", "text": "second", "label": "B"}\n')
        examples = load_dataset(path, "CLS")
        assert [ex.id for ex in examples] == ["0", "0"]
        report, _ = report_predictions(examples, ["A", "A"])
        assert report.support == 2
        assert report.f1 == pytest.approx(0.5)
