import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promptopt.evaluation
from promptopt.backend import GenerationResponse, MockBackend
from promptopt.errors import (
    AlignmentError,
    AuthError,
    BackendTimeout,
    CorruptFile,
    EmptyDataset,
    OutOfRange,
)
from promptopt.evaluation import (
    BAD_CASE_CAP,
    FORMAT_FAILURE,
    BadCase,
    ExampleRecord,
    Tally,
    _judge,
    _mrc_best_prf,
    eval_requests,
    evaluate,
    judge_replies,
    load_dataset,
    loss,
    parse_prediction,
    reply_memo,
    sample_bad_cases,
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

    @pytest.mark.parametrize("raw", [
        '{"name": null}',
        '{"name": {"a": 3}}',
        '{"name": {"a": [[1]]}}',
        '{"name": {"a": [["x", 2]]}}',
        '{"name": {"a": [{"start": 0, "end": 1}]}}',
        '{"name": {"a": [[0, 1]]}, "other": "b"}',
    ])
    def test_ner_malformed_spans(self, raw):
        assert parse_prediction("NER", raw) is FORMAT_FAILURE

    def test_ner_empty_label(self):
        assert parse_prediction("NER", '{"name": {}}') == {"name": frozenset()}


def spans_added_in_reply_order(doc):
    """The NER prediction of a reply as the span walk built it before it was
    a comprehension: each label's spans added to a set one at a time, in
    reply order, then frozen."""
    out = {}
    for label, mentions in doc.items():
        spans = set()
        for span_list in mentions.values():
            for s, e in span_list:
                spans.add((s, e))
        out[label] = frozenset(spans)
    return out


class TestNerSpanLayout:
    """A frozenset's iteration order, and so its repr, depends on how it was
    built, and the repr of a bad case's prediction goes into reflect
    requests. So parsing must lay the spans out as adding them one at a time
    in reply order does."""

    @staticmethod
    def _reply(n, seed):
        rng = random.Random(seed)
        starts = [rng.randrange(0, 300) for _ in range(n)]
        spans = [[s, s + rng.randrange(1, 6)] for s in starts]
        spans += spans[: n // 3]  # repeated spans count once
        mentions = {}
        for k, span in enumerate(spans):
            mentions.setdefault("m%d" % (k % 3), []).append(span)
        return {"PER": mentions, "LOC": {"x": [[0, 1]]}}

    def test_repr_matches_spans_added_in_reply_order(self):
        for n, seed in itertools.product(range(1, 40), range(5)):
            doc = self._reply(n, seed)
            expected = spans_added_in_reply_order(doc)
            raw = "```json\n%s\n```" % json.dumps(doc)
            assert repr(parse_prediction("NER", raw)) == repr(expected)

    def test_cases_tell_the_layouts_apart(self):
        # the test above fails for a parser that freezes a list of the spans
        differ = 0
        for n in range(5, 8):
            doc = self._reply(n, 0)
            in_order = [tuple(span) for spans in doc["PER"].values() for span in spans]
            differ += repr(frozenset(in_order)) != repr(spans_added_in_reply_order(doc)["PER"])
        assert differ


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

    @pytest.mark.parametrize("task, average", [("NER", "micro"), ("CLS", "micro"),
                                                ("CLS", "macro"), ("MRC", "micro")])
    def test_prefix_objectives_equal_scoring_each_prefix(self, task, average):
        """A tally fed in runs reads, after each run, what scoring the
        prefix so far on its own gives, and ends with the report and misses
        of one pass."""
        rng = random.Random(7)
        answers = ["the red cat", "a dog", "blue sky today", ""]
        for _ in range(200):
            if task == "NER":
                gold, preds = random_ner_instance(rng)
            elif task == "CLS":
                gold, preds = random_cls_instance(rng)
            else:
                gold = {str(i): rng.choice(answers) for i in range(rng.randint(1, 12))}
                preds = {i: rng.choice(answers + [FORMAT_FAILURE]) for i in gold}
            items = [(i, _judge(task, gold[i], preds[i])) for i in gold]
            # a run is empty where a cut is 0 or the end
            cuts = sorted(rng.sample(range(len(items) + 1), min(3, len(items) + 1)))
            bounds = [0, *cuts, len(items)]
            for objective in ("precision", "recall", "f1"):
                one_pass = Tally(task, objective, average)
                one_pass.add(items)
                tally = Tally(task, objective, average)
                for a, b in zip(bounds, bounds[1:]):
                    tally.add(iter(items[a:b]))
                    prefix = [i for i, _ in items[:b]]
                    alone = score(task, {i: gold[i] for i in prefix},
                                  {i: preds[i] for i in prefix},
                                  objective=objective, cls_average=average)
                    assert tally.objective_value() == alone.objective_value()
                    assert tally.report() == alone
                    assert tally.misses == [i for i in one_pass.misses if i in prefix]
                assert tally.report() == one_pass.report() == score(
                    task, gold, preds, objective=objective, cls_average=average)
                assert tally.misses == one_pass.misses

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
        # a gold span with an offset that is not an int never equals a parsed one
        ("NER", '{"text": "ab", "label": {"x": {"ab": [[0.0, 1.5]]}}}',
         "line 2: span offsets must be integers, not [0.0, 1.5]"),
        ("NER", '{"text": "ab", "label": {"x": {"ab": [[0, 2.0]]}}}',
         "line 2: span offsets must be integers, not [0, 2.0]"),
        ("NER", '{"text": "ab", "label": {"x": {"ab": [[true, 2]]}}}',
         "line 2: span offsets must be integers, not [true, 2]"),
        ("NER", '{"text": "ab", "label": {"x": {"ab": [["0", 2]]}}}',
         'line 2: span offsets must be integers, not ["0", 2]'),
        ("NER", '{"text": "ab", "label": ["x"]}', "line 2: "),
        ("CLS", '{"text": "x", "label": 5}', 'line 2: "label" must be a string, not 5'),
        ("CLS", '{"text": "x", "label": null}', 'line 2: "label" must be a string, not null'),
        ("CLS", '{"text": ["x"], "label": "A"}', '"text" must be a string, not ["x"]'),
        ("NER", '{"text": 5, "label": {"PER": {}}}', 'line 2: "text" must be a string'),
        ("MRC", '{"context": "c", "question": 5, "answers": ["a"]}',
         'line 2: "question" must be a string, not 5'),
        ("MRC", '{"context": null, "question": "q", "answers": ["a"]}',
         'line 2: "context" must be a string, not null'),
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
        predicted = judge_batch(whole(cands, cls_examples), cls_examples, backend)
        assert parsed("CLS", predicted[0][0]) == [ex.gold for ex in cls_examples]
        assert predicted[1][0][3] is None
        assert parsed("CLS", predicted[1][0])[3] is FORMAT_FAILURE
        assert [judgements for _, judgements in predicted] == [
            [_judge("CLS", ex.gold, pred) for ex, pred in zip(cls_examples, parsed("CLS", texts))]
            for texts, _ in predicted]
        # tallied, the judgements give what one evaluation of each candidate gives
        for cand, (texts, judgements) in zip(cands, predicted):
            tally = Tally("CLS")
            tally.add(enumerate(judgements))
            bad = sample_bad_cases(cls_examples, texts, tally.misses, seed=5)
            assert (tally.report(), bad) == evaluate(cand, cls_examples, backend, seed=5)

    def test_auth_error_is_raised(self, cls_examples):
        backend = self._failing_on("text 3", AuthError, cls_examples)
        with pytest.raises(AuthError):
            evaluate(self._candidate(), cls_examples, backend)


def answering_a():
    """A backend whose every reply predicts label A."""
    return MockBackend([{"response": json.dumps({"label": "A"})}])


class TestRepeatedIds:
    """Scoring keys examples by position: examples that share an id are all
    scored, and bad cases keep their ids."""

    def test_every_example_sharing_an_id_is_scored(self):
        examples = [ExampleRecord(ex_id, "CLS", "text %d" % i, gold)
                    for i, (ex_id, gold) in enumerate([("a", "A"), ("a", "B"),
                                                       ("b", "A"), ("b", "B")])]
        report, bad = evaluate(prompt_candidate("Label"), examples, answering_a())
        assert report.support == 4
        assert report.f1 == pytest.approx(0.5)
        assert [b.example_id for b in bad] == ["a", "b"]

    def test_line_number_id_colliding_with_an_explicit_id(self, tmp_path):
        path = tmp_path / "cls.jsonl"
        path.write_text('{"text": "first", "label": "A"}\n'
                        '{"id": "0", "text": "second", "label": "B"}\n')
        examples = load_dataset(path, "CLS")
        assert [ex.id for ex in examples] == ["0", "0"]
        report, _ = evaluate(prompt_candidate("Label"), examples, answering_a())
        assert report.support == 2
        assert report.f1 == pytest.approx(0.5)


def second_pass_is_correct(task: str, gold, pred) -> bool:
    """The per-example rule that once found bad cases in a second pass,
    before the scoring pass collected the misses; kept as the reference."""
    if pred is FORMAT_FAILURE:
        return False
    if task == "NER":
        g = {k: frozenset(v) for k, v in gold.items() if v}
        p = {k: frozenset(v) for k, v in pred.items() if v}
        return g == p
    if task == "MRC":
        return _mrc_best_prf(gold, pred if isinstance(pred, str) else "")[2] == 1.0
    return gold == pred


def reference_bad_cases(examples, predictions):
    return [BadCase(ex.id, ex.gold, pred) for ex, pred in zip(examples, predictions)
            if not second_pass_is_correct(ex.task, ex.gold, pred)]


SPANS = st.frozensets(st.sampled_from([(0, 1), (0, 2), (1, 2), (2, 3)]), max_size=3)
NER_LABELS = st.sampled_from(["PER", "LOC"])
MRC_TEXT = st.sampled_from(["", "...", "a b", "b a", "a", "the a", "a, b!", "c"])
GOLD = {
    "NER": st.dictionaries(NER_LABELS, SPANS, max_size=2),
    "CLS": st.sampled_from(["A", "B"]),
    "MRC": st.one_of(MRC_TEXT, st.tuples(MRC_TEXT, MRC_TEXT)),
}
PREDICTION = {
    "NER": st.dictionaries(NER_LABELS, SPANS, max_size=2),
    "CLS": st.sampled_from(["A", "B", "C"]),
    "MRC": MRC_TEXT,
}


@st.composite
def scored_examples(draw):
    task = draw(st.sampled_from(sorted(GOLD)))
    pairs = draw(st.lists(st.tuples(
        GOLD[task], st.one_of(st.just(FORMAT_FAILURE), PREDICTION[task])),
        min_size=1, max_size=12))
    examples = [ExampleRecord(str(i % 5), task, "text %d" % i, gold)
                for i, (gold, _) in enumerate(pairs)]
    return examples, [pred for _, pred in pairs]


def reply_to(task: str, pred):
    """A reply text that parses to `pred`, or None, the text of a failed
    request, for a format failure."""
    if pred is FORMAT_FAILURE:
        return None
    if task == "NER":
        return json.dumps({label: {"m%d" % j: [list(span)] for j, span in enumerate(sorted(spans))}
                           for label, spans in pred.items()})
    return json.dumps({"label" if task == "CLS" else "answer": pred})


def bad_cases_of(examples, predictions, cap=BAD_CASE_CAP, seed=0):
    """The bad cases evaluate collects for replies with these predictions: a
    sample of the misses of the tally that scores them, each sampled reply
    parsed into its prediction."""
    texts = [reply_to(ex.task, pred) for ex, pred in zip(examples, predictions)]
    assert parsed(examples[0].task, texts) == predictions
    tally = Tally(examples[0].task)
    tally.add(enumerate(_judge(ex.task, ex.gold, pred) for ex, pred in zip(examples, predictions)))
    return sample_bad_cases(examples, texts, tally.misses, cap, seed)


class TestBadCasesFromTheScoringPass:
    """evaluate takes its bad cases from the misses its Tally collects; they
    must be the examples the old second pass found."""

    @pytest.mark.parametrize("task, gold, pred, bad", [
        # empty gold and a format failure: a bad case
        ("NER", {}, FORMAT_FAILURE, True),
        # a label with an empty span list is the same as no label
        ("NER", {}, {"PER": frozenset()}, False),
        ("NER", {"PER": frozenset({(0, 1)})}, {"PER": frozenset({(0, 1)}),
                                               "LOC": frozenset()}, False),
        ("NER", {"PER": frozenset({(0, 1)})}, {"LOC": frozenset({(0, 1)})}, True),
        # a format failure against a gold answer with no tokens: a bad case
        ("MRC", "...", FORMAT_FAILURE, True),
        ("MRC", "...", "", False),
        ("MRC", ("x y", "y"), "Y!", False),
        ("CLS", "A", FORMAT_FAILURE, True),
        ("CLS", "A", "A", False),
    ])
    def test_edge_cases(self, task, gold, pred, bad):
        assert second_pass_is_correct(task, gold, pred) is not bad
        examples = [ExampleRecord("e", task, "some text", gold)]
        bad_cases = bad_cases_of(examples, [pred])
        assert bad_cases == ([BadCase("e", gold, pred)] if bad else [])

    @given(scored_examples(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_same_bad_cases_as_the_old_rule(self, case, seed):
        examples, predictions = case
        expected = reference_bad_cases(examples, predictions)
        assert bad_cases_of(examples, predictions, len(examples), seed) == expected
        # a cap below the number of misses samples them as before
        sampled = bad_cases_of(examples, predictions, 2, seed)
        if len(expected) > 2:
            assert sampled == random.Random(seed).sample(expected, 2)
        else:
            assert sampled == expected

    @pytest.mark.parametrize("cap", [0, 3, 10, 40])
    def test_only_the_sampled_replies_are_parsed(self, cls_examples, cap, monkeypatch):
        """Each sampled reply is parsed once, a failed request's not at all,
        and no other reply is parsed."""
        texts = [None if i % 4 == 0 else json.dumps({"label": "C"}) + " " * i
                 for i, _ in enumerate(cls_examples)]
        misses = list(range(len(cls_examples)))
        sample = misses if cap >= len(misses) else random.Random(3).sample(misses, cap)
        parses = count_calls(monkeypatch, "parse_prediction")
        bad = sample_bad_cases(cls_examples, texts, misses, cap, seed=3)
        assert parses == [("CLS", texts[i]) for i in sample if texts[i] is not None]
        assert bad == [BadCase(cls_examples[i].id, cls_examples[i].gold,
                               FORMAT_FAILURE if texts[i] is None else "C") for i in sample]

    def test_score_lists_misses_in_gold_order(self):
        gold = {"x": "A", "y": "B", "z": "A"}
        preds = {"z": "B", "x": "A", "y": FORMAT_FAILURE}
        tally = Tally("CLS")
        tally.add((key, _judge("CLS", g, preds[key])) for key, g in gold.items())
        assert tally.misses == ["y", "z"]


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of the function promptopt.evaluation.<name>; returns the
    list of the argument tuples it was called with."""
    calls = []
    function = getattr(promptopt.evaluation, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(promptopt.evaluation, name, counted)
    return calls


class ByExample(MockBackend):
    """Answers each example with one reply whatever the prompt, except where
    `overrides` maps (prompt word, example input) to another reply."""

    def __init__(self, examples, overrides=None):
        super().__init__([])
        self.examples = examples
        self.overrides = overrides or {}

    def _lookup(self, req):
        text = req.messages[-1][1]
        for (word, inp), reply in self.overrides.items():
            if text.startswith(word) and text.endswith(inp):
                return reply
        ex = next(ex for ex in self.examples if text.endswith(ex.input))
        return json.dumps({"label": ex.gold})


class Scripted(MockBackend):
    """Answers the i-th batch with the i-th list of `batches`: a reply text,
    or an exception for a failed request."""

    def __init__(self, batches):
        super().__init__([])
        self.batches = list(batches)

    def generate_batch(self, reqs):
        items = self.batches.pop(0)[:len(reqs)]
        return [item if isinstance(item, Exception) else GenerationResponse(item)
                for item in items]


def prompt_candidate(word):
    return Candidate(prompt=make_prompt([word + " the text."], placeholder_in=0))


def whole(cands, examples):
    """One segment per candidate, each on every example."""
    return [(cand, 0, len(examples)) for cand in cands]


def judge_batch(segments, examples, backend, memo=None):
    """Send the segments' requests in one batch and judge the replies
    through `memo`, a fresh one when not given."""
    results = backend.generate_batch(eval_requests(segments, examples))
    return judge_replies(segments, examples, results,
                         reply_memo(len(examples)) if memo is None else memo)


def parsed(task, texts):
    """The predictions of reply texts as judge_replies gives them: a text of
    None, a failed request, predicts a format failure."""
    return [FORMAT_FAILURE if text is None else parse_prediction(task, text) for text in texts]


def judged(examples, texts):
    """judge_replies' result for one segment with these reply texts."""
    return texts, [_judge(ex.task, ex.gold, pred)
                   for ex, pred in zip(examples, parsed(examples[0].task, texts))]


class TestParseMemo:
    def test_same_reply_under_two_prompts_is_parsed_once(self, cls_examples, monkeypatch):
        parses = count_calls(monkeypatch, "parse_prediction")
        judges = count_calls(monkeypatch, "_judge")
        backend = ByExample(cls_examples)
        memo = reply_memo(len(cls_examples))
        first = judge_batch(whole([prompt_candidate("Classify")], cls_examples), cls_examples,
                            backend, memo)
        second = judge_batch(whole([prompt_candidate("Label")], cls_examples), cls_examples,
                             backend, memo)
        assert first == second == [judged(cls_examples, [json.dumps({"label": ex.gold})
                                                         for ex in cls_examples])]
        assert len(parses) == len(judges) == len(cls_examples)
        # within one batch too, with a memo of its own
        del parses[:], judges[:]
        judge_batch(whole([prompt_candidate("Classify"), prompt_candidate("Label")],
                          cls_examples), cls_examples, backend)
        assert len(parses) == len(judges) == len(cls_examples)

    def test_a_changed_reply_is_parsed_again(self, cls_examples, monkeypatch):
        parses = count_calls(monkeypatch, "parse_prediction")
        judges = count_calls(monkeypatch, "_judge")
        ex = cls_examples[3]
        changed = json.dumps({"label": "C"})
        backend = ByExample(cls_examples, {("Label", ex.input): changed})
        memo = reply_memo(len(cls_examples))
        texts = [judge_batch(whole([prompt_candidate(word)], cls_examples), cls_examples,
                             backend, memo)[0][0]
                 for word in ("Classify", "Label", "Classify")]
        assert [parsed("CLS", t)[3] for t in texts] == [ex.gold, "C", ex.gold]
        others = cls_examples[:3] + cls_examples[4:]
        assert all(parsed("CLS", t[:3] + t[4:]) == [e.gold for e in others] for t in texts)
        # the other examples once, example 3 on each change
        assert len(parses) == len(judges) == len(cls_examples) + 2
        assert parses[-2:] == [("CLS", changed), ("CLS", json.dumps({"label": ex.gold}))]
        assert judges[-2:] == [("CLS", ex.gold, "C"), ("CLS", ex.gold, ex.gold)]
        assert memo[3] == [json.dumps({"label": ex.gold}), _judge("CLS", ex.gold, ex.gold)]

    @given(st.lists(st.lists(st.sampled_from([
        '{"label": "A"}', '{"label": "B"}', 'Sure: {"label": "A"}', "no answer", "",
        BackendTimeout("timed out")]), min_size=6, max_size=6), min_size=1, max_size=8),
        st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_memoized_predictions_equal_parsing_every_reply(self, batches, n):
        """Memoized results are those of parsing and judging every reply.
        A reply is parsed and judged when it differs from the last reply its
        example got, and a failed request is judged every time and leaves
        the slot as it was."""
        examples = [ExampleRecord(str(i), "CLS", "text %d" % i, "AB"[i % 2]) for i in range(n)]
        k = 6 // n
        expected = [[judged(examples, [None if isinstance(item, Exception) else item
                                       for item in batch[c * n:(c + 1) * n]])
                     for c in range(k)]
                    for batch in batches]
        last, n_parses, n_judges = {}, 0, 0
        for batch in batches:
            for j, item in enumerate(batch[:k * n]):
                if isinstance(item, Exception):
                    n_judges += 1
                elif last.get(j % n) != item:
                    last[j % n] = item
                    n_parses += 1
                    n_judges += 1
        with pytest.MonkeyPatch.context() as monkeypatch:
            parses = count_calls(monkeypatch, "parse_prediction")
            judges = count_calls(monkeypatch, "_judge")
            backend = Scripted(batches)
            memo = reply_memo(n)
            cands = [prompt_candidate("Prompt %d:" % c) for c in range(k)]
            for want in expected:
                assert judge_batch(whole(cands, examples), examples, backend, memo) == want
        assert (len(parses), len(judges)) == (n_parses, n_judges)
        for i, ex in enumerate(examples):
            if i in last:
                pred = parse_prediction("CLS", last[i])
                assert memo[i] == [last[i], _judge("CLS", ex.gold, pred)]


REPLIES = {
    "NER": [json.dumps({"PER": {"a": [[0, 1]]}}), '{"PER": {"a": [[0, 1]], "b": [[2, 3]]}}',
            'Here: {"LOC": {"b": [[2, 3]]}}', '{"PER": {"x": [[0, 1]]}}', "{}", "none"],
    "CLS": ['{"label": "A"}', '{"label": "B"}', 'Sure: {"label": "A"}', "no answer"],
    "MRC": ['{"answer": "a b"}', '{"answer": "b a"}', '"a"', '{"answer": ""}', "[]"],
}


@st.composite
def reply_streams(draw):
    """A task, its CLS average, examples, and batches of replies (or
    failures) to k candidates x n examples."""
    task, average = draw(st.sampled_from([("NER", "micro"), ("CLS", "micro"),
                                          ("CLS", "macro"), ("MRC", "micro")]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    examples = [ExampleRecord(str(i), task, "a b c", draw(GOLD[task])) for i in range(n)]
    item = st.one_of(st.sampled_from(REPLIES[task]), st.just(BackendTimeout("timed out")))
    batches = draw(st.lists(st.lists(item, min_size=k * n, max_size=k * n),
                            min_size=1, max_size=6))
    return task, average, examples, k, batches


@st.composite
def ragged_segments(draw):
    """A task, examples, segments of distinct candidates, each with its own
    start and stop, and a reply (or failure) to every (candidate, example)
    request, keyed by its text."""
    task = draw(st.sampled_from(["NER", "CLS", "MRC"]))
    n = draw(st.integers(1, 6))
    examples = [ExampleRecord(str(i), task, "a b c %d" % i, draw(GOLD[task])) for i in range(n)]
    segments = []
    for c in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        segments.append((prompt_candidate("Prompt %d:" % c), start, stop))
    item = st.one_of(st.sampled_from(REPLIES[task]), st.just(BackendTimeout("timed out")))
    texts = [req.messages[-1][1] for req in eval_requests(whole([cand for cand, _, _ in segments],
                                                                examples), examples)]
    return examples, segments, {text: draw(item) for text in texts}


class ByText(MockBackend):
    """Answers each request with the item `replies` maps its text to: a
    reply text, or an exception for a failed request."""

    def __init__(self, replies):
        super().__init__([])
        self.replies = replies

    def generate_batch(self, reqs):
        items = [self.replies[req.messages[-1][1]] for req in reqs]
        return [item if isinstance(item, Exception) else GenerationResponse(item)
                for item in items]


class TestJudgementMemo:
    @given(ragged_segments())
    @settings(max_examples=200, deadline=None)
    def test_ragged_segments_in_one_batch_equal_each_segment_alone(self, drawn):
        """Segments with their own start and stop, judged in one batch
        through a shared memo, give what judging each segment in a batch of
        its own through another shared memo gives: the same reply texts,
        judgements, memo, and parses."""
        examples, segments, replies = drawn
        task = examples[0].task
        backend = ByText(replies)
        with pytest.MonkeyPatch.context() as monkeypatch:
            parses = count_calls(monkeypatch, "parse_prediction")
            memo = reply_memo(len(examples))
            together = judge_batch(segments, examples, backend, memo)
            n_parses = len(parses)
            alone_memo = reply_memo(len(examples))
            alone = [judge_batch([segment], examples, backend, alone_memo)[0]
                     for segment in segments]
        assert together == alone
        assert memo == alone_memo
        assert len(parses) == 2 * n_parses
        for (cand, start, stop), (texts, judgements) in zip(segments, together):
            sent = [replies[req.messages[-1][1]]
                    for req in eval_requests([(cand, start, stop)], examples)]
            assert texts == [None if isinstance(r, Exception) else r for r in sent]
            assert judgements == [_judge(task, ex.gold, pred)
                                  for ex, pred in zip(examples[start:stop], parsed(task, texts))]

    @given(reply_streams())
    @settings(max_examples=200, deadline=None)
    def test_memo_backed_tallies_equal_plain_ones(self, stream):
        """Tallies of the judgements judge_replies returns through a memo
        kept across calls equal scoring every parsed reply afresh."""
        task, average, examples, k, batches = stream
        n = len(examples)
        backend = Scripted(batches)
        memo = reply_memo(n)
        cands = [prompt_candidate("Prompt %d:" % c) for c in range(k)]
        for batch in batches:
            results = judge_batch(whole(cands, examples), examples, backend, memo)
            for c, (texts, judgements) in enumerate(results):
                replies = batch[c * n:(c + 1) * n]
                assert texts == [None if isinstance(r, Exception) else r for r in replies]
                predictions = parsed(task, texts)
                for objective in ("f1", "precision", "recall"):
                    tally = Tally(task, objective, average)
                    tally.add(enumerate(judgements))
                    plain = score(task, {i: ex.gold for i, ex in enumerate(examples)},
                                  dict(enumerate(predictions)), objective, average)
                    assert tally.report() == plain
                    assert [examples[i].id for i in tally.misses] == [
                        b.example_id for b in reference_bad_cases(examples, predictions)]

    def test_a_reply_is_judged_only_when_its_text_changes(self, monkeypatch):
        judges = count_calls(monkeypatch, "_judge")
        gold = {"PER": frozenset({(0, 1)})}
        examples = [ExampleRecord("e", "NER", "a b", gold)]
        # two texts that parse to equal predictions
        a, b = '{"PER": {"a": [[0, 1]]}}', 'Found: {"PER": {"a": [[0, 1]]}}'
        backend = Scripted([[a, a], [a], [b, b]])
        memo = reply_memo(1)
        one, two = prompt_candidate("Find"), prompt_candidate("List")
        results = [judge_batch(whole(cands, examples), examples, backend, memo)
                   for cands in ([one, two], [one], [one, two])]
        # b parses to a prediction equal to a's, but its text differs: judged again, once
        assert judges == [("NER", gold, gold), ("NER", gold, gold)]
        assert [r for result in results for r in result] == \
            [([a], [(True, [("PER", 1, 0, 0)])])] * 3 + [([b], [(True, [("PER", 1, 0, 0)])])] * 2
        assert memo == [[b, (True, [("PER", 1, 0, 0)])]]

    def test_a_failed_request_leaves_the_slot_untouched(self, monkeypatch):
        parses = count_calls(monkeypatch, "parse_prediction")
        judges = count_calls(monkeypatch, "_judge")
        gold = {"PER": frozenset({(0, 1)})}
        examples = [ExampleRecord("e", "NER", "a b", gold)]
        reply = json.dumps({"PER": {"a": [[0, 1]]}})
        backend = Scripted([[reply], [BackendTimeout("timed out")], [reply]])
        memo = reply_memo(1)
        cands = [prompt_candidate("Find")]
        [(first, first_judgements)] = judge_batch(whole(cands, examples), examples, backend,
                                                  memo)
        slot = list(memo[0])
        assert slot == [reply, _judge("NER", gold, gold)]
        failed = judge_batch(whole(cands, examples), examples, backend, memo)
        assert failed == [([None], [_judge("NER", gold, FORMAT_FAILURE)])]
        assert failed[0][1] == [(False, [("PER", 0, 0, 1)])]
        assert memo[0] == slot and memo[0][1] is slot[1]
        # the reply equal to the slot text is neither parsed nor judged again
        [(again, again_judgements)] = judge_batch(whole(cands, examples), examples, backend,
                                                  memo)
        assert again[0] is first[0] and again_judgements[0] is first_judgements[0]
        assert parses == [("NER", reply)]
        assert judges == [("NER", gold, parse_prediction("NER", first[0])),
                          ("NER", gold, FORMAT_FAILURE)]
