"""Task evaluation: dataset ingestion, prediction parsing, P/R/F1 scoring
(overall and per-label), loss, and bad-case collection for the reflection
operator.

Tasks: NER (span-level exact match, half-open character spans), CLS
(single-label classification, micro- or macro-averaged overall), MRC
(SQuAD-style token-level F1 averaged over examples).
"""

from __future__ import annotations

import json
import logging
import random
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backend import Backend, GenerationResponse, user_request
from .errors import AlignmentError, EmptyDataset, OutOfRange
from .jsontools import extract_first_json
from .prompt_model import Candidate, render

log = logging.getLogger(__name__)


class FormatFailure:
    """Sentinel for model output that could not be parsed into an answer.
    Scored as an all-miss prediction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FormatFailure"


FORMAT_FAILURE = FormatFailure()


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    task: str  # NER | CLS | MRC
    input: str
    gold: object  # NER: {label: frozenset[(start, end)]}; CLS: label; MRC: answer string

    def __post_init__(self):
        if self.task == "NER":
            for label, spans in self.gold.items():
                for s, e in spans:
                    if not (0 <= s < e <= len(self.input)):
                        raise ValueError(
                            "bad span (%d,%d) for label %r in %r" % (s, e, label, self.id)
                        )


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class MetricReport:
    precision: float
    recall: float
    f1: float
    per_label: Mapping[str, LabelMetrics]
    support: int
    objective: str = "f1"

    def objective_value(self) -> float:
        return getattr(self, self.objective)

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
            "objective": self.objective,
            "per_label": {
                k: {
                    "precision": v.precision,
                    "recall": v.recall,
                    "f1": v.f1,
                    "support": v.support,
                }
                for k, v in sorted(self.per_label.items())
            },
        }


@dataclass
class BadCase:
    example_id: str
    expected: object
    predicted: object
    reason: str = ""


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def loss(score: float) -> float:
    """Complement of a score in [0, 1]."""
    if not 0.0 <= score <= 1.0:
        raise OutOfRange("score %r outside [0,1]" % score)
    return 1.0 - score


# ---------------------------------------------------------------------------
# prediction parsing

def parse_prediction(task: str, raw: str):
    """Parse model output into a task-typed answer, tolerating prose and code
    fences around the JSON payload. Returns FORMAT_FAILURE when nothing
    usable is found."""
    doc = extract_first_json(raw)
    if task == "CLS":
        if isinstance(doc, dict) and isinstance(doc.get("label"), str):
            return doc["label"]
        return FORMAT_FAILURE
    if task == "MRC":
        if isinstance(doc, dict) and isinstance(doc.get("answer"), str):
            return doc["answer"]
        if isinstance(doc, str):
            return doc
        return FORMAT_FAILURE
    if task == "NER":
        if not isinstance(doc, dict):
            return FORMAT_FAILURE
        out: dict[str, frozenset] = {}
        try:
            for label, mentions in doc.items():
                spans = set()
                if not isinstance(mentions, dict):
                    return FORMAT_FAILURE
                for _, span_list in mentions.items():
                    for span in span_list:
                        s, e = int(span[0]), int(span[1])
                        spans.add((s, e))
                out[label] = frozenset(spans)
        except (TypeError, ValueError, IndexError):
            return FORMAT_FAILURE
        return out
    raise ValueError("unknown task %r" % task)


# ---------------------------------------------------------------------------
# scoring

def score(task: str, gold: Mapping[str, object], predictions: Mapping[str, object],
          objective: str = "f1", cls_average: str = "micro") -> MetricReport:
    """Compute the task metric over predictions aligned to gold by example id."""
    if set(gold) != set(predictions):
        raise AlignmentError(
            "gold and prediction ids differ: %r vs %r"
            % (sorted(gold)[:5], sorted(predictions)[:5])
        )
    if task == "NER":
        return _score_ner(gold, predictions, objective)
    if task == "CLS":
        return _score_cls(gold, predictions, objective, average=cls_average)
    if task == "MRC":
        return _score_mrc(gold, predictions, objective)
    raise ValueError("unknown task %r" % task)


def _score_ner(gold, predictions, objective) -> MetricReport:
    counts: dict[str, list[int]] = {}  # label -> [tp, fp, fn]
    for ex_id, gold_map in gold.items():
        pred = predictions[ex_id]
        pred_map = pred if isinstance(pred, dict) else {}
        labels = set(gold_map) | set(pred_map)
        for label in labels:
            g = set(gold_map.get(label, ()))
            p = set(pred_map.get(label, ()))
            c = counts.setdefault(label, [0, 0, 0])
            c[0] += len(g & p)
            c[1] += len(p - g)
            c[2] += len(g - p)
    per_label = {}
    tot_tp = tot_fp = tot_fn = 0
    for label, (tp, fp, fn) in counts.items():
        p, r, f = _prf(tp, fp, fn)
        per_label[label] = LabelMetrics(p, r, f, support=tp + fn, tp=tp, fp=fp, fn=fn)
        tot_tp += tp
        tot_fp += fp
        tot_fn += fn
    p, r, f = _prf(tot_tp, tot_fp, tot_fn)
    return MetricReport(p, r, f, per_label, support=tot_tp + tot_fn, objective=objective)


def _score_cls(gold, predictions, objective, average="micro") -> MetricReport:
    labels = sorted({g for g in gold.values()} | {
        p for p in predictions.values() if isinstance(p, str)
    })
    counts = {label: [0, 0, 0] for label in labels}
    for ex_id, g in gold.items():
        p = predictions[ex_id]
        if p == g:
            counts[g][0] += 1
        else:
            counts[g][2] += 1
            if isinstance(p, str) and p in counts:
                counts[p][1] += 1
    per_label = {}
    tot_tp = tot_fp = tot_fn = 0
    for label, (tp, fp, fn) in counts.items():
        p, r, f = _prf(tp, fp, fn)
        per_label[label] = LabelMetrics(p, r, f, support=tp + fn, tp=tp, fp=fp, fn=fn)
        tot_tp += tp
        tot_fp += fp
        tot_fn += fn
    if average == "macro" and per_label:
        p = sum(m.precision for m in per_label.values()) / len(per_label)
        r = sum(m.recall for m in per_label.values()) / len(per_label)
        f = sum(m.f1 for m in per_label.values()) / len(per_label)
    else:
        p, r, f = _prf(tot_tp, tot_fp, tot_fn)
    return MetricReport(p, r, f, per_label, support=tot_tp + tot_fn, objective=objective)


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _mrc_tokens(text: str) -> list[str]:
    return [t.translate(_PUNCT_TABLE) for t in text.lower().split() if t.translate(_PUNCT_TABLE)]


def _mrc_prf(gold_text: str, pred_text: str) -> tuple[float, float, float]:
    g = _mrc_tokens(gold_text)
    p = _mrc_tokens(pred_text)
    if not g and not p:
        return 1.0, 1.0, 1.0
    if not g or not p:
        return 0.0, 0.0, 0.0
    common = 0
    remaining = {}
    for t in g:
        remaining[t] = remaining.get(t, 0) + 1
    for t in p:
        if remaining.get(t, 0) > 0:
            remaining[t] -= 1
            common += 1
    prec = common / len(p)
    rec = common / len(g)
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def _score_mrc(gold, predictions, objective) -> MetricReport:
    ps, rs, fs = [], [], []
    for ex_id, g in gold.items():
        pred = predictions[ex_id]
        pred_text = pred if isinstance(pred, str) else ""
        p, r, f = _mrc_prf(g, pred_text)
        ps.append(p)
        rs.append(r)
        fs.append(f)
    n = len(ps)
    p = sum(ps) / n if n else 0.0
    r = sum(rs) / n if n else 0.0
    f = sum(fs) / n if n else 0.0
    return MetricReport(p, r, f, per_label={}, support=n, objective=objective)


# ---------------------------------------------------------------------------
# dataset ingestion

def load_dataset(path, task: str, inclusive_end: bool = False) -> list[ExampleRecord]:
    """Read a JSONL dataset. NER lines use the nested
    {"label": {"<type>": {"<mention>": [[start, end]]}}} layout (half-open
    spans; pass inclusive_end=True for raw Cluener files); CLS lines are
    {"text", "label"}; MRC lines are {"context", "question", "answers"}."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            ex_id = str(doc.get("id", lineno))
            if task == "NER":
                text = doc["text"]
                gold = {}
                for label, mentions in (doc.get("label") or {}).items():
                    spans = set()
                    for _, span_list in mentions.items():
                        for s, e in span_list:
                            spans.add((s, e + 1) if inclusive_end else (s, e))
                    gold[label] = frozenset(spans)
                records.append(ExampleRecord(ex_id, "NER", text, gold))
            elif task == "CLS":
                records.append(ExampleRecord(ex_id, "CLS", doc["text"], doc["label"]))
            elif task == "MRC":
                answers = doc.get("answers") or []
                gold = answers[0] if answers else ""
                text = "Question: %s\nContext: %s" % (doc["question"], doc["context"])
                records.append(ExampleRecord(ex_id, "MRC", text, gold))
            else:
                raise ValueError("unknown task %r" % task)
    return records


# ---------------------------------------------------------------------------
# candidate evaluation

DIAGNOSIS_TEMPLATE = (
    "A prompt produced a wrong answer.\n"
    "Input:\n{input}\n\nExpected:\n{expected}\n\nPredicted:\n{predicted}\n\n"
    'Briefly explain the likely cause of the error. Return the result directly '
    'in JSON format: {{"reason": ""}}'
)


def evaluate_many(candidates: Sequence[Candidate], examples: Sequence[ExampleRecord],
                  backend: Backend, objective: str = "f1", cls_average: str = "micro",
                  bad_case_cap: int = 20, seed: int = 0, model: str = "default",
                  ) -> list[tuple[MetricReport, list[BadCase]]]:
    """Score every candidate on the same examples with one backend batch of
    len(candidates) x len(examples) requests in (candidate, example) order.
    Each candidate's report and bad cases are what `evaluate` would give it
    alone."""
    if not examples:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    if not candidates:
        return []
    reqs = [
        user_request(render(cand.prompt, ex.input), model=model)
        for cand in candidates for ex in examples
    ]
    results = backend.generate_batch(reqs)
    n = len(examples)
    return [
        _score_results(examples, results[i * n:(i + 1) * n], objective, cls_average,
                       bad_case_cap, seed)
        for i in range(len(candidates))
    ]


def _score_results(examples, results, objective, cls_average, bad_case_cap, seed,
                   ) -> tuple[MetricReport, list[BadCase]]:
    """Parse and score one candidate's replies, and collect a seeded uniform
    sample of its failures as bad cases."""
    task = examples[0].task
    gold = {}
    predictions = {}
    failures = []
    for ex, res in zip(examples, results):
        gold[ex.id] = ex.gold
        if isinstance(res, GenerationResponse):
            pred = parse_prediction(task, res.text)
        else:
            pred = FORMAT_FAILURE
        predictions[ex.id] = pred
        if not _is_correct(task, ex.gold, pred):
            failures.append(BadCase(ex.id, ex.gold, pred))
    report = score(task, gold, predictions, objective=objective, cls_average=cls_average)
    rng = random.Random(seed)
    if len(failures) > bad_case_cap:
        bad_cases = rng.sample(failures, bad_case_cap)
    else:
        bad_cases = list(failures)
    return report, bad_cases


def evaluate(candidate: Candidate, examples: Sequence[ExampleRecord], backend: Backend,
             objective: str = "f1", bad_case_cap: int = 20, seed: int = 0,
             model: str = "default", diagnose: bool = False, cls_average: str = "micro",
             ) -> tuple[MetricReport, list[BadCase]]:
    """Render the candidate prompt over every example, batch-generate, parse,
    score, and collect a seeded uniform sample of failures as bad cases: the
    one-candidate case of `evaluate_many`."""
    report, bad_cases = evaluate_many(
        [candidate], examples, backend, objective=objective, cls_average=cls_average,
        bad_case_cap=bad_case_cap, seed=seed, model=model,
    )[0]
    if diagnose and bad_cases:
        _diagnose(bad_cases, {ex.id: ex for ex in examples}, backend, model)
    return report, bad_cases


def _is_correct(task: str, gold, pred) -> bool:
    if pred is FORMAT_FAILURE:
        return False
    if task == "NER":
        g = {k: frozenset(v) for k, v in gold.items() if v}
        p = {k: frozenset(v) for k, v in pred.items() if v}
        return g == p
    if task == "MRC":
        return _mrc_prf(gold, pred if isinstance(pred, str) else "")[2] == 1.0
    return gold == pred


def _diagnose(bad_cases: list[BadCase], examples, backend: Backend, model: str):
    reqs = []
    for bc in bad_cases:
        ex = examples[bc.example_id]
        text = DIAGNOSIS_TEMPLATE.format(
            input=ex.input, expected=_show(bc.expected), predicted=_show(bc.predicted)
        )
        reqs.append(user_request(text, model=model))
    for bc, res in zip(bad_cases, backend.generate_batch(reqs)):
        if isinstance(res, GenerationResponse):
            doc = extract_first_json(res.text)
            if isinstance(doc, dict) and isinstance(doc.get("reason"), str):
                bc.reason = doc["reason"]


def _show(answer) -> str:
    if answer is FORMAT_FAILURE:
        return "<unparseable output>"
    if isinstance(answer, dict):
        return json.dumps(
            {k: sorted(list(map(list, v))) for k, v in answer.items()},
            ensure_ascii=False, sort_keys=True,
        )
    return str(answer)
