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
from .errors import AlignmentError, AuthError, CorruptFile, EmptyDataset, OutOfRange
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
    # NER: {label: frozenset[(start, end)]}; CLS: label; MRC: the answer
    # string, or a tuple of every gold answer when there are several
    gold: object

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

def score(task: str, gold: Mapping[object, object], predictions: Mapping[object, object],
          objective: str = "f1", cls_average: str = "micro") -> MetricReport:
    """Compute the task metric over predictions aligned to gold by key."""
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


_NO_SPANS: frozenset = frozenset()


def _span_set(spans):
    """`spans` itself when it is already a set, else its distinct spans."""
    return spans if isinstance(spans, (set, frozenset)) else frozenset(spans)


def _score_ner(gold, predictions, objective) -> MetricReport:
    counts: dict[str, list[int]] = {}  # label -> [tp, fp, fn]
    for ex_id, gold_map in gold.items():
        pred = predictions[ex_id]
        pred_map = pred if isinstance(pred, dict) else {}
        for label in gold_map.keys() | pred_map.keys():
            g = _span_set(gold_map.get(label, _NO_SPANS))
            p = _span_set(pred_map.get(label, _NO_SPANS))
            tp = len(g & p)
            c = counts.setdefault(label, [0, 0, 0])
            c[0] += tp
            c[1] += len(p) - tp
            c[2] += len(g) - tp
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


def _mrc_best_prf(gold, pred_text: str) -> tuple[float, float, float]:
    """Token P/R/F1 against the gold answer, or against the gold answer with
    the highest F1 when `gold` is a sequence of answers (SQuAD)."""
    if isinstance(gold, str):
        return _mrc_prf(gold, pred_text)
    return max((_mrc_prf(g, pred_text) for g in gold), key=lambda prf: prf[2])


def _score_mrc(gold, predictions, objective) -> MetricReport:
    ps, rs, fs = [], [], []
    for ex_id, g in gold.items():
        pred = predictions[ex_id]
        pred_text = pred if isinstance(pred, str) else ""
        p, r, f = _mrc_best_prf(g, pred_text)
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
    {"text", "label"}; MRC lines are {"context", "question", "answers"}, and
    every entry of "answers" is kept as gold. A file that is not UTF-8, or a
    line that is not a JSON object of that layout, raises CorruptFile naming
    the file and the line."""
    if task not in ("NER", "CLS", "MRC"):
        raise ValueError("unknown task %r" % task)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise CorruptFile("%s: not UTF-8 text (%s)" % (path, e)) from None
    records = []
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        where = "%s line %d" % (path, lineno + 1)
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            raise CorruptFile("%s: not valid JSON" % where) from None
        if not isinstance(doc, dict):
            raise CorruptFile("%s: not a JSON object" % where)
        try:
            records.append(_record(doc, task, str(doc.get("id", lineno)), inclusive_end))
        except KeyError as e:
            raise CorruptFile("%s: missing field %s" % (where, e)) from None
        except (AttributeError, TypeError, ValueError) as e:
            raise CorruptFile("%s: %s" % (where, e)) from None
    return records


def _record(doc: dict, task: str, ex_id: str, inclusive_end: bool) -> ExampleRecord:
    if task == "NER":
        gold = {}
        for label, mentions in (doc.get("label") or {}).items():
            spans = set()
            for _, span_list in mentions.items():
                for s, e in span_list:
                    spans.add((s, e + 1) if inclusive_end else (s, e))
            gold[label] = frozenset(spans)
        return ExampleRecord(ex_id, "NER", doc["text"], gold)
    if task == "CLS":
        return ExampleRecord(ex_id, "CLS", doc["text"], doc["label"])
    answers = doc.get("answers") or [""]
    if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
        raise ValueError('"answers" must be a list of strings')
    gold = answers[0] if len(answers) == 1 else tuple(answers)
    text = "Question: %s\nContext: %s" % (doc["question"], doc["context"])
    return ExampleRecord(ex_id, "MRC", text, gold)


# ---------------------------------------------------------------------------
# candidate evaluation

def predict_many(candidates: Sequence[Candidate], examples: Sequence[ExampleRecord],
                 backend: Backend, model: str = "default") -> list[list]:
    """Send one backend batch of len(candidates) x len(examples) requests in
    (candidate, example) order. Returns, for each candidate, its parsed
    predictions in example order. A failed request predicts a format
    failure, except an AuthError, which is raised: the first one in the
    batch ends the evaluation."""
    if not examples:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    if not candidates:
        return []
    reqs = [
        user_request(render(cand.prompt, ex.input), model=model)
        for cand in candidates for ex in examples
    ]
    results = backend.generate_batch(reqs)
    task = examples[0].task
    n = len(examples)
    out = []
    for i in range(len(candidates)):
        predictions = []
        for res in results[i * n:(i + 1) * n]:
            if isinstance(res, GenerationResponse):
                predictions.append(parse_prediction(task, res.text))
            elif isinstance(res, AuthError):
                raise res  # no later request can succeed: end the run
            else:
                predictions.append(FORMAT_FAILURE)
        out.append(predictions)
    return out


def report_predictions(examples: Sequence[ExampleRecord], predictions: Sequence,
                       objective: str = "f1", cls_average: str = "micro",
                       bad_case_cap: int = 20, seed: int = 0,
                       ) -> tuple[MetricReport, list[BadCase]]:
    """Score one candidate's predictions, aligned with `examples`, and
    collect a seeded uniform sample of up to `bad_case_cap` of its failures
    as bad cases (none are looked for when the cap is 0). Examples are keyed
    by position, so examples that share an id are all scored."""
    task = examples[0].task
    gold = {}
    by_position = {}
    failures = []
    for i, (ex, pred) in enumerate(zip(examples, predictions)):
        gold[i] = ex.gold
        by_position[i] = pred
        if bad_case_cap and not _is_correct(task, ex.gold, pred):
            failures.append(BadCase(ex.id, ex.gold, pred))
    report = score(task, gold, by_position, objective=objective, cls_average=cls_average)
    rng = random.Random(seed)
    if len(failures) > bad_case_cap:
        bad_cases = rng.sample(failures, bad_case_cap)
    else:
        bad_cases = list(failures)
    return report, bad_cases


def evaluate(candidate: Candidate, examples: Sequence[ExampleRecord], backend: Backend,
             objective: str = "f1", bad_case_cap: int = 20, seed: int = 0,
             model: str = "default", cls_average: str = "micro",
             ) -> tuple[MetricReport, list[BadCase]]:
    """Render the candidate prompt over every example, batch-generate, parse,
    score, and collect a seeded uniform sample of failures as bad cases. A
    failed request scores as a format failure, except an AuthError, which is
    raised."""
    [predictions] = predict_many([candidate], examples, backend, model=model)
    return report_predictions(examples, predictions, objective=objective,
                              cls_average=cls_average, bad_case_cap=bad_case_cap, seed=seed)


def _is_correct(task: str, gold, pred) -> bool:
    if pred is FORMAT_FAILURE:
        return False
    if task == "NER":
        g = {k: frozenset(v) for k, v in gold.items() if v}
        p = {k: frozenset(v) for k, v in pred.items() if v}
        return g == p
    if task == "MRC":
        return _mrc_best_prf(gold, pred if isinstance(pred, str) else "")[2] == 1.0
    return gold == pred
