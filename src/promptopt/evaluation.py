"""Task evaluation: dataset ingestion, prediction parsing, P/R/F1 scoring
(overall and per-label), loss, and bad-case collection for the reflection
operator.

Tasks: NER (span-level exact match, half-open character spans), CLS
(single-label classification, micro- or macro-averaged overall), MRC
(SQuAD-style token-level F1 averaged over examples).

Each example's judgement (what it adds to the score, and whether it is
exactly right) is a pure function of its task, gold and reply text.
This module owns the layout of an evaluation batch: a batch is a list of
(candidate, start, stop) segments, each the candidate on examples[start:stop].
`eval_requests` lists the segments' requests in order, and `judge_replies`
splits the batch's replies back into each segment's reply texts and
judgements; `evaluate` is the one-segment case. Judging keeps one memo slot
per example holding its last reply and that reply's judgement, so a caller
that keeps the memo (the trainer keeps one for its training set) parses and
judges an example's reply only when it differs from that example's
previous reply. A failed request reaches judging as a value, the
BackendError the backend returned for it, and predicts a format failure;
the backend raises the one failure that ends a run, an AuthError. Scoring
is one `Tally` per prompt: judgements are added in order, each once, and
the score of everything added so far can be read at any point, which is
the score of that prefix on its own. The same pass lists the examples that
are not exactly right, from which the bad cases are sampled; only the
sampled replies are parsed again, to give each bad case its prediction.
"""

from __future__ import annotations

import json
import logging
import math
import random
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backend import Backend, GenerationRequest, GenerationResponse
from .errors import AlignmentError, CorruptFile, EmptyDataset, OutOfRange
from .jsontools import extract_first_json
from .prompt_model import TASK_KINDS, Candidate, render

log = logging.getLogger(__name__)


class FormatFailure:
    """Sentinel for model output that could not be parsed into an answer.
    Scored as an all-miss prediction. FORMAT_FAILURE is its one instance,
    and code tests for it by identity."""

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


BAD_CASE_CAP = 20  # the bad cases kept per scored prompt, by default


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
        try:
            # frozenset of a set built in reply order, never of a list or a
            # generator: a frozenset's iteration order depends on how it was
            # built, and that order reaches reflect requests through the repr
            # of a bad case's prediction
            return {label: frozenset({(int(span[0]), int(span[1]))
                                      for span_list in mentions.values() for span in span_list})
                    for label, mentions in doc.items()}
        except (AttributeError, TypeError, ValueError, LookupError):
            # mentions that are not an object, or a span that is not a pair
            return FORMAT_FAILURE
    raise ValueError("unknown task %r" % task)


# ---------------------------------------------------------------------------
# scoring

_OBJECTIVE_INDEX = {"precision": 0, "recall": 1, "f1": 2}
_NO_SPANS: frozenset = frozenset()


def _micro(counts) -> tuple[int, int, int]:
    """Total (tp, fp, fn) over per-label [tp, fp, fn] counts."""
    tp = fp = fn = 0
    for c in counts.values():
        tp += c[0]
        fp += c[1]
        fn += c[2]
    return tp, fp, fn


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


def _judge(task: str, gold, pred) -> tuple[bool, object]:
    """One example's judgement: whether `pred` is exactly right, and what it
    adds to the score, the (label, tp, fp, fn) deltas for NER and CLS or the
    (p, r, f) for MRC. A pure function of its arguments. A format failure,
    a CLS label other than gold, NER spans other than gold (a label with no
    spans counts as absent) and an MRC answer with token F1 below 1 are not
    exactly right."""
    if task == "NER":
        right = isinstance(pred, dict)
        pred_map = pred if right else {}
        deltas = []
        for label, g in gold.items():
            p = pred_map.get(label, _NO_SPANS)
            # spans given in a list count once each; parsed and loaded spans
            # are already frozensets, and the class test spares the copy
            if g.__class__ is not frozenset:
                g = frozenset(g)
            if p.__class__ is not frozenset:
                p = frozenset(p)
            tp = len(g & p)
            fp, fn = len(p) - tp, len(g) - tp
            deltas.append((label, tp, fp, fn))
            if fp or fn:
                right = False
        for label, p in pred_map.items():
            if label not in gold:
                fp = len(p if p.__class__ is frozenset else frozenset(p))
                deltas.append((label, 0, fp, 0))
                if fp:
                    right = False
        return right, deltas
    if task == "CLS":
        if pred == gold:
            return True, ((gold, 1, 0, 0),)
        if isinstance(pred, str):
            return False, ((gold, 0, 0, 1), (pred, 0, 1, 0))
        return False, ((gold, 0, 0, 1),)
    prf = _mrc_best_prf(gold, pred if isinstance(pred, str) else "")
    return prf[2] == 1.0 and pred is not FORMAT_FAILURE, prf


class Tally:
    """The running score of a task's examples, as their judgements (see
    _judge) are added in order. At any point `objective_value` and `report`
    are what scoring the examples added so far on their own would give, and
    `misses` lists, in order, the key of every one of them that is not
    exactly right."""

    def __init__(self, task: str, objective: str = "f1", cls_average: str = "micro"):
        if task not in TASK_KINDS:
            raise ValueError("unknown task %r" % task)
        self.task = task
        self.objective = objective
        self.cls_average = cls_average
        self.counts: dict[str, list[int]] = {}  # NER, CLS: label -> [tp, fp, fn]
        self.prfs: list[tuple[float, float, float]] = []  # MRC: per example
        self.misses: list = []

    def add(self, items) -> None:
        """Add (key, judgement) pairs, in order."""
        task, counts, prfs, misses = self.task, self.counts, self.prfs, self.misses
        for key, (right, scored) in items:
            if not right:
                misses.append(key)
            if task == "MRC":
                prfs.append(scored)
                continue
            for label, tp, fp, fn in scored:
                c = counts.get(label)
                if c is None:
                    counts[label] = [tp, fp, fn]
                else:
                    c[0] += tp
                    c[1] += fp
                    c[2] += fn

    def _overall(self) -> tuple[float, float, float]:
        if self.task == "MRC":
            n = len(self.prfs)
            return tuple(math.fsum(prf[j] for prf in self.prfs) / n if n else 0.0
                         for j in range(3))
        if self.task == "CLS" and self.cls_average == "macro" and self.counts:
            # labels in sorted order, so the float sums do not depend on the
            # order the labels were first seen in
            seen = [_prf(*self.counts[label]) for label in sorted(self.counts)]
            return tuple(math.fsum(m[j] for m in seen) / len(seen) for j in range(3))
        return _prf(*_micro(self.counts))

    def objective_value(self) -> float:
        return self._overall()[_OBJECTIVE_INDEX[self.objective]]

    def report(self) -> MetricReport:
        p, r, f = self._overall()
        if self.task == "MRC":
            return MetricReport(p, r, f, per_label={}, support=len(self.prfs),
                                objective=self.objective)
        tp, _, fn = _micro(self.counts)
        per_label = {label: LabelMetrics(*_prf(*c), support=c[0] + c[2], tp=c[0], fp=c[1],
                                         fn=c[2])
                     for label, c in sorted(self.counts.items())}
        return MetricReport(p, r, f, per_label, support=tp + fn, objective=self.objective)


def score(task: str, gold: Mapping[object, object], predictions: Mapping[object, object],
          objective: str = "f1", cls_average: str = "micro") -> MetricReport:
    """Compute the task metric over predictions aligned to gold by key."""
    if set(gold) != set(predictions):
        raise AlignmentError(
            "gold and prediction ids differ: %r vs %r"
            % (sorted(gold)[:5], sorted(predictions)[:5])
        )
    tally = Tally(task, objective, cls_average)
    tally.add((key, _judge(task, g, predictions[key])) for key, g in gold.items())
    return tally.report()


# ---------------------------------------------------------------------------
# dataset ingestion

def load_dataset(path, task: str, inclusive_end: bool = False) -> list[ExampleRecord]:
    """Read a JSONL dataset. NER lines use the nested
    {"label": {"<type>": {"<mention>": [[start, end]]}}} layout (half-open
    spans; pass inclusive_end=True for raw Cluener files); CLS lines are
    {"text", "label"}; MRC lines are {"context", "question", "answers"}, and
    every entry of "answers" is kept as gold. A file that is not UTF-8, or a
    line that is not a JSON object of that layout (text, question, context
    and a CLS label must be strings, span offsets integers), raises
    CorruptFile naming the file and the line."""
    if task not in TASK_KINDS:
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


def _string(doc: dict, key: str) -> str:
    value = doc[key]
    if not isinstance(value, str):
        raise ValueError('"%s" must be a string, not %s' % (key, json.dumps(value)))
    return value


def _record(doc: dict, task: str, ex_id: str, inclusive_end: bool) -> ExampleRecord:
    if task == "NER":
        gold = {}
        for label, mentions in (doc.get("label") or {}).items():
            spans = set()
            for _, span_list in mentions.items():
                for s, e in span_list:
                    if type(s) is not int or type(e) is not int:  # bool is an int too
                        raise ValueError("span offsets must be integers, not %s"
                                         % json.dumps([s, e]))
                    spans.add((s, e + 1) if inclusive_end else (s, e))
            gold[label] = frozenset(spans)
        return ExampleRecord(ex_id, "NER", _string(doc, "text"), gold)
    if task == "CLS":
        return ExampleRecord(ex_id, "CLS", _string(doc, "text"), _string(doc, "label"))
    answers = doc.get("answers") or [""]
    if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
        raise ValueError('"answers" must be a list of strings')
    gold = answers[0] if len(answers) == 1 else tuple(answers)
    text = "Question: %s\nContext: %s" % (_string(doc, "question"), _string(doc, "context"))
    return ExampleRecord(ex_id, "MRC", text, gold)


# ---------------------------------------------------------------------------
# candidate evaluation

_NO_REPLY = object()  # the text of a memo slot that holds no reply yet


def reply_memo(n: int) -> list[list]:
    """A memo for judge_replies: n empty [reply text, judgement] slots, one
    per example."""
    return [[_NO_REPLY, None] for _ in range(n)]


def eval_requests(segments: Sequence[tuple[Candidate, int, int]],
                  examples: Sequence[ExampleRecord],
                  model: str = "default") -> list[GenerationRequest]:
    """The evaluation requests of each (candidate, start, stop) segment, the
    candidate on examples[start:stop] in example order, in segment order."""
    return [GenerationRequest((("user", render(cand.prompt, ex.input)),), model)
            for cand, start, stop in segments for ex in examples[start:stop]]


def judge_replies(segments: Sequence[tuple[Candidate, int, int]],
                  examples: Sequence[ExampleRecord], results: Sequence,
                  memo: list[list]) -> list[tuple[list, list]]:
    """Each segment's reply texts and their judgements (see _judge), in
    example order, from the results of its requests (see eval_requests),
    which `results` holds in order. A failed request, a BackendError in
    `results`, has the text None and is judged a format failure.

    `memo` (see reply_memo) holds one slot per example, shared by the
    segments. A reply equal to its example's slot text takes the slot's
    judgement; any other reply is parsed and judged and replaces the slot,
    which a failed request leaves as it is. Parsing and judging are pure
    functions of the task, the gold and the text, so the memo changes no
    result, and a caller that keeps one across calls parses and judges each
    example's reply again only when it changes."""
    task = examples[0].task
    out = []
    at = 0
    for _, start, stop in segments:
        texts, judgements = [], []
        for ex, slot, res in zip(examples[start:stop], memo[start:stop],
                                 results[at:at + stop - start]):
            if isinstance(res, GenerationResponse):
                if slot[0] != res.text:
                    slot[:] = res.text, _judge(task, ex.gold, parse_prediction(task, res.text))
                # the slot's string, so a repeated reply is held once
                texts.append(slot[0])
                judgements.append(slot[1])
            else:
                texts.append(None)
                judgements.append(_judge(task, ex.gold, FORMAT_FAILURE))
        out.append((texts, judgements))
        at += stop - start
    return out


def sample_bad_cases(examples: Sequence[ExampleRecord], texts: Sequence,
                     misses: Sequence[int], cap: int = BAD_CASE_CAP,
                     seed: int = 0) -> list[BadCase]:
    """Bad cases for a seeded uniform sample of up to `cap` of the positions
    in `misses`, which index both `examples` and `texts`, the reply texts
    judge_replies gives. Each sampled reply is parsed into its bad case's
    prediction, a text of None (a failed request) into a format failure."""
    if len(misses) > cap:
        misses = random.Random(seed).sample(misses, cap)
    return [BadCase(examples[i].id, examples[i].gold,
                    FORMAT_FAILURE if texts[i] is None
                    else parse_prediction(examples[i].task, texts[i]))
            for i in misses]


def tally_candidate(candidate: Candidate, examples: Sequence[ExampleRecord], backend: Backend,
                    objective: str = "f1", model: str = "default",
                    cls_average: str = "micro") -> tuple[Tally, list]:
    """Render the candidate prompt over every example, batch-generate, then
    parse and judge each reply once: the tally of the judgements and the
    reply texts (see judge_replies). A failed request scores as a format
    failure; an AuthError, which the backend raises, ends the evaluation."""
    if not examples:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    segments = [(candidate, 0, len(examples))]
    results = backend.generate_batch(eval_requests(segments, examples, model))
    [(texts, judgements)] = judge_replies(segments, examples, results,
                                          reply_memo(len(examples)))
    tally = Tally(examples[0].task, objective, cls_average)
    tally.add(enumerate(judgements))
    return tally, texts


def evaluate(candidate: Candidate, examples: Sequence[ExampleRecord], backend: Backend,
             objective: str = "f1", bad_case_cap: int = BAD_CASE_CAP, seed: int = 0,
             model: str = "default", cls_average: str = "micro",
             ) -> tuple[MetricReport, list[BadCase]]:
    """The candidate's report on every example (see tally_candidate) and a
    seeded uniform sample of its failures as bad cases."""
    tally, texts = tally_candidate(candidate, examples, backend, objective, model, cls_average)
    return tally.report(), sample_bad_cases(examples, texts, tally.misses, bad_case_cap, seed)
