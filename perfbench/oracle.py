"""Planted-signal oracle and the in-process backend that serves it.

The oracle stands in for an LLM. It answers two kinds of request:

* Evaluation requests (a rendered prompt with the example input between
  INPUT_OPEN and INPUT_CLOSE). The reply is a pure function of the request
  text. The prompt outside the input sets an accuracy level p; an example is
  answered correctly when its own fixed draw u < p, so a prompt with higher p
  is right on a superset of examples and scores are monotone in p.
* Operator requests (any other text). The reply depends on the text and on
  how many times that exact text was seen before, so the beam_init identical
  `refine` requests of pool initialization still yield distinct variants.
  The new body is the old body plus an edit marker.

p rises by PLANTED_GAIN for every planted cell present (the CoT scaffold in a
section whose body starts with PLANTED_PREFIX, such as a label definition)
and by STEP for every other edit, so runs keep improving slowly instead of
stopping at the first stall. Fixed shares of replies are fenced,
prose-wrapped or malformed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from bisect import bisect_left
from typing import Sequence

from promptopt.backend import Backend, GenerationResponse, UsageCounter
from promptopt.errors import BackendError
from promptopt.operators import COT_SCAFFOLD

INPUT_OPEN = "<<<INPUT\n"
INPUT_CLOSE = "\nINPUT>>>"
PLANTED_PREFIX = "Definition of "
FEW_SHOT_MARK = "\nOutput: "

BASE_P = 0.55
PLANTED_GAIN = 0.03
STEP = 0.01
MAX_P = 0.96  # below 1 - EVAL_MALFORMED

# shares of evaluation replies, decided per example
EVAL_MALFORMED = 0.03
EVAL_FENCED = 0.30
EVAL_PROSE = 0.30
# default share of operator replies that cannot be parsed
OPERATOR_MALFORMED = 0.05

_MARKER = re.compile(r"\[edit [a-z_]+ \d+\]")
_LAST_KEY = re.compile(r'"([^"\n]*)":""\s*\}\s*$')
_SECTION_ID = re.compile(r"^- id: (\S+) \| name:", re.MULTILINE)

# (signature in the operator template, operator id)
_OPERATOR_SIGNATURES = (
    ('"Refine" method', "refine"),
    ("rewrite one part of a prompt from scratch", "rewrite"),
    ("streamline part of a prompt", "short_instruction"),
    ("bad case analysis", "reflect"),
    ("Several variants of the same prompt section", "diff_evolution"),
    ("Multiple high-performing prompts", "merge"),
    ("Reorder the sections below", "define_sort"),
)
_BODY_STARTS = ("the original expression is as follows:\n", " is as follows:\n")
_BODY_ENDS = (
    "\n\nPlease use the", "\n\nWrite a completely new", "\n\nShorten the expression",
    "\n\nRead the bad case", "\n\nVariant 2 (",
    "\n\nWrite the improved", "\n\nYou need to return",
)


def unit(*parts: object) -> float:
    """Deterministic draw in [0, 1) from the given parts."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def count_tokens(text: str) -> int:
    """Token estimate shared by the in-process backend and the HTTP stub."""
    return (len(text) + 3) // 4


def accuracy_level(prompt_text: str) -> float:
    """p for a rendered prompt with the input removed."""
    planted = other = 0
    in_planted_section = False
    for chunk in prompt_text.split("\n\n"):
        if chunk.startswith(COT_SCAFFOLD):
            if in_planted_section:
                planted += 1
            else:
                other += 1
            continue
        in_planted_section = chunk.startswith(PLANTED_PREFIX)
    other += len(_MARKER.findall(prompt_text))
    if FEW_SHOT_MARK in prompt_text:
        other += 1
    return min(MAX_P, BASE_P + PLANTED_GAIN * planted + STEP * other)


def _stratified(seed: int, salt: str, items) -> dict:
    """Map each key of (key, name) items to (i + 0.5) / n, i its rank in an
    order shuffled by the seed."""
    ranked = sorted(items, key=lambda item: unit(seed, salt, item[1]))
    return {key: (i + 0.5) / len(ranked) for i, (key, _) in enumerate(ranked)}


def _wrap(payload: str, draw: float, malformed: bool) -> str:
    if malformed:
        return "Sure, here is the result: " + payload[: max(1, len(payload) // 2)]
    if draw < EVAL_FENCED:
        return "```json\n" + payload + "\n```"
    if draw < EVAL_FENCED + EVAL_PROSE:
        return ("After reading the input carefully, the answer is below.\n"
                + payload + "\nLet me know if anything needs another look.")
    return payload


class Oracle:
    """Answer function for one task over fixed splits of examples.

    `splits` are lists of ExampleRecords (train, test). Draws are stratified
    within each split: the i-th of n examples, in an order shuffled by the
    seed, gets the draw (i + 0.5) / n. So a step in p flips the same share of
    every split whatever the seed, and the shares of reply formats are exact.
    `decoys` maps an MRC example id to the wrong answer given when the example
    is missed."""

    def __init__(self, task: str, splits: Sequence[Sequence], seed: int,
                 labels: Sequence[str] = (), decoys=None,
                 operator_malformed: float = OPERATOR_MALFORMED):
        self.task = task
        self.seed = seed
        self.operator_malformed = operator_malformed
        self.labels = tuple(labels)
        self.decoys = dict(decoys or {})
        examples = [ex for split in splits for ex in split]
        self._by_input = {ex.input: ex for ex in examples}
        if len(self._by_input) != len(examples):
            raise ValueError("example inputs must be distinct")
        self._lock = threading.Lock()
        self._seen: dict[str, int] = {}
        self._p_cache: dict[str, float] = {}
        self._reply_cache: dict = {}
        self.requests = 0
        self._u: dict[str, float] = {}  # correct when u < p (CLS, MRC)
        self._fmt: dict[str, float] = {}  # picks the reply wrapping
        self._ner_order: dict[str, list] = {}  # (u, label, start, end), sorted
        self._ner_draws: dict[str, list] = {}
        for split in splits:
            self._u.update(_stratified(seed, "u", [(ex.input, ex.id) for ex in split]))
            self._fmt.update(_stratified(seed, "fmt", [(ex.input, ex.id) for ex in split]))
            if task == "NER":
                spans = [((ex.input, label, s, e), "%s/%s/%d" % (ex.id, label, s))
                         for ex in split for label, group in ex.gold.items()
                         for s, e in group]
                for (inp, label, s, e), u in _stratified(seed, "span", spans).items():
                    self._ner_order.setdefault(inp, []).append((u, label, s, e))
        for inp, spans in self._ner_order.items():
            spans.sort()
            self._ner_draws[inp] = [span[0] for span in spans]

    def reset(self) -> None:
        """Forget request history, so the next run sees the same replies."""
        with self._lock:
            self._seen.clear()
            self.requests = 0

    def answer(self, text: str) -> str:
        with self._lock:
            self.requests += 1
            start = text.find(INPUT_OPEN)
            if start < 0:
                n = self._seen.get(text, 0)
                self._seen[text] = n + 1
                return self._operator_reply(text, n)
        end = text.find(INPUT_CLOSE, start)
        inp = text[start + len(INPUT_OPEN):end]
        key = text[:start] + text[end:]
        p = self._p_cache.get(key)
        if p is None:
            p = self._p_cache[key] = accuracy_level(key)
        return self._eval_reply(inp, p)

    # -- evaluation replies ------------------------------------------------

    def _eval_reply(self, inp: str, p: float) -> str:
        if self.task == "NER":
            k = bisect_left(self._ner_draws.get(inp, ()), p)
        else:
            k = self._u[inp] < p
        cache_key = (inp, k)
        reply = self._reply_cache.get(cache_key)
        if reply is None:
            payload = self._payload(self._by_input[inp], k)
            reply = _wrap(payload, self._fmt[inp], self._malformed(inp))
            self._reply_cache[cache_key] = reply
        return reply

    def _malformed(self, inp: str) -> bool:
        if self.task == "NER":
            return self._fmt[inp] >= 1 - EVAL_MALFORMED
        # the examples no p reaches: a malformed reply never hides a gain
        return self._u[inp] >= 1 - EVAL_MALFORMED

    def _payload(self, ex, k) -> str:
        if self.task == "CLS":
            label = ex.gold
            if not k:
                others = [lbl for lbl in self.labels if lbl != ex.gold]
                label = others[int(unit(self.seed, "wrong", ex.id) * len(others))]
            return json.dumps({"label": label})
        if self.task == "MRC":
            return json.dumps({"answer": ex.gold if k else self.decoys[ex.id]})
        # NER: the first k spans are exact, each missed span is either
        # dropped or reported with a shifted end
        doc: dict = {}
        for rank, (_, label, s, e) in enumerate(self._ner_order.get(ex.input, ())):
            if rank >= k:
                if e - s < 2 or unit(self.seed, "shift", ex.id, s) < 0.5:
                    continue
                e -= 1
            doc.setdefault(label, {}).setdefault(ex.input[s:e], []).append([s, e])
        return json.dumps(doc, ensure_ascii=False)

    # -- operator replies --------------------------------------------------

    def _operator_reply(self, text: str, n: int) -> str:
        op = next((o for sig, o in _OPERATOR_SIGNATURES if sig in text), None)
        draw = unit(self.seed, "op", text, n)
        if op is None or draw < self.operator_malformed:
            return "I could not produce an improved section."
        if op == "define_sort":
            ids = _SECTION_ID.findall(text)
            if len(ids) >= 2:
                ids[0], ids[1] = ids[1], ids[0]
            return _wrap(json.dumps({"order": ids}), draw, False)
        key = _LAST_KEY.search(text)
        old = _old_body(text)
        if key is None or old is None:
            return "I could not find the section to improve."
        body = "%s [edit %s %d]" % (old, op, int(draw * 1_000_000))
        doc = {key.group(1): body}
        if op == "reflect":
            doc = {"Common problem extraction": "ambiguous inputs",
                   "Root cause analysis": "the definition is too loose",
                   key.group(1): body}
        return _wrap(json.dumps(doc, ensure_ascii=False), draw, False)


def _old_body(text: str):
    for anchor in _BODY_STARTS:
        i = text.find(anchor)
        if i >= 0:
            start = i + len(anchor)
            break
    else:
        i = text.find("Variant 1 (score ")
        if i < 0:
            return None
        start = text.index("):\n", i) + 3
    ends = [j for j in (text.find(e, start) for e in _BODY_ENDS) if j >= 0]
    return text[start:min(ends)] if ends else None


class OracleBackend(Backend):
    """In-process backend over an Oracle with virtual server slots.

    A batch is served serially and then sleeps ceil(n / slots) * latency_s,
    the time `slots` parallel servers would need, without starting threads.
    A single `generate` sleeps one latency. A BackendError from the oracle
    fails its own request, as in the program's backends; `slept` is the
    total time slept."""

    def __init__(self, oracle: Oracle, latency_s: float = 0.0, slots: int = 64):
        self.oracle = oracle
        self.latency_s = latency_s
        self.max_parallel = slots
        self.usage = UsageCounter()
        self.slept = 0.0

    def _serve(self, req) -> GenerationResponse:
        text = req.messages[-1][1]
        out = self.oracle.answer(text)
        resp = GenerationResponse(
            text=out,
            prompt_tokens=sum(count_tokens(c) for _, c in req.messages),
            completion_tokens=count_tokens(out),
        )
        self.usage.add(resp)
        return resp

    def _wait(self, n: int) -> None:
        if self.latency_s > 0:
            t0 = time.perf_counter()
            time.sleep(math.ceil(n / self.max_parallel) * self.latency_s)
            self.slept += time.perf_counter() - t0

    def generate(self, req) -> GenerationResponse:
        try:
            return self._serve(req)
        finally:
            self._wait(1)

    def generate_batch(self, reqs):
        results = []
        for req in reqs:
            try:
                results.append(self._serve(req))
            except BackendError as e:
                results.append(e)
        self._wait(len(reqs))
        return results
