"""Prompt-edit operator catalog.

An operator returns the prompt its edit makes, a `MetaPrompt`, or None for
a no-op. It runs in two steps. `plan_operator` either finishes a local
operator (`LOCAL_OPERATORS`) without a model call,
or returns the requests a backend operator needs, and it alone makes an
operator with missing context a no-op; `finish_operator` turns the replies
into the edited prompt, and it alone makes an unparseable reply a no-op. An
edit that leaves the prompt as it was still comes back as a prompt:
`engine._Trainer._edited` alone, by fingerprint, treats it as a no-op.
A failed request reaches `finish_operator` as a value, the BackendError
the backend returned for it, and an operator none of whose replies arrived
comes back as its first failure; the backend raises the one failure that
ends a run, an AuthError.
`apply_operators` runs many operators in one round trip of their own, for
initialization, and `apply_operator` is its one-operator form; the trainer
sends its operators' requests itself, with `plan_operator` and
`finish_operator`, so that they can share a batch. Template-backed
operators, `TEMPLATE_OPERATORS`, build a chat request from the text
template `templates/<id>.txt` and parse a JSON response. A new one needs
its id in `OPERATOR_IDS` and in `TEMPLATE_OPERATORS`, its template file,
and its own branch in `build_request` when the template takes more than
the section's name and body.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..backend import Backend, BatchItem, GenerationRequest, GenerationResponse, user_request
from ..errors import (
    BackendError,
    EmptyDataset,
    IdenticalParents,
    KTooLarge,
    MissingContext,
    NonEditableSection,
    NotAPermutation,
    SectionSetMismatch,
    UnknownOperator,
)
from ..evaluation import ExampleRecord, MetricReport
from ..jsontools import extract_first_json
from ..prompt_model import Candidate, MetaPrompt, Section, reorder

TEMPLATE_DIR = Path(__file__).parent / "templates"

OPERATOR_IDS = (
    "rewrite",
    "refine",
    "reflect",
    "cot",
    "few_shot",
    "diff_evolution",
    "define_sort",
    "merge",
    "short_instruction",
    "self_consistency",
    "repeat_instructions",
)

# the operators that build a chat request from templates/<id>.txt
TEMPLATE_OPERATORS = ("rewrite", "refine", "reflect", "short_instruction",
                      "define_sort", "diff_evolution")

# the operators that `plan_operator` finishes without a model call
LOCAL_OPERATORS = ("cot", "few_shot", "repeat_instructions", "merge")

# self_consistency asks refine this many times and keeps the most typical body
CONSISTENCY_SAMPLES = 3

COT_SCAFFOLD = (
    "Work step by step: first restate what this part of the task requires, "
    "then reason through the input against each requirement, and only then "
    "produce the answer."
)


@functools.cache
def template(op: str) -> str:
    """The text of a template-backed operator's template, templates/<op>.txt;
    any other id raises UnknownOperator."""
    if op not in TEMPLATE_OPERATORS:
        raise UnknownOperator("operator %r has no template; apply it locally" % op)
    return (TEMPLATE_DIR / ("%s.txt" % op)).read_text(encoding="utf-8")


@dataclass(frozen=True)
class OperatorContext:
    target_section: Section
    prompt: MetaPrompt  # the prompt that holds target_section
    sibling_candidates: tuple[Candidate, ...] = ()
    bad_cases: tuple = ()
    dataset: tuple[ExampleRecord, ...] = ()
    rng_seed: int = 0
    model: str = "default"
    temperature: float = 0.7
    objective: str = "f1"
    metric_report: Optional[MetricReport] = None
    few_shot_k: int = 3
    few_shot_strategy: str = "uniform"


@dataclass(frozen=True)
class OperatorOutcome:
    new_body: Optional[str] = None
    new_order: Optional[tuple[str, ...]] = None
    parse_ok: bool = False


def _fill(template: str, **subs) -> str:
    out = template
    for key, value in subs.items():
        out = out.replace("{{%s}}" % key, value)
    return out


def _parent_list(parents: Sequence[Candidate], section_id: str, objective: str) -> str:
    """Parents sorted by descending score with their target-section bodies,
    rendered as a numbered block."""
    def key(c: Candidate):
        s = c.latest_score(objective)
        return -(s if s is not None else 0.0)

    ordered = sorted(parents, key=key)
    lines = []
    for i, cand in enumerate(ordered, 1):
        body = cand.prompt.section_by_id(section_id).body
        s = cand.latest_score(objective)
        score_text = "unscored" if s is None else "%.5f" % s
        lines.append("Variant %d (score %s):\n%s" % (i, score_text, body))
    return "\n\n".join(lines)


def build_request(op: str, ctx: OperatorContext) -> GenerationRequest:
    """Build the chat request for a template-backed operator, substituting
    the section name, body, and any operator-specific context blocks."""
    section = ctx.target_section
    if op in ("rewrite", "refine", "reflect", "short_instruction") and not section.editable:
        raise NonEditableSection(section.id)
    text = template(op)
    subs = {"Module": section.name, "Module_Desc": section.body}

    if op == "reflect":
        if not ctx.bad_cases:
            raise MissingContext("reflect requires at least one bad case")
        reasons = [_default_reason(bc) for bc in ctx.bad_cases]
        subs["Bad_Case_Reason_List"] = json.dumps(reasons, ensure_ascii=False)
    elif op == "diff_evolution":
        if len(ctx.sibling_candidates) < 2:
            raise MissingContext("diff_evolution requires at least 2 sibling candidates")
        bodies = {c.prompt.section_by_id(section.id).body for c in ctx.sibling_candidates}
        if len(bodies) < 2:
            raise IdenticalParents("parents share the same %r body" % section.id)
        subs["Parent_List"] = _parent_list(ctx.sibling_candidates, section.id, ctx.objective)
    elif op == "define_sort":
        lines = [
            "- id: %s | name: %s | starts: %s" % (s.id, s.name, s.body[:60].replace("\n", " "))
            for s in ctx.prompt.ordered_sections()
        ]
        subs["Section_List"] = "\n".join(lines)

    return user_request(_fill(text, **subs), model=ctx.model, temperature=ctx.temperature)


def _default_reason(bc) -> str:
    return "expected %r but the model produced %r" % (bc.expected, bc.predicted)


def parse_operator_response(op: str, raw: str, section_name: str) -> OperatorOutcome:
    """Extract the operator's result from a model response. Failures never
    raise; they come back with parse_ok=False and the caller treats the edit
    as a no-op."""
    doc = extract_first_json(raw)
    if op == "define_sort":
        order = None
        if isinstance(doc, list):
            order = doc
        elif isinstance(doc, dict) and isinstance(doc.get("order"), list):
            order = doc["order"]
        if order and all(isinstance(x, str) for x in order):
            return OperatorOutcome(new_order=tuple(order), parse_ok=True)
        return OperatorOutcome(parse_ok=False)

    if not isinstance(doc, dict):
        return OperatorOutcome(parse_ok=False)
    key = "Improved %s description" % section_name if op == "reflect" else section_name
    body = None
    if isinstance(doc.get(key), str):
        body = doc[key]
    elif op == "reflect":
        for k, v in doc.items():
            if k.startswith("Improved") and isinstance(v, str):
                body = v
                break
    else:
        string_values = [v for v in doc.values() if isinstance(v, str)]
        if len(string_values) == 1:
            body = string_values[0]
    if body:
        return OperatorOutcome(new_body=body, parse_ok=True)
    return OperatorOutcome(parse_ok=False)


# ---------------------------------------------------------------------------
# local operators

def few_shot_sample(dataset: Sequence[ExampleRecord], strategy: str, k: int,
                    seed: int, report: Optional[MetricReport] = None) -> str:
    """Deterministically sample k examples and format them as input/output
    pairs matching the task's output contract."""
    if k == 0:
        return ""
    if not dataset:
        raise EmptyDataset("few_shot needs a training set")
    if k > len(dataset):
        raise KTooLarge("k=%d exceeds dataset size %d" % (k, len(dataset)))
    rng = random.Random(seed)
    if strategy == "uniform":
        chosen = [dataset[i] for i in sorted(rng.sample(range(len(dataset)), k))]
    elif strategy == "stratified":
        chosen = _stratified(dataset, k, rng)
    elif strategy == "hard_case":
        if report is None:
            raise MissingContext("hard_case sampling requires a prior metric report")
        chosen = _hard_case(dataset, k, rng, report)
    else:
        raise ValueError("unknown sampling strategy %r" % strategy)
    return "\n\n".join(_format_example(ex) for ex in chosen)


def _example_label(ex: ExampleRecord) -> str:
    if ex.task == "CLS":
        return ex.gold
    if ex.task == "NER":
        labels = sorted(ex.gold)
        return labels[0] if labels else ""
    return ""


def _stratified(dataset, k, rng) -> list[ExampleRecord]:
    by_label: dict[str, list[ExampleRecord]] = {}
    for ex in dataset:
        by_label.setdefault(_example_label(ex), []).append(ex)
    labels = sorted(by_label)
    pools = {lbl: rng.sample(by_label[lbl], len(by_label[lbl])) for lbl in labels}
    chosen = []
    # round-robin so each label appears at least floor(k/|labels|) times when
    # its pool allows
    while len(chosen) < k:
        progressed = False
        for lbl in labels:
            if pools[lbl] and len(chosen) < k:
                chosen.append(pools[lbl].pop())
                progressed = True
        if not progressed:
            break
    return chosen


def _hard_case(dataset, k, rng, report: MetricReport) -> list[ExampleRecord]:
    difficulty = {lbl: met.f1 for lbl, met in report.per_label.items()}
    ordered = sorted(
        rng.sample(list(dataset), len(dataset)),
        key=lambda ex: difficulty.get(_example_label(ex), 1.0),
    )
    return ordered[:k]


def _format_example(ex: ExampleRecord) -> str:
    if ex.task == "CLS":
        gold = json.dumps({"label": ex.gold}, ensure_ascii=False)
    elif ex.task == "NER":
        # each mention with all of its spans: a repeated mention keeps them all
        doc = {}
        for label, spans in sorted(ex.gold.items()):
            mentions = doc[label] = {}
            for s, e in sorted(spans):
                mentions.setdefault(ex.input[s:e], []).append([s, e])
        gold = json.dumps(doc, ensure_ascii=False)
    else:
        # an example with several gold answers shows the first
        answer = ex.gold if isinstance(ex.gold, str) else ex.gold[0]
        gold = json.dumps({"answer": answer}, ensure_ascii=False)
    return "Input: %s\nOutput: %s" % (ex.input, gold)


def cot_scaffold(section: Section) -> str:
    """Append a step-by-step reasoning scaffold to the target section."""
    if COT_SCAFFOLD in section.body:
        return section.body
    return (section.body + "\n\n" + COT_SCAFFOLD) if section.body else COT_SCAFFOLD


def repeat_instructions(prompt: MetaPrompt, target: Section) -> tuple[str, str]:
    """Duplicate the target section's first sentence immediately before the
    output contract. Returns (section id to edit, its new body); the edited
    section is the one preceding the first non-editable section."""
    first_sentence = _first_sentence(target.body)
    ordered = prompt.ordered_sections()
    anchor = len(ordered)
    for i, s in enumerate(ordered):
        if not s.editable:
            anchor = i
            break
    host = ordered[anchor - 1] if anchor > 0 else ordered[-1]
    if not first_sentence or first_sentence in host.body.splitlines():
        return host.id, host.body
    new_body = (host.body + "\n\n" + first_sentence) if host.body else first_sentence
    return host.id, new_body


def _first_sentence(text: str) -> str:
    text = text.strip()
    for stop in (". ", "。", "! ", "? "):
        idx = text.find(stop)
        if idx != -1:
            return text[: idx + len(stop)].strip()
    return text.split("\n")[0].strip()


def self_consistency(bodies: Sequence[str]) -> str:
    """Pick the body with maximal mean pairwise token-overlap similarity;
    ties go to the shortest body, then lexicographic order."""
    if not bodies:
        raise MissingContext("self_consistency needs at least one body")
    if len(bodies) == 1:
        return bodies[0]

    def jaccard(a: str, b: str) -> float:
        ta, tb = set(a.split()), set(b.split())
        if not ta and not tb:
            return 1.0
        union = ta | tb
        return len(ta & tb) / len(union) if union else 0.0

    best = None
    for i, body in enumerate(bodies):
        sims = [jaccard(body, other) for j, other in enumerate(bodies) if j != i]
        mean_sim = math.fsum(sims) / len(sims)
        key = (-mean_sim, len(body), body)
        if best is None or key < best[0]:
            best = (key, body)
    return best[1]


def merge_deterministic(parents: Sequence[Candidate], objective: str = "f1") -> MetaPrompt:
    """Compose a prompt section by section: each section's body comes from
    the parent whose most recent edit of that section gained score, falling
    back to the highest-scoring parent."""
    if len(parents) < 2:
        raise MissingContext("merge requires at least 2 parents")
    id_sets = [frozenset(s.id for s in p.prompt.sections) for p in parents]
    if len(set(id_sets)) != 1:
        raise SectionSetMismatch("parents have different section id sets")

    def latest(c: Candidate) -> float:
        s = c.latest_score(objective)
        return s if s is not None else 0.0

    fallback = max(parents, key=latest)
    merged = fallback.prompt
    for section in fallback.prompt.ordered_sections():
        best_parent = None
        best_iteration = -1
        for parent in parents:
            it = _last_positive_edit(parent, section.id, objective)
            if it is not None and it > best_iteration:
                best_iteration = it
                best_parent = parent
        donor = best_parent if best_parent is not None else fallback
        merged = merged.with_body(section.id, donor.prompt.section_by_id(section.id).body)
    return merged


def _last_positive_edit(cand: Candidate, section_id: str, objective: str):
    """Iteration of the candidate's most recent edit of `section_id` whose
    score delta was positive, or None."""
    for iteration, sid, _op in reversed(cand.lineage):
        if sid != section_id:
            continue
        after = cand.score_at(iteration, objective)
        if after is None:
            continue
        before = cand.latest_score(objective, before=iteration)
        if before is not None and after > before:
            return iteration
    return None


# ---------------------------------------------------------------------------
# unified application

# context an operator cannot work with makes it a no-op
NO_CONTEXT = (MissingContext, IdenticalParents, SectionSetMismatch, EmptyDataset,
              KTooLarge, NonEditableSection)


def plan_operator(op: str, ctx: OperatorContext
                  ) -> Union[MetaPrompt, None, tuple[GenerationRequest, ...]]:
    """First step of an operator. A local operator comes back finished, as
    the edited prompt; a backend operator comes back as the requests it
    needs (one, or CONSISTENCY_SAMPLES for self_consistency), whose replies
    go to `finish_operator`. Missing context (any of NO_CONTEXT) makes the
    operator a no-op, None; an unknown operator id raises."""
    if op not in OPERATOR_IDS:
        raise UnknownOperator(op)
    section = ctx.target_section
    try:
        if op == "cot":
            return ctx.prompt.with_body(section.id, cot_scaffold(section))
        if op == "few_shot":
            block = few_shot_sample(
                tuple(ctx.dataset), ctx.few_shot_strategy, ctx.few_shot_k,
                ctx.rng_seed, report=ctx.metric_report,
            )
            return ctx.prompt.with_body(section.id, block)
        if op == "repeat_instructions":
            return ctx.prompt.with_body(*repeat_instructions(ctx.prompt, section))
        if op == "merge":
            return merge_deterministic(ctx.sibling_candidates, ctx.objective)
        if op == "self_consistency":
            return (build_request("refine", ctx),) * CONSISTENCY_SAMPLES
        return (build_request(op, ctx),)
    except NO_CONTEXT:
        return None


def finish_operator(op: str, ctx: OperatorContext, replies: Sequence[BatchItem]
                    ) -> Union[MetaPrompt, None, BackendError]:
    """Second step of a backend operator: turn the replies to the requests
    `plan_operator` returned, in the same order, into the edited prompt.
    Unparseable replies, and an order that is not a permutation of the
    prompt's sections, come back as a no-op, None. When no reply arrived,
    the first failure comes back, as a value."""
    texts = [r.text for r in replies if isinstance(r, GenerationResponse)]
    if not texts:
        return replies[0]
    section = ctx.target_section

    if op == "self_consistency":
        bodies = []
        for text in texts:
            outcome = parse_operator_response("refine", text, section.name)
            if outcome.parse_ok:
                bodies.append(outcome.new_body)
        if not bodies:
            return None
        return ctx.prompt.with_body(section.id, self_consistency(bodies))

    outcome = parse_operator_response(op, texts[0], section.name)
    if not outcome.parse_ok:
        return None
    if op == "define_sort":
        try:
            return reorder(ctx.prompt, outcome.new_order)
        except NotAPermutation:
            return None
    return ctx.prompt.with_body(section.id, outcome.new_body)


def apply_operators(jobs: Sequence[tuple[str, OperatorContext]],
                    backend: Optional[Backend]) -> list[Union[MetaPrompt, None, BackendError]]:
    """Run (operator id, context) jobs in one round trip: plan every job,
    send the requests of all of them as one batch in job order (none when no
    job needs a request), and finish each job with its own replies. Each job
    comes back as its edited prompt, or None for a no-op; a job whose
    replies all failed comes back as its first BackendError. Without a
    backend, a job that needs requests raises MissingContext."""
    plans = [plan_operator(op, ctx) for op, ctx in jobs]
    reqs = [req for plan in plans if isinstance(plan, tuple) for req in plan]
    if reqs and backend is None:
        raise MissingContext("operators that send requests need a backend")
    replies = iter(backend.generate_batch(reqs) if reqs else ())
    return [finish_operator(op, ctx, [next(replies) for _ in plan])
            if isinstance(plan, tuple) else plan
            for (op, ctx), plan in zip(jobs, plans)]


def apply_operator(op: str, ctx: OperatorContext,
                   backend: Optional[Backend] = None) -> Optional[MetaPrompt]:
    """Run one operator end to end with `apply_operators`; a failed reply is
    raised."""
    [result] = apply_operators([(op, ctx)], backend)
    if isinstance(result, BackendError):
        raise result
    return result
