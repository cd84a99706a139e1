"""Workload inputs: datasets, templates, run configs and oracles, all made
from the workload seed.

Why each workload exists (also in BENCHMARK.json):

* cls_rl_latency: wall time comes from sequential round trips and the volume
  of evaluation requests against a backend with 20 ms latency and 64 slots.
* ner_msgd_cpu: zero latency and long replies, so all the time is client CPU
  (rendering, JSON extraction, parsing, NER scoring).
* mrc_http: the only workload that runs the real HttpBackend, against a
  loopback stub; it also covers MRC scoring and experience alignment.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from promptopt.engine import RunConfig
from promptopt.evaluation import ExampleRecord
from promptopt.prompt_model import MetaPrompt, Section

from oracle import INPUT_CLOSE, INPUT_OPEN, OPERATOR_MALFORMED, PLANTED_PREFIX, Oracle


@dataclass
class Spec:
    """Everything a workload hands to `train`, plus the oracle that answers
    its requests."""

    task: str
    cfg: RunConfig
    train: list
    test: list
    template: MetaPrompt
    labels: tuple = ()
    decoys: dict = field(default_factory=dict)
    latency_s: float = 0.0
    slots: int = 64
    http: bool = False
    experience: Optional[dict] = None
    operator_malformed: float = OPERATOR_MALFORMED

    def oracle(self) -> Oracle:
        return Oracle(self.task, (self.train, self.test), self.cfg.seed,
                      labels=self.labels, decoys=self.decoys,
                      operator_malformed=self.operator_malformed)


def _template(task_text: str, planted: list[tuple[str, str]], contract: str) -> MetaPrompt:
    sections = [Section("task_description", "task_description", task_text)]
    for sid, body in planted:
        sections.append(Section(sid, sid, PLANTED_PREFIX + body))
    sections.append(Section("few_shot", "few_shot", ""))
    sections.append(Section(
        "output_format", "output_format",
        "Return the result directly in JSON format: %s\nInput:\n%s{{Input}}%s"
        % (contract, INPUT_OPEN, INPUT_CLOSE),
        editable=False,
    ))
    sections = [Section(s.id, s.name, s.body, s.editable, i) for i, s in enumerate(sections)]
    return MetaPrompt(sections=tuple(sections), output_contract=contract)


# Operators whose every call edits the prompt when the reply parses. The NER
# and MRC workloads use only these, with replies that always parse, so their
# counts and scores do not depend on which cells the optimizer draws and their
# timings vary only with the machine; cls_rl_latency covers the rest.
EDITING_OPERATORS = ("refine", "rewrite", "reflect", "short_instruction")

_FILLER = (
    "the of a and to in on for with that this from by at as was were is are "
    "be has had it its they their there which when after before during about "
    "over under between while report note update season market study trip "
    "plan week month year people group team city local new old early late"
).split()


# ---------------------------------------------------------------------------
# CLS

CLS_TOPICS = {
    "sports": "match goal league coach striker referee tournament stadium "
              "penalty champion".split(),
    "finance": "shares bank interest bond investor profit dividend inflation "
               "budget loan".split(),
    "science": "experiment molecule telescope genome physics laboratory "
               "hypothesis particle enzyme orbit".split(),
    "travel": "flight hotel passport beach itinerary luggage museum ferry "
              "resort tourist".split(),
}


def _cls_examples(rng: random.Random, n: int, tag: str) -> list[ExampleRecord]:
    labels = sorted(CLS_TOPICS)
    out = []
    for i in range(n):
        label = labels[rng.randrange(len(labels))]
        words = rng.choices(CLS_TOPICS[label], k=4) + rng.choices(_FILLER, k=16)
        rng.shuffle(words)
        text = "%s (ref %s-%d)" % (" ".join(words), tag, i)
        out.append(ExampleRecord("%s%04d" % (tag, i), "CLS", text, label))
    return out


def cls_rl_latency(seed: int) -> Spec:
    rng = random.Random("cls/%d" % seed)
    labels = tuple(sorted(CLS_TOPICS))
    template = _template(
        "Classify the text into exactly one of: %s." % ", ".join(labels),
        [("label:%s" % lbl, "%s: texts mainly about %s." % (lbl, ", ".join(CLS_TOPICS[lbl][:3])))
         for lbl in labels],
        '{"label": ""}',
    )
    cfg = RunConfig(iterations=5, beam_init=4, optimizer="msgd_rl", task="CLS", seed=seed,
                    model=model_name(seed))
    return Spec("CLS", cfg, _cls_examples(rng, 200, "tr"),
                _cls_examples(rng, 100, "te"), template, labels=labels,
                latency_s=0.020, slots=64)


# ---------------------------------------------------------------------------
# NER

NER_NAMES = {
    "PER": ["Ada Moreno", "Liu Wei", "Omar Haddad", "Greta Lind", "Tomas Novak",
            "Priya Nair", "Jonas Berg", "Sofia Reyes", "Kenji Sato", "Amara Obi"],
    "ORG": ["Northwind Labs", "Helix Bank", "Crestline Motors", "Bluefin Media",
            "Orion Health", "Vantage Steel", "Pioneer Foods", "Atlas Group"],
    "LOC": ["Lisbon", "Nairobi", "Osaka", "Valparaiso", "Tromso", "Quebec City",
            "Da Nang", "Cordoba", "Tbilisi", "Perth"],
}


def _ner_examples(rng: random.Random, n: int, tag: str) -> list[ExampleRecord]:
    labels = sorted(NER_NAMES)
    out = []
    for i in range(n):
        parts = ["Record %s-%d:" % (tag, i)]
        pos = len(parts[0])
        gold: dict[str, set] = {lbl: set() for lbl in labels}
        n_spans = rng.randint(10, 14)
        slots = sorted(rng.sample(range(1, 100), n_spans))
        word_i = 0
        for slot in slots + [104]:
            while word_i < slot:
                word = rng.choice(_FILLER)
                parts.append(word)
                pos += 1 + len(word)
                word_i += 1
            if slot == 104:
                break
            label = labels[rng.randrange(len(labels))]
            mention = rng.choice(NER_NAMES[label])
            parts.append(mention)
            gold[label].add((pos + 1, pos + 1 + len(mention)))
            pos += 1 + len(mention)
        text = " ".join(parts)
        out.append(ExampleRecord(
            "%s%05d" % (tag, i), "NER", text,
            {lbl: frozenset(spans) for lbl, spans in gold.items() if spans},
        ))
    return out


def ner_msgd_cpu(seed: int) -> Spec:
    rng = random.Random("ner/%d" % seed)
    labels = tuple(sorted(NER_NAMES))
    template = _template(
        "Extract every named entity of the types %s from the text, with "
        "half-open character offsets." % ", ".join(labels),
        [("label:PER", "PER: names of individual people."),
         ("label:ORG", "ORG: companies, banks and other organisations."),
         ("label:LOC", "LOC: cities and other places.")],
        '{"<label>": {"<mention>": [[start, end]]}}',
    )
    cfg = RunConfig(iterations=6, beam_init=1, optimizer="msgd", task="NER", seed=seed,
                    operators=EDITING_OPERATORS, model=model_name(seed))
    return Spec("NER", cfg, _ner_examples(rng, 1500, "tr"),
                _ner_examples(rng, 500, "te"), template, operator_malformed=0.0)


# ---------------------------------------------------------------------------
# MRC

_MRC_FACTS = (
    ("founded", "Who founded {org}?", "{org} was founded by {per} in {loc}."),
    ("based", "Where is {org} based?", "{org} is based in {loc} near the old harbour."),
    ("leads", "Who leads {org}?", "{org} is led by {per} since the merger."),
)


def _mrc_examples(rng: random.Random, n: int, tag: str):
    out, decoys = [], {}
    for i in range(n):
        kind, question, fact = _MRC_FACTS[rng.randrange(len(_MRC_FACTS))]
        org = rng.choice(NER_NAMES["ORG"])
        per = rng.choice(NER_NAMES["PER"])
        loc = rng.choice(NER_NAMES["LOC"])
        sentence = fact.format(org=org, per=per, loc=loc)
        filler = [" ".join(rng.choices(_FILLER, k=12)).capitalize() + "."
                  for _ in range(4)]
        filler.insert(rng.randrange(5), sentence)
        context = "Item %s-%d. %s" % (tag, i, " ".join(filler))
        answer = loc if kind == "based" else per
        ex_id = "%s%04d" % (tag, i)
        # a missed answer overlaps the gold one in part, so token F1 is partial
        decoys[ex_id] = "%s %s" % (answer.split()[0], rng.choice(_FILLER))
        text = "Question: %s\nContext: %s" % (question.format(org=org), context)
        out.append(ExampleRecord(ex_id, "MRC", text, answer))
    return out, decoys


def mrc_http(seed: int) -> Spec:
    rng = random.Random("mrc/%d" % seed)
    template = _template(
        "Answer the question with a short span copied from the context.",
        [("answer_span", "answer_span: the shortest phrase of the context that "
                         "answers the question, without extra words.")],
        '{"answer": ""}',
    )
    train, decoys = _mrc_examples(rng, 100, "tr")
    test, test_decoys = _mrc_examples(rng, 40, "te")
    decoys.update(test_decoys)
    # prior experience from an older template: some sections and operators
    # match this run's vocabulary by name, others do not
    sections = ["task_description", "answer_span", "context_hint"]
    operators = ["refine", "rewrite", "cot", "few_shot", "paraphrase", "reflect"]
    experience = {
        "version": 1, "task_kind": "MRC", "sections": sections, "operators": operators,
        "q": [[round(rng.uniform(0.01, 0.05), 6) for _ in operators] for _ in sections],
        "epochs_trained": 12, "created_at": "", "updated_at": "",
    }
    cfg = RunConfig(iterations=2, beam_init=1, optimizer="msgd_rl", task="MRC", seed=seed,
                    operators=EDITING_OPERATORS, model=model_name(seed))
    return Spec("MRC", cfg, train, test, template, decoys=decoys,
                slots=parallelism(), http=True, experience=experience,
                operator_malformed=0.0)


def parallelism() -> int:
    """max_parallel for the HTTP workload: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    "cls_rl_latency": cls_rl_latency,
    "ner_msgd_cpu": ner_msgd_cpu,
    "mrc_http": mrc_http,
}


# A round of cls_rl_latency trains on inputs from several seeds derived from
# the workload seed, and the benchmark reports means: which cells the
# optimizer draws, and so its requests and scores, vary from one seed to the
# next, and the mean of several runs varies less.
SUBRUNS = {"cls_rl_latency": 4, "ner_msgd_cpu": 1, "mrc_http": 1}


def sub_seeds(name: str, seed: int) -> list[int]:
    k = SUBRUNS[name]
    return [seed * k + j for j in range(k)]


def model_name(seed: int) -> str:
    """Model name of a training run; the HTTP stub routes requests by it."""
    return "oracle-%d" % seed


def build(name: str, seed: int, work_dir: Path) -> list[Spec]:
    """Make the workload's inputs for `seed`, one Spec per training run;
    files they need go in work_dir."""
    specs = [WORKLOADS[name](s) for s in sub_seeds(name, seed)]
    for spec in specs:
        if spec.experience is not None:
            path = work_dir / ("experience-%d.json" % spec.cfg.seed)
            path.write_text(json.dumps(spec.experience, indent=2) + "\n", encoding="utf-8")
            spec.cfg.experience_in = str(path)
    return specs
