"""Sectioned prompts: ordered, individually editable sections with deterministic rendering.

A prompt is a sequence of named sections. Optimizers edit one section body at a
time (or reorder sections) while everything else stays byte-identical, so score
changes can be attributed to single edits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DuplicatePlaceholder,
    MissingPlaceholder,
    NotAPermutation,
    TemplateParseError,
    UnknownTaskKind,
)
from .fileio import write_text_atomic

DEFAULT_PLACEHOLDER = "{{Input}}"

TASK_KINDS = ("NER", "CLS", "MRC")

SECTION_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class Section:
    """One editable unit of a prompt. `id` is stable across edits; only
    `body` and `position` ever change."""

    id: str
    name: str
    body: str
    editable: bool = True
    position: int = 0


@dataclass(frozen=True)
class MetaPrompt:
    sections: tuple[Section, ...]
    input_placeholder: str = DEFAULT_PLACEHOLDER
    output_contract: str = ""

    def __post_init__(self):
        ids = [s.id for s in self.sections]
        if len(set(ids)) != len(ids):
            raise TemplateParseError("duplicate section ids: %r" % (ids,))
        positions = sorted(s.position for s in self.sections)
        if positions != list(range(len(self.sections))):
            raise TemplateParseError("positions are not a permutation of 0..m")

    def ordered_sections(self) -> list[Section]:
        return sorted(self.sections, key=lambda s: s.position)

    def section_by_id(self, section_id: str) -> Section:
        for s in self.sections:
            if s.id == section_id:
                return s
        raise KeyError(section_id)

    def editable_sections(self) -> list[Section]:
        return [s for s in self.ordered_sections() if s.editable]

    def with_body(self, section_id: str, new_body: str) -> "MetaPrompt":
        """Return a copy with one section's body replaced."""
        found = False
        new_sections = []
        for s in self.sections:
            if s.id == section_id:
                new_sections.append(replace(s, body=new_body))
                found = True
            else:
                new_sections.append(s)
        if not found:
            raise KeyError(section_id)
        return replace(self, sections=tuple(new_sections))

    def skeleton(self) -> str:
        """Section bodies joined in position order, placeholder intact."""
        return SECTION_SEPARATOR.join(s.body for s in self.ordered_sections())

    @cached_property
    def _split_at_placeholder(self) -> tuple[int, str, str]:
        """(placeholder count, skeleton before it, skeleton after it), worked
        out once per prompt; the halves are empty unless the count is 1."""
        skeleton = self.skeleton()
        n = skeleton.count(self.input_placeholder)
        if n != 1:
            return n, "", ""
        at = skeleton.find(self.input_placeholder)
        return 1, skeleton[:at], skeleton[at + len(self.input_placeholder):]

    def fingerprint(self) -> str:
        canon = json.dumps(
            [s.body for s in self.ordered_sections()], ensure_ascii=False
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def render(prompt: MetaPrompt, input_text: str) -> str:
    """Concatenate section bodies in position order and substitute the input
    placeholder. Pure function of (prompt, input_text)."""
    n, head, tail = prompt._split_at_placeholder
    if n == 0:
        raise MissingPlaceholder(
            "placeholder %r not found in prompt" % prompt.input_placeholder
        )
    if n > 1:
        raise DuplicatePlaceholder(
            "placeholder %r occurs %d times" % (prompt.input_placeholder, n)
        )
    return head + input_text + tail


def reorder(prompt: MetaPrompt, new_order: Sequence[str]) -> MetaPrompt:
    """Reassign positions according to `new_order` (a permutation of section
    ids); bodies and ids are untouched."""
    ids = {s.id for s in prompt.sections}
    if sorted(new_order) != sorted(ids):
        raise NotAPermutation(
            "new_order %r is not a permutation of %r" % (list(new_order), sorted(ids))
        )
    pos = {sid: i for i, sid in enumerate(new_order)}
    new_sections = tuple(replace(s, position=pos[s.id]) for s in prompt.sections)
    return replace(prompt, sections=new_sections)


@dataclass(frozen=True)
class Candidate:
    """A prompt plus its score history and edit lineage. Immutable; edits
    produce new candidates."""

    prompt: MetaPrompt
    # iteration -> {metric name: value in [0, 1]}
    scores: tuple[tuple[int, tuple[tuple[str, float], ...]], ...] = ()
    # (iteration, section id, operator id)
    lineage: tuple[tuple[int, str, str], ...] = ()

    @property
    def fingerprint(self) -> str:
        return self.prompt.fingerprint()

    def with_score(self, iteration: int, metrics: Mapping[str, float]) -> "Candidate":
        for k, v in metrics.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError("score %s=%r outside [0,1]" % (k, v))
        entry = (iteration, tuple(sorted(metrics.items())))
        return replace(self, scores=self.scores + (entry,))

    def with_edit(self, iteration: int, section_id: str, operator_id: str) -> "Candidate":
        return replace(self, lineage=self.lineage + ((iteration, section_id, operator_id),))

    def latest_score(self, metric: str, before: Optional[int] = None):
        """The metric's most recent score, or None; with `before`, only
        scores of iterations before it count."""
        for it, metrics in reversed(self.scores):
            if before is not None and it >= before:
                continue
            for k, v in metrics:
                if k == metric:
                    return v
        return None

    def score_at(self, iteration: int, metric: str):
        for it, metrics in self.scores:
            if it == iteration:
                for k, v in metrics:
                    if k == metric:
                        return v
        return None


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower())


def scratch_prompt(task_kind: str, labels: Iterable[str] = ()) -> MetaPrompt:
    """Build an empty-bodied skeleton prompt for a task: a task description,
    one definition section per label, a few-shot slot, and the output
    contract."""
    if task_kind not in TASK_KINDS:
        raise UnknownTaskKind(task_kind)
    labels = list(labels)
    contracts = {
        "NER": '{"<label>": {"<mention>": [[start, end]]}}',
        "CLS": '{"label": ""}',
        "MRC": '{"answer": ""}',
    }
    contract = contracts[task_kind]
    sections = [Section(id="task_description", name="task_description", body="")]
    for lbl in labels:
        sections.append(
            Section(id="label:%s" % _slug(lbl), name="label:%s" % lbl, body="")
        )
    sections.append(Section(id="few_shot", name="few_shot", body=""))
    sections.append(
        Section(
            id="output_format",
            name="output_format",
            body="Input:\n{{Input}}\n\nReturn the result directly in JSON format:\n"
            + contract,
            editable=False,
        )
    )
    sections = [replace(s, position=i) for i, s in enumerate(sections)]
    return MetaPrompt(sections=tuple(sections), output_contract=contract)


def load_template(source) -> MetaPrompt:
    """Load a prompt from the JSON template file at `source`."""
    path = Path(source)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as e:
        raise TemplateParseError("cannot read template %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise TemplateParseError("template %s is not UTF-8 text: %s" % (path, e)) from None
    if not raw.strip():
        raise TemplateParseError("empty template file: %s" % path)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise TemplateParseError("template %s is not valid JSON: %s" % (path, e))
    return prompt_from_dict(doc)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise TemplateParseError("%s must be a string, not %s" % (where, json.dumps(value)))
    return value


def prompt_from_dict(doc: Mapping) -> MetaPrompt:
    """The prompt a template document describes. Section `name`, `id` and
    `body`, and the document's `input_placeholder` and `output_contract`,
    must be strings, and a section's `editable` a boolean; a missing or
    mistyped field raises TemplateParseError."""
    try:
        raw_sections = doc["sections"]
    except (KeyError, TypeError):
        raise TemplateParseError("template missing 'sections'")
    if not isinstance(raw_sections, list) or not raw_sections:
        raise TemplateParseError("'sections' must be a nonempty list")
    sections = []
    for i, sec in enumerate(raw_sections):
        try:
            name = sec["name"]
            body = sec["body"]
        except (KeyError, TypeError):
            raise TemplateParseError("section %d missing name/body" % i)
        name = _text(name, "section %d name" % i)
        editable = sec.get("editable", True)
        if not isinstance(editable, bool):
            raise TemplateParseError("section %d editable must be true or false, not %s"
                                     % (i, json.dumps(editable)))
        sections.append(
            Section(
                id=_text(sec.get("id", name), "section %d id" % i),
                name=name,
                body=_text(body, "section %d body" % i),
                editable=editable,
                position=i,
            )
        )
    return MetaPrompt(
        sections=tuple(sections),
        input_placeholder=_text(doc.get("input_placeholder", DEFAULT_PLACEHOLDER),
                                "input_placeholder"),
        output_contract=_text(doc.get("output_contract", ""), "output_contract"),
    )


def prompt_to_dict(prompt: MetaPrompt) -> dict:
    """Canonical serialization: keys in schema order, sections in position
    order."""
    return {
        "sections": [
            {"id": s.id, "name": s.name, "body": s.body, "editable": s.editable}
            for s in prompt.ordered_sections()
        ],
        "input_placeholder": prompt.input_placeholder,
        "output_contract": prompt.output_contract,
    }


def save_template(prompt: MetaPrompt, path) -> None:
    text = json.dumps(prompt_to_dict(prompt), ensure_ascii=False, indent=2) + "\n"
    write_text_atomic(path, text)


def candidate_to_dict(cand: Candidate) -> dict:
    return {
        "prompt": prompt_to_dict(cand.prompt),
        "scores": [
            {"iteration": it, "metrics": dict(metrics)} for it, metrics in cand.scores
        ],
        "lineage": [list(entry) for entry in cand.lineage],
        "fingerprint": cand.fingerprint,
    }

