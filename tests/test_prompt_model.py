import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptopt.errors import (
    DuplicatePlaceholder,
    MissingPlaceholder,
    NotAPermutation,
    TemplateParseError,
    UnknownTaskKind,
)
from promptopt.prompt_model import (
    Candidate,
    MetaPrompt,
    Section,
    load_template,
    prompt_from_dict,
    render,
    reorder,
    save_template,
    scratch_prompt,
)

from helpers import make_prompt


class TestRender:
    def test_direct_substitution(self):
        p = make_prompt(["Say OK.", "Q:"], placeholder_in=1)
        # second section body becomes "Q:\n{{Input}}"
        assert render(p, "hi") == "Say OK.\n\nQ:\nhi"

    def test_two_sections_simple(self):
        sections = (
            Section(id="a", name="a", body="Say OK.", position=0),
            Section(id="b", name="b", body="Q: {{Input}}", position=1),
        )
        p = MetaPrompt(sections=sections)
        assert render(p, "hi") == "Say OK.\n\nQ: hi"

    def test_empty_input_keeps_skeleton(self):
        sections = (
            Section(id="a", name="a", body="Say OK.", position=0),
            Section(id="b", name="b", body="Q: {{Input}}", position=1),
        )
        p = MetaPrompt(sections=sections)
        assert render(p, "") == "Say OK.\n\nQ: "

    def test_missing_placeholder(self):
        p = MetaPrompt(sections=(Section(id="a", name="a", body="no slot", position=0),))
        with pytest.raises(MissingPlaceholder):
            render(p, "x")

    def test_duplicate_placeholder(self):
        sections = (
            Section(id="a", name="a", body="{{Input}}", position=0),
            Section(id="b", name="b", body="{{Input}}", position=1),
        )
        p = MetaPrompt(sections=sections)
        with pytest.raises(DuplicatePlaceholder):
            render(p, "x")

    def test_classification_template_inlines_text(self, tmp_path):
        doc = {
            "sections": [
                {"name": "task_description",
                 "body": "You are a text classification model for news content."},
                {"name": "labels",
                 "body": "(1) Games\n(2) Sports"},
                {"name": "input", "body": "Input:\n{{Input}}"},
                {"name": "output", "body": 'Output:\n{"label":""}', "editable": False},
            ],
            "input_placeholder": "{{Input}}",
            "output_contract": '{"label":""}',
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        p = load_template(path)
        out = render(p, "some news text")
        assert "some news text" in out
        assert "(1) Games\n(2) Sports" in out  # label list untouched
        assert '{"label":""}' in out


class TestReorder:
    def test_identity(self):
        p = make_prompt(["a", "b", "c"])
        q = reorder(p, ["s0", "s1", "s2"])
        assert render(q, "x") == render(p, "x")

    def test_swap(self):
        p = make_prompt(["a", "b", "c"])  # placeholder in s2
        q = reorder(p, ["s1", "s0", "s2"])
        assert render(q, "x") == "b\n\na\n\nc\nx"
        assert len(q.sections) == 3

    def test_bodies_and_ids_unchanged(self):
        p = make_prompt(["a", "b", "c"])
        q = reorder(p, ["s2", "s0", "s1"])
        assert {s.id: s.body for s in q.sections} == {s.id: s.body for s in p.sections}

    def test_not_a_permutation(self):
        p = make_prompt(["a", "b"])
        with pytest.raises(NotAPermutation):
            reorder(p, ["s0", "s0"])
        with pytest.raises(NotAPermutation):
            reorder(p, ["s0"])

    def test_move_section_expected_string(self):
        sections = (
            Section(id="task", name="task", body="Do the task.", position=0),
            Section(id="few_shot", name="few_shot", body="Example: x", position=1),
            Section(id="mid", name="mid", body="Middle notes.", position=2),
            Section(id="out", name="out", body="Answer: {{Input}}", position=3),
        )
        p = MetaPrompt(sections=sections)
        q = reorder(p, ["task", "mid", "few_shot", "out"])
        expected = "Do the task.\n\nMiddle notes.\n\nExample: x\n\nAnswer: in"
        assert render(q, "in") == expected


class TestLoadTemplate:
    def test_scratch_cls_sections(self):
        p = scratch_prompt("CLS", ["Games", "Sports"])
        names = [s.name for s in p.ordered_sections()]
        assert names == [
            "task_description", "label:Games", "label:Sports", "few_shot",
            "output_format",
        ]
        assert len(p.sections) == 5

    def test_scratch_ner_has_label_sections_and_contract(self):
        p = scratch_prompt("NER", ["address", "book"])
        names = [s.name for s in p.ordered_sections()]
        assert "label:address" in names and "label:book" in names
        assert "[[start, end]]" in p.output_contract
        out_section = p.section_by_id("output_format")
        assert not out_section.editable

    def test_empty_template_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TemplateParseError):
            load_template(path)

    @pytest.mark.parametrize("field, value, message", [
        ("editable", "false", 'section 1 editable must be true or false, not "false"'),
        ("editable", 1, "section 1 editable must be true or false, not 1"),
        ("body", 5, "section 1 body must be a string, not 5"),
        ("name", 5, "section 1 name must be a string, not 5"),
        ("id", [1], "section 1 id must be a string, not [1]"),
        ("input_placeholder", 3, "input_placeholder must be a string, not 3"),
        ("output_contract", None, "output_contract must be a string, not null"),
    ])
    def test_mistyped_field(self, field, value, message):
        sections = [{"name": "task", "body": "Label it."},
                    {"name": "input", "body": "Input: {{Input}}"}]
        doc = {"sections": sections}
        if field in ("input_placeholder", "output_contract"):
            doc[field] = value
        else:
            sections[1][field] = value
        with pytest.raises(TemplateParseError) as e:
            prompt_from_dict(doc)
        assert str(e.value) == message

    def test_unknown_task_kind(self):
        with pytest.raises(UnknownTaskKind):
            scratch_prompt("POETRY")

    def test_round_trip(self, tmp_path, ner_prompt):
        path = tmp_path / "p.json"
        save_template(ner_prompt, path)
        again = load_template(path)
        assert again == ner_prompt


class TestCandidate:
    def test_score_range_enforced(self, ner_prompt):
        c = Candidate(prompt=ner_prompt)
        with pytest.raises(ValueError):
            c.with_score(0, {"f1": 1.5})

    def test_fingerprint_tracks_bodies(self, ner_prompt):
        c = Candidate(prompt=ner_prompt)
        d = Candidate(prompt=ner_prompt.with_body("label:book", "changed"))
        assert c.fingerprint != d.fingerprint
        assert c.fingerprint == Candidate(prompt=ner_prompt).fingerprint

    def test_latest_score(self, ner_prompt):
        c = Candidate(prompt=ner_prompt).with_score(0, {"f1": 0.5}).with_score(2, {"f1": 0.7})
        assert c.latest_score("f1") == 0.7
        assert c.score_at(0, "f1") == 0.5
        assert c.latest_score("precision") is None

    def test_latest_score_before_an_iteration(self, ner_prompt):
        c = (Candidate(prompt=ner_prompt).with_score(0, {"f1": 0.5})
             .with_score(1, {"precision": 0.9}).with_score(2, {"f1": 0.7}))
        assert c.latest_score("f1", before=3) == 0.7
        # iteration 1 holds no f1, so the score before 2 is iteration 0's
        assert c.latest_score("f1", before=2) == 0.5
        assert c.latest_score("precision", before=2) == 0.9
        assert c.latest_score("f1", before=0) is None


class TestInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_reorder_identity_property(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        p = make_prompt(["body %d %d" % (seed, i) for i in range(n)])
        ids = ["s%d" % i for i in range(n)]
        assert render(reorder(p, ids), "x") == render(p, "x")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_single_section_edit_isolation(self, seed):
        rng = random.Random(seed)
        p = make_prompt(["a", "b", "c", "d"])
        for _ in range(10):
            target = "s%d" % rng.randint(0, 3)
            before = {s.id: s.body for s in p.sections}
            p = p.with_body(target, "edit-%d" % rng.randint(0, 99))
            after = {s.id: s.body for s in p.sections}
            for sid in before:
                if sid != target:
                    assert after[sid] == before[sid]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_render_matches_skeleton_replace(self, data):
        # bodies may hold the placeholder zero, one or several times; each
        # prompt, edited or reordered, is rendered twice with each input
        body = st.text(alphabet="ab{}I\n", max_size=6) | st.sampled_from(
            ["{{Input}}", "x {{Input}} y", "{{Input}}{{Input}}", "{{Inp", "ut}}"])
        n = data.draw(st.integers(1, 4))
        ids = ["s%d" % i for i in range(n)]
        p = make_prompt([data.draw(body) for _ in range(n)],
                        placeholder_in=data.draw(st.integers(0, n - 1)))
        for _ in range(data.draw(st.integers(1, 4))):
            count = p.skeleton().count(p.input_placeholder)
            for text in (data.draw(st.text(max_size=8)), "{{Input}}") * 2:
                if count == 1:
                    assert render(p, text) == p.skeleton().replace(p.input_placeholder, text)
                else:
                    with pytest.raises(MissingPlaceholder if count == 0 else DuplicatePlaceholder):
                        render(p, text)
            if data.draw(st.booleans()):
                p = p.with_body(data.draw(st.sampled_from(ids)), data.draw(body))
            else:
                p = reorder(p, data.draw(st.permutations(ids)))

    def test_fingerprint_collision_free(self):
        seen = set()
        for i in range(10_000):
            p = make_prompt(["body-%d" % i, "second-%d" % (i * 7)])
            seen.add(p.fingerprint())
        assert len(seen) == 10_000
