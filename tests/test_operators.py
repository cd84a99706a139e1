import json

import pytest

from promptopt import operators
from promptopt.backend import GenerationRequest, GenerationResponse, MockBackend
from promptopt.errors import (
    AuthError,
    BackendTimeout,
    EmptyDataset,
    IdenticalParents,
    KTooLarge,
    MissingContext,
    NonEditableSection,
    SectionSetMismatch,
    UnknownOperator,
)
from promptopt.engine import RunConfig, train
from promptopt.evaluation import (
    BadCase,
    ExampleRecord,
    LabelMetrics,
    MetricReport,
    parse_prediction,
)
from promptopt.operators import (
    CONSISTENCY_SAMPLES,
    COT_SCAFFOLD,
    LOCAL_OPERATORS,
    OPERATOR_IDS,
    TEMPLATE_DIR,
    TEMPLATE_OPERATORS,
    OperatorContext,
    apply_operator,
    apply_operators,
    build_request,
    cot_scaffold,
    few_shot_sample,
    finish_operator,
    merge_deterministic,
    parse_operator_response,
    plan_operator,
    repeat_instructions,
    self_consistency,
)
from promptopt.prompt_model import Candidate, MetaPrompt, Section

from helpers import body_json, make_prompt


def section(name="horoscope", body="Focus on astrology, horoscope analysis, constellation knowledge, etc.",
            editable=True):
    return Section(id=name, name=name, body=body, editable=editable, position=0)


def ctx_for(sec, **kw):
    """A context for `sec`; without a `prompt`, the one-section prompt that
    holds it."""
    if "prompt" not in kw:
        kw["prompt"] = MetaPrompt(sections=(sec,))
    return OperatorContext(target_section=sec, **kw)


def body_edit(prompt, edited):
    """(section id, new body) of an edited prompt that differs from `prompt`
    in one section's body and nothing else."""
    [sid] = [s.id for s in prompt.sections if edited.section_by_id(s.id) != s]
    body = edited.section_by_id(sid).body
    assert edited == prompt.with_body(sid, body)
    return sid, body


def scored_candidate(bodies, score, iteration=1, objective="f1"):
    prompt = make_prompt(bodies)
    return Candidate(prompt=prompt).with_score(iteration, {objective: score})


class TestRegistry:
    def test_all_template_ops_load(self):
        for op in TEMPLATE_OPERATORS:
            assert operators.template(op).strip(), op

    @pytest.mark.parametrize("op", ["cot", "self_consistency", "sparkle"])
    def test_no_template(self, op):
        with pytest.raises(UnknownOperator, match="has no template"):
            operators.template(op)

    def test_catalog_size(self):
        assert len(OPERATOR_IDS) == 11


class TestCatalogReachability:
    """Every operator id and every template file is reached by `plan_operator`
    from a context a training run can build."""

    @pytest.fixture
    def planned(self, cls_examples, monkeypatch):
        # tag every template with its file name so each request shows which
        # template it was built from
        template = operators.template
        monkeypatch.setattr(operators, "template",
                            lambda op: "<%s.txt>\n%s" % (op, template(op)))
        prompt = make_prompt(["Classify the item.", "Be careful.", 'Return {"label": ""}'],
                             editable=[True, True, False])
        siblings = (
            Candidate(prompt=prompt).with_score(1, {"f1": 0.5}),
            Candidate(prompt=prompt.with_body("s0", "Label the item.")).with_score(1, {"f1": 0.6}),
        )
        ctx = OperatorContext(
            target_section=prompt.section_by_id("s0"), prompt=prompt,
            sibling_candidates=siblings, bad_cases=(BadCase("0", "A", "B"),),
            dataset=tuple(cls_examples),
        )
        return {op: plan_operator(op, ctx) for op in OPERATOR_IDS}

    def test_every_operator_is_local_or_sends_requests(self, planned):
        for op, plan in planned.items():
            assert plan is not None, op
            if not isinstance(plan, MetaPrompt):
                assert plan and all(isinstance(r, GenerationRequest) for r in plan), op

    def test_every_operator_is_local_self_consistency_or_has_a_template(self, planned):
        for op, plan in planned.items():
            local = isinstance(plan, MetaPrompt)
            assert local + (op == "self_consistency") + (op in TEMPLATE_OPERATORS) == 1, op

    def test_local_operators_are_the_ones_planned_without_a_request(self, planned):
        assert {op for op, plan in planned.items() if isinstance(plan, MetaPrompt)} == \
            set(LOCAL_OPERATORS)

    def test_every_template_file_is_an_operator_and_reached(self, planned):
        files = {p.name for p in TEMPLATE_DIR.iterdir()}
        assert files == {"%s.txt" % op for op in TEMPLATE_OPERATORS}
        reached = {
            req.messages[-1][1].split("\n", 1)[0][1:-1]
            for plan in planned.values() if isinstance(plan, tuple) for req in plan
        }
        assert reached == files


class TestBuildRequest:
    def test_refine_substitutes_both_placeholders(self):
        sec = section()
        req = build_request("refine", ctx_for(sec))
        text = req.messages[0][1]
        assert '"Refine" optimization method' in text
        assert sec.body in text
        assert '"horoscope":""' in text
        assert "{{Module" not in text

    def test_reflect_without_bad_cases(self):
        with pytest.raises(MissingContext):
            build_request("reflect", ctx_for(section()))

    def test_reflect_default_reason_from_case(self):
        bad = (BadCase("1", "gold", "pred"),)
        req = build_request("reflect", ctx_for(section(), bad_cases=bad))
        assert "'gold'" in req.messages[0][1]
        assert "'pred'" in req.messages[0][1]

    def test_non_editable_rejected_before_any_call(self):
        sec = section(editable=False)
        for op in ("rewrite", "refine", "short_instruction"):
            with pytest.raises(NonEditableSection):
                build_request(op, ctx_for(sec))

    def test_diff_evolution_needs_two_parents(self):
        with pytest.raises(MissingContext):
            build_request("diff_evolution", ctx_for(section("s0", "x")))

    def test_diff_evolution_identical_parents(self):
        a = scored_candidate(["same body", "{{Input}}"], 0.5)
        b = scored_candidate(["same body", "{{Input}}"], 0.6)
        with pytest.raises(IdenticalParents):
            build_request(
                "diff_evolution",
                ctx_for(section("s0", "same body"), sibling_candidates=(a, b)),
            )

    def test_diff_evolution_three_parents_ordered_by_score(self):
        cands = [
            scored_candidate(["variant %d" % i, "{{Input}}"], s)
            for i, s in enumerate([0.3, 0.9, 0.6])
        ]
        req = build_request(
            "diff_evolution",
            ctx_for(section("s0", "anything"), sibling_candidates=tuple(cands)),
        )
        text = req.messages[0][1]
        for i in range(3):
            assert "variant %d" % i in text
        # best first
        assert text.index("variant 1") < text.index("variant 2") < text.index("variant 0")

    def test_define_sort_lists_every_section(self):
        prompt = make_prompt(["alpha", "beta", "gamma"])
        req = build_request(
            "define_sort", ctx_for(prompt.section_by_id("s0"), prompt=prompt)
        )
        text = req.messages[0][1]
        for sid in ("s0", "s1", "s2"):
            assert "id: %s" % sid in text

    def test_request_carries_context_temperature(self):
        assert build_request("refine", ctx_for(section(), temperature=0.9)).temperature == 0.9

    def test_deterministic(self):
        a = build_request("refine", ctx_for(section()))
        b = build_request("refine", ctx_for(section()))
        assert a.content_hash() == b.content_hash()

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperator):
            build_request("sparkle", ctx_for(section()))


class TestParseResponse:
    def test_refine_golden_output(self):
        raw = '{"horoscope":"Dedicated to the fields of astrology, horoscope interpretation and constellation knowledge."}'
        out = parse_operator_response("refine", raw, "horoscope")
        assert out.parse_ok
        assert out.new_body.startswith("Dedicated to the fields of astrology")

    def test_tolerates_prose_and_fences(self):
        raw = 'Sure! Here you go:\n```json\n{"horoscope": "better text"}\n```\nHope that helps.'
        out = parse_operator_response("refine", raw, "horoscope")
        assert out.parse_ok and out.new_body == "better text"

    def test_reflect_reads_improved_key(self):
        raw = json.dumps({
            "Common problem extraction": "x",
            "Root cause analysis": "y",
            "Improved horoscope description": "sharper wording",
        })
        out = parse_operator_response("reflect", raw, "horoscope")
        assert out.parse_ok and out.new_body == "sharper wording"

    def test_single_string_value_fallback(self):
        out = parse_operator_response("refine", '{"wrong_key": "text"}', "horoscope")
        assert out.parse_ok and out.new_body == "text"

    def test_ambiguous_keys_fail(self):
        out = parse_operator_response("refine", '{"a": "x", "b": "y"}', "horoscope")
        assert not out.parse_ok

    def test_define_sort_bare_array(self):
        out = parse_operator_response("define_sort", '["s2", "s0", "s1"]', "horoscope")
        assert out.parse_ok and out.new_order == ("s2", "s0", "s1")

    def test_define_sort_order_object(self):
        out = parse_operator_response("define_sort", '{"order": ["s1", "s0"]}', "horoscope")
        assert out.parse_ok and out.new_order == ("s1", "s0")

    def test_garbage_never_raises(self):
        for raw in ("", "no json here", '{"horoscope": 5}', "[1, 2]"):
            out = parse_operator_response("refine", raw, "horoscope")
            assert not out.parse_ok

    def test_round_trip_with_request(self):
        sec = section()
        req = build_request("refine", ctx_for(sec))
        backend = MockBackend(
            [{"match": {"hash": req.content_hash()},
              "response": body_json(sec.name, "improved body")}]
        )
        res = backend.generate(req)
        out = parse_operator_response("refine", res.text, sec.name)
        assert out.parse_ok and out.new_body == "improved body"


class TestFewShot:
    def test_deterministic(self, cls_examples):
        a = few_shot_sample(cls_examples, "uniform", 3, seed=7)
        b = few_shot_sample(cls_examples, "uniform", 3, seed=7)
        assert a == b
        assert a != few_shot_sample(cls_examples, "uniform", 3, seed=8)

    def test_uniform_format(self, cls_examples):
        block = few_shot_sample(cls_examples, "uniform", 2, seed=0)
        pairs = block.split("\n\n")
        assert len(pairs) == 2
        for pair in pairs:
            assert pair.startswith("Input: ")
            assert '"label"' in pair

    def test_stratified_balances_labels(self, cls_examples):
        block = few_shot_sample(cls_examples, "stratified", 4, seed=3)
        a_count = block.count('"label": "A"')
        b_count = block.count('"label": "B"')
        assert a_count == b_count == 2

    def test_k_zero_empty(self, cls_examples):
        assert few_shot_sample(cls_examples, "uniform", 0, seed=0) == ""

    def test_k_too_large(self, cls_examples):
        with pytest.raises(KTooLarge):
            few_shot_sample(cls_examples, "uniform", 11, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            few_shot_sample([], "uniform", 1, seed=0)

    def test_hard_case_prefers_weak_labels(self, cls_examples):
        report = MetricReport(
            precision=0.5, recall=0.5, f1=0.5, support=10,
            per_label={
                "A": LabelMetrics(1.0, 1.0, 1.0, 5),
                "B": LabelMetrics(0.2, 0.2, 0.2, 5),
            },
        )
        block = few_shot_sample(cls_examples, "hard_case", 3, seed=1, report=report)
        assert block.count('"label": "B"') == 3

    def test_hard_case_requires_report(self, cls_examples):
        with pytest.raises(MissingContext):
            few_shot_sample(cls_examples, "hard_case", 2, seed=0)

    def test_ner_example_format(self):
        ex = ExampleRecord("0", "NER", "Anna went home", {"name": frozenset({(0, 4)})})
        block = few_shot_sample([ex], "uniform", 1, seed=0)
        assert '"Anna": [[0, 4]]' in block

    @pytest.mark.parametrize("ex, gold", [
        (ExampleRecord("0", "CLS", "a fine film", "POS"), "POS"),
        (ExampleRecord("1", "MRC", "Question: who?\nContext: Ann met Bo.", "Ann"), "Ann"),
        # an example with several gold answers shows the first
        (ExampleRecord("2", "MRC", "Question: who?\nContext: Ann met Bo.", ("Bo", "Ann")), "Bo"),
        (ExampleRecord("3", "NER", "Anna went home", {"PER": frozenset({(0, 4)}),
                                                      "LOC": frozenset()}), None),
        # a repeated mention keeps every span
        (ExampleRecord("4", "NER", "Anna met Anna in Rome", {
            "PER": frozenset({(0, 4), (9, 13)}), "LOC": frozenset({(17, 21)})}), None),
    ])
    def test_example_output_parses_back_to_the_gold(self, ex, gold):
        head = "Input: %s\nOutput: " % ex.input
        text = operators._format_example(ex)
        assert text.startswith(head)
        assert parse_prediction(ex.task, text[len(head):]) == (ex.gold if gold is None else gold)

    def test_repeated_mention_lists_its_spans_in_order(self):
        ex = ExampleRecord("0", "NER", "Anna met Anna", {"PER": frozenset({(9, 13), (0, 4)})})
        assert operators._format_example(ex).endswith(
            'Output: {"PER": {"Anna": [[0, 4], [9, 13]]}}')


class TestLocalOperators:
    def test_cot_appends_scaffold(self):
        sec = section(body="Classify the text.")
        assert cot_scaffold(sec) == "Classify the text.\n\n" + COT_SCAFFOLD

    def test_cot_idempotent(self):
        sec = section(body="Classify.\n\n" + COT_SCAFFOLD)
        assert cot_scaffold(sec) == sec.body

    def test_cot_empty_body(self):
        assert cot_scaffold(section(body="")) == COT_SCAFFOLD

    def test_repeat_instructions_targets_preoutput_section(self):
        prompt = make_prompt(
            ["Always answer in JSON. Be terse.", "middle", "{{Input}}"],
            editable=[True, True, False],
        )
        target = prompt.section_by_id("s0")
        host_id, new_body = repeat_instructions(prompt, target)
        assert host_id == "s1"
        assert new_body == "middle\n\nAlways answer in JSON."

    def test_repeat_instructions_noop_when_present(self):
        prompt = make_prompt(
            ["Rule one. More.", "Rule one.", "{{Input}}"],
            editable=[True, True, False],
        )
        host_id, new_body = repeat_instructions(prompt, prompt.section_by_id("s0"))
        assert new_body == prompt.section_by_id(host_id).body

    def test_self_consistency_majority(self):
        assert self_consistency(["abc", "abc", "xyz"]) == "abc"

    def test_self_consistency_tie_prefers_shortest(self):
        # both bodies share no tokens, so similarities tie at zero
        assert self_consistency(["bb cc", "a"]) == "a"

    def test_self_consistency_single(self):
        assert self_consistency(["only"]) == "only"

    def test_self_consistency_empty(self):
        with pytest.raises(MissingContext):
            self_consistency([])


class TestMergeDeterministic:
    def test_identical_parents_identity(self):
        a = scored_candidate(["body one", "{{Input}}"], 0.5)
        b = scored_candidate(["body one", "{{Input}}"], 0.4)
        merged = merge_deterministic([a, b])
        assert merged.fingerprint() == a.prompt.fingerprint()

    def test_section_set_mismatch(self):
        a = scored_candidate(["x", "{{Input}}"], 0.5)
        b = scored_candidate(["x", "y", "{{Input}}"], 0.5)
        with pytest.raises(SectionSetMismatch):
            merge_deterministic([a, b])

    def test_needs_two_parents(self):
        with pytest.raises(MissingContext):
            merge_deterministic([scored_candidate(["x", "{{Input}}"], 0.5)])

    def test_donor_is_parent_with_recent_positive_edit(self):
        # parent a scores higher overall; parent b improved s0 at iteration 2
        a = scored_candidate(["a body", "shared", "{{Input}}"], 0.7, iteration=2)
        b = (
            Candidate(prompt=make_prompt(["b body", "shared", "{{Input}}"]))
            .with_score(1, {"f1": 0.4})
            .with_edit(2, "s0", "refine")
            .with_score(2, {"f1": 0.6})
        )
        merged = merge_deterministic([a, b])
        assert merged.section_by_id("s0").body == "b body"
        assert merged.section_by_id("s1").body == "shared"

    def test_no_positive_edits_falls_back_to_best(self):
        a = scored_candidate(["a body", "{{Input}}"], 0.7)
        b = (
            Candidate(prompt=make_prompt(["b body", "{{Input}}"]))
            .with_score(1, {"f1": 0.6})
            .with_edit(2, "s0", "refine")
            .with_score(2, {"f1": 0.5})
        )
        merged = merge_deterministic([a, b])
        assert merged.section_by_id("s0").body == "a body"


class TestApplyOperator:
    def test_cot_is_local(self):
        sec = section(body="Classify.")
        ctx = ctx_for(sec)
        sid, body = body_edit(ctx.prompt, apply_operator("cot", ctx))
        assert sid == sec.id and COT_SCAFFOLD in body

    def test_few_shot_fills_target(self, cls_examples):
        prompt = make_prompt(["task", "", "{{Input}}"], editable=[True, True, False])
        ctx = ctx_for(prompt.section_by_id("s1"), prompt=prompt,
                      dataset=tuple(cls_examples), few_shot_k=2)
        sid, body = body_edit(prompt, apply_operator("few_shot", ctx))
        assert sid == "s1" and body.count("Input:") == 2

    def test_refine_round_trip(self):
        sec = section()
        backend = MockBackend([{"response": body_json(sec.name, "new text")}])
        ctx = ctx_for(sec)
        edit = apply_operator("refine", ctx, backend)
        assert body_edit(ctx.prompt, edit) == (sec.id, "new text")

    def test_unparseable_is_noop(self):
        backend = MockBackend([{"response": "no json at all"}])
        assert apply_operator("refine", ctx_for(section()), backend) is None

    def test_define_sort_valid_order(self):
        prompt = make_prompt(["a", "b", "{{Input}}"])
        backend = MockBackend([{"response": '{"order": ["s2", "s1", "s0"]}'}])
        ctx = ctx_for(prompt.section_by_id("s0"), prompt=prompt)
        edit = apply_operator("define_sort", ctx, backend)
        assert [s.id for s in edit.ordered_sections()] == ["s2", "s1", "s0"]
        assert [(s.id, s.body) for s in edit.sections] == [(s.id, s.body) for s in prompt.sections]

    def test_define_sort_invalid_order_is_noop(self):
        prompt = make_prompt(["a", "b", "{{Input}}"])
        backend = MockBackend([{"response": '{"order": ["s0", "s0", "s1"]}'}])
        ctx = ctx_for(prompt.section_by_id("s0"), prompt=prompt)
        assert apply_operator("define_sort", ctx, backend) is None

    def test_self_consistency_picks_majority(self):
        sec = section()
        backend = MockBackend([
            {"response": body_json(sec.name, "abc")},
            {"response": body_json(sec.name, "abc")},
            {"response": body_json(sec.name, "xyz")},
        ])
        ctx = ctx_for(sec)
        assert body_edit(ctx.prompt, apply_operator("self_consistency", ctx, backend)) == \
            (sec.id, "abc")

    def test_identical_parents_become_noop(self):
        a = scored_candidate(["same", "{{Input}}"], 0.5)
        b = scored_candidate(["same", "{{Input}}"], 0.6)
        backend = MockBackend([{"response": "unused"}])
        ctx = ctx_for(section("s0", "same"), sibling_candidates=(a, b))
        assert apply_operator("diff_evolution", ctx, backend) is None

    def test_llm_op_without_backend(self):
        with pytest.raises(MissingContext):
            apply_operator("refine", ctx_for(section()))


class TestPlanAndFinish:
    def test_local_operator_is_finished_by_plan(self):
        ctx = ctx_for(section(body="Classify."))
        _, body = body_edit(ctx.prompt, plan_operator("cot", ctx))
        assert COT_SCAFFOLD in body

    def test_self_consistency_plans_identical_samples(self):
        sec = section()
        reqs = plan_operator("self_consistency", ctx_for(sec))
        assert reqs == (build_request("refine", ctx_for(sec)),) * 3

    def test_self_consistency_skips_failed_samples(self):
        sec = section()
        replies = [GenerationResponse(body_json(sec.name, "abc")), BackendTimeout("slow"),
                   GenerationResponse(body_json(sec.name, "abc"))]
        ctx = ctx_for(sec)
        assert body_edit(ctx.prompt, finish_operator("self_consistency", ctx, replies)) == \
            (sec.id, "abc")

    def test_no_reply_arrived_returns_the_first_failure(self):
        for op, n in (("refine", 1), ("self_consistency", 3)):
            failures = [BackendTimeout("slow %d" % i) for i in range(n)]
            assert finish_operator(op, ctx_for(section()), failures) is failures[0]


class RecordingBackend(MockBackend):
    """A mock that records every batch and fails the requests whose text
    contains `failing` with `error`."""

    def __init__(self, script, failing=None, error=BackendTimeout):
        super().__init__(script)
        self.batches = []
        self.failing, self.error = failing, error

    def generate_batch(self, reqs):
        self.batches.append(list(reqs))
        return super().generate_batch(reqs)

    def generate(self, req):
        if self.failing and self.failing in req.messages[-1][1]:
            raise self.error("failed on %s" % self.failing)
        return super().generate(req)


class RevokedOnSecondSample(RecordingBackend):
    """A RecordingBackend whose second refine request, the second sample of
    a self_consistency job, fails with an AuthError."""

    def __init__(self, script):
        super().__init__(script)
        self.samples = 0

    def generate(self, req):
        if '"Refine" method' in req.messages[-1][1]:
            self.samples += 1
            if self.samples == 2:
                raise AuthError("HTTP 401")
        return super().generate(req)


class TestApplyOperators:
    def test_local_and_backend_jobs_share_one_batch_in_job_order(self, cls_examples):
        prompt = make_prompt(["Classify.", "", "{{Input}}"], editable=[True, True, False])
        s0, s1 = prompt.section_by_id("s0"), prompt.section_by_id("s1")
        jobs = [
            ("cot", ctx_for(s0, prompt=prompt)),
            ("refine", ctx_for(s1, prompt=prompt)),
            ("few_shot", ctx_for(s1, prompt=prompt, dataset=tuple(cls_examples), few_shot_k=2)),
            ("self_consistency", ctx_for(s0, prompt=prompt)),
            ("reflect", ctx_for(s0, prompt=prompt)),  # no bad cases: a no-op
        ]
        backend = RecordingBackend([
            {"match": {"contains": "Below is a s1 of"}, "response": body_json("s1", "s1 refined")},
            {"match": {"contains": "Below is a s0 of"}, "response": body_json("s0", "s0 refined")},
        ])
        results = apply_operators(jobs, backend)
        assert backend.batches == [list(plan_operator(*jobs[1]) + plan_operator(*jobs[3]))]
        assert len(backend.batches[0]) == 1 + 3
        edits = [body_edit(prompt, r) for r in results[:4]]
        assert results[4] is None
        assert edits[0][0] == "s0" and COT_SCAFFOLD in edits[0][1]
        assert edits[1] == ("s1", "s1 refined")
        assert edits[2][0] == "s1" and edits[2][1].count("Input:") == 2
        assert edits[3] == ("s0", "s0 refined")

    def test_timed_out_slot_comes_back_as_its_error(self):
        secs = [section(name, "%s body" % name) for name in ("alpha", "beta", "gamma")]
        backend = RecordingBackend(
            [{"match": {"contains": sec.body}, "response": body_json(sec.name, "new " + sec.name)}
             for sec in secs],
            failing="beta body",
        )
        results = apply_operators([("refine", ctx_for(sec)) for sec in secs], backend)
        assert len(backend.batches) == 1 and len(backend.batches[0]) == 3
        assert isinstance(results[1], BackendTimeout)
        assert [results[0].section_by_id("alpha").body, results[2].section_by_id("gamma").body] \
            == ["new alpha", "new gamma"]

    def test_auth_error_reply_is_raised(self):
        secs = [section(name, "%s body" % name) for name in ("alpha", "beta")]
        backend = RecordingBackend(
            [{"response": body_json("alpha", "new alpha")}], failing="beta body", error=AuthError,
        )
        with pytest.raises(AuthError):
            apply_operators([("refine", ctx_for(sec)) for sec in secs], backend)
        assert len(backend.batches) == 1

    def test_auth_error_on_a_self_consistency_sample_ends_the_run(self, tmp_path,
                                                                 cls_examples):
        sec = section()
        backend = RevokedOnSecondSample([{"response": body_json(sec.name, "abc")}])
        with pytest.raises(AuthError):
            apply_operators([("self_consistency", ctx_for(sec))], backend)
        assert [len(batch) for batch in backend.batches] == [CONSISTENCY_SAMPLES]
        assert backend.samples == 2  # the third sample is never sent

        template = make_prompt(["Label the text.", 'Return JSON: {"label": ""}'],
                               editable=[True, False])
        backend = RevokedOnSecondSample(
            [{"match": {"contains": ex.input},
              "response": json.dumps({"label": "B" if ex.id == "0" else ex.gold})}
             for ex in cls_examples] + [{"response": body_json("s0", "abc")}])
        cfg = RunConfig(iterations=2, beam_init=1, pairs_per_epoch=1, task="CLS",
                        operators=("self_consistency",), output_dir=str(tmp_path))
        with pytest.raises(AuthError):
            train(cfg, cls_examples, cls_examples, template, backend, run_dir=tmp_path / "run")
        # the initial pool's evaluation, then the operator batch that ends the run
        assert [len(batch) for batch in backend.batches] == [len(cls_examples),
                                                              CONSISTENCY_SAMPLES]
        assert backend.samples == 2
        assert not (tmp_path / "run" / "report.json").exists()

    def test_jobs_without_requests_send_no_batch(self):
        backend = RecordingBackend([])
        ctx = ctx_for(section())
        assert plan_operator("reflect", ctx) is None
        assert apply_operators([("reflect", ctx), ("cot", ctx)], backend)[0] is None
        assert apply_operators([], backend) == []
        assert backend.batches == []

    def test_apply_operator_raises_a_failed_reply(self):
        backend = RecordingBackend([], failing="horoscope")
        with pytest.raises(BackendTimeout):
            apply_operator("refine", ctx_for(section()), backend)


class TestNoOpRule:
    """`plan_operator` makes every operator whose context it cannot use a
    no-op, and sends nothing for it."""

    @pytest.mark.parametrize("op, build", [
        ("reflect", lambda ex: ctx_for(section())),  # MissingContext
        ("diff_evolution", lambda ex: ctx_for(section("s0", "same"), sibling_candidates=(
            scored_candidate(["same", "{{Input}}"], 0.5),
            scored_candidate(["same", "{{Input}}"], 0.6)))),  # IdenticalParents
        ("merge", lambda ex: ctx_for(section("s0", "x"), sibling_candidates=(
            scored_candidate(["x", "{{Input}}"], 0.5),
            scored_candidate(["x", "y", "{{Input}}"], 0.5)))),  # SectionSetMismatch
        ("few_shot", lambda ex: ctx_for(section())),  # EmptyDataset
        ("few_shot", lambda ex: ctx_for(section(), dataset=tuple(ex), few_shot_k=11)),  # KTooLarge
        ("refine", lambda ex: ctx_for(section(editable=False))),  # NonEditableSection
        ("self_consistency", lambda ex: ctx_for(section(editable=False))),
    ])
    def test_missing_context_is_a_noop(self, cls_examples, op, build):
        ctx = build(cls_examples)
        backend = RecordingBackend([])
        assert plan_operator(op, ctx) is None
        assert apply_operators([(op, ctx)], backend) == [None]
        assert backend.batches == []

    def test_unknown_operator_still_raises(self):
        with pytest.raises(UnknownOperator):
            plan_operator("sparkle", ctx_for(section()))
        with pytest.raises(UnknownOperator):
            apply_operators([("sparkle", ctx_for(section()))], RecordingBackend([]))
