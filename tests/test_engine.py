import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptopt.backend import GenerationResponse, MockBackend
from promptopt.engine import (
    RACE_MIN_PREFIX,
    RACE_PREFIX_DIVISOR,
    RunConfig,
    config_from_dict,
    config_to_dict,
    initialize_candidates,
    retain,
    _Trainer,
    run_id_for,
    train,
)
from promptopt.errors import AuthError, BackendTimeout, ConfigError
from promptopt.evaluation import (
    ExampleRecord,
    Tally,
    _judge,
    evaluate,
    parse_prediction,
    predict_many,
    report_predictions,
)
from promptopt.matrix import TransitionMatrix, load_matrix
from promptopt.msgd_rl import ExperienceStore, read_experience, save_experience
from promptopt.operators import COT_SCAFFOLD, OPERATOR_IDS
from promptopt.prompt_model import Candidate, candidate_from_dict

from helpers import body_json, make_prompt


def scored(body_tag, score, extra_lineage=0):
    cand = Candidate(prompt=make_prompt([body_tag, "{{Input}}"]))
    for i in range(extra_lineage):
        cand = cand.with_edit(i, "s0", "cot")
    return cand.with_score(1, {"f1": score})


def cls_dataset(n=20):
    return [
        ExampleRecord("%02d" % i, "CLS", "item %02d please" % i,
                      "A" if i % 2 == 0 else "B")
        for i in range(n)
    ]


def oracle_script(examples, wrong_ids=()):
    """Contains-matched entries answering each example correctly (or wrongly
    for ids in wrong_ids), plus a non-JSON fallback that turns every LLM
    operator call into a no-op."""
    script = []
    for ex in examples:
        label = ex.gold
        if ex.id in wrong_ids:
            label = "B" if label == "A" else "A"
        script.append({
            "match": {"contains": "item %s please" % ex.id},
            "response": json.dumps({"label": label}),
        })
    script.append({"response": "pass"})
    return script


def base_template():
    return make_prompt(
        ["Classify the item as A or B.", "", 'Return JSON: {"label": ""}'],
        editable=[True, True, False],
    )


def small_config(**kw):
    defaults = dict(iterations=3, beam_init=1, top_k=2, anneal_count=1,
                    pairs_per_epoch=2, seed=0, task="CLS",
                    operators=("refine", "cot", "few_shot"))
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRetain:
    def test_small_pool_identity(self):
        pool = [scored("a", 0.3), scored("b", 0.2), scored("c", 0.1)]
        out = retain(pool, top_k=3, anneal_count=2, temperature=1.0,
                     rng=np.random.default_rng(0))
        assert {c.fingerprint for c in out} == {c.fingerprint for c in pool}

    def test_empty_pool(self):
        assert retain([], 3, 2, 1.0, np.random.default_rng(0)) == []

    def test_best_always_survives(self):
        pool = [scored("c%d" % i, i / 10) for i in range(8)]
        best_fp = pool[-1].fingerprint
        for trial in range(100):
            out = retain(pool, top_k=1, anneal_count=2, temperature=0.5,
                         rng=np.random.default_rng(trial))
            assert out[0].fingerprint == best_fp

    def test_top_k_by_score(self):
        pool = [scored("c%d" % i, i / 10) for i in range(6)]
        out = retain(pool, top_k=3, anneal_count=0, temperature=1.0,
                     rng=np.random.default_rng(0))
        assert [c.latest_score("f1") for c in out] == [0.5, 0.4, 0.3]

    def test_anneal_adds_survivors(self):
        pool = [scored("c%d" % i, i / 10) for i in range(6)]
        out = retain(pool, top_k=2, anneal_count=2, temperature=1.0,
                     rng=np.random.default_rng(0))
        assert len(out) == 4

    def test_low_temperature_prefers_high_scores(self):
        # with a nearly greedy temperature the annealed survivor is almost
        # always the next-best candidate
        pool = [scored("c%d" % i, i / 10) for i in range(8)]
        hits = 0
        for trial in range(200):
            out = retain(pool, top_k=1, anneal_count=1, temperature=0.01,
                         rng=np.random.default_rng(trial))
            if out[1].latest_score("f1") == 0.6:
                hits += 1
        assert hits > 190

    @pytest.mark.parametrize("temperature", [1e-4, 0.0])
    def test_underflowing_weights_keep_the_next_best(self, temperature):
        # every weight outside the top k underflows to 0: the T -> 0 limit
        pool = [scored("c%d" % i, (i + 1) / 10) for i in range(9)]
        for anneal_count in (1, 2, 3):
            out = retain(pool, top_k=2, anneal_count=anneal_count, temperature=temperature,
                         rng=np.random.default_rng(0))
            assert [c.latest_score("f1") for c in out] == [0.9, 0.8, 0.7, 0.6, 0.5][
                :2 + anneal_count]

    def test_too_few_positive_weights_keep_the_leading_ones(self):
        # one survivor candidate ties the best, so one weight stays 1
        pool = [scored("a", 0.9), scored("b", 0.9), scored("c", 0.9), scored("d", 0.5),
                scored("e", 0.4)]
        out = retain(pool, top_k=2, anneal_count=2, temperature=1e-4,
                     rng=np.random.default_rng(0))
        assert [c.latest_score("f1") for c in out] == [0.9, 0.9, 0.9, 0.5]

    def test_lineage_breaks_score_ties(self):
        short = scored("a", 0.5)
        long = scored("b", 0.5, extra_lineage=3)
        out = retain([long, short], top_k=1, anneal_count=0, temperature=1.0,
                     rng=np.random.default_rng(0))
        assert out[0].fingerprint == short.fingerprint


class OneTimedOutReply(MockBackend):
    """Fails the second request of every batch with a timeout."""

    def generate_batch(self, reqs):
        out = super().generate_batch(reqs)
        out[1] = BackendTimeout("variant timed out")
        return out


class TestInitializeCandidates:
    def test_beam_one_is_template(self):
        template = base_template()
        pool = initialize_candidates(template, MockBackend([]), 1, seed=0)
        assert len(pool) == 1
        assert pool[0].fingerprint == template.fingerprint()

    def test_request_count(self):
        template = base_template()  # 2 editable sections

        class Counting(MockBackend):
            calls = 0

            def generate(self, req):
                type(self).calls += 1
                return super().generate(req)

        backend = Counting([{"response": "pass"}])
        initialize_candidates(template, backend, 6, seed=0)
        assert Counting.calls == 12

    def test_distinct_variants(self):
        template = base_template()
        fifo = [body_json("s0", "task v%d" % i) for i in range(3)]
        fifo += [body_json("s1", "shot v%d" % i) for i in range(3)]
        pool = initialize_candidates(template, MockBackend([{"response": r} for r in fifo]),
                                     3, seed=0)
        assert len(pool) == 3
        assert len({c.fingerprint for c in pool}) == 3
        assert pool[0].prompt.section_by_id("s0").body == "task v0"
        assert pool[2].prompt.section_by_id("s1").body == "shot v2"

    def test_unparseable_collapses_with_warning(self, caplog):
        import logging

        template = base_template()
        # a reply that failed keeps the template's body as an unparseable one does
        for backend_cls in (MockBackend, OneTimedOutReply):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                pool = initialize_candidates(template, backend_cls([{"response": "pass"}]),
                                             6, seed=0)
            assert len(pool) == 1
            assert pool[0].fingerprint == template.fingerprint()
            assert any("collapsed" in r.message for r in caplog.records)


class TestConfig:
    def test_run_id_shape_and_stability(self):
        cfg = small_config()
        rid = run_id_for(cfg)
        assert len(rid) == 12 and int(rid, 16) >= 0
        assert rid == run_id_for(small_config())
        assert rid != run_id_for(small_config(seed=1))

    def test_round_trip(self):
        cfg = small_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"iterations": 3, "sparkle": True})

    def test_validate_rejects_bad_values(self):
        for kw in (dict(top_k=0), dict(iterations=0), dict(optimizer="sgd"),
                   dict(eval_fraction=0.0), dict(objective="accuracy"),
                   dict(operators=("sparkle",)), dict(task="QA"),
                   dict(sarsa_gamma=1.5), dict(anneal_temperature_start=0),
                   dict(anneal_temperature_start=-1), dict(anneal_temperature_decay=0),
                   dict(anneal_temperature_decay=-2), dict(anneal_temperature_decay=1.5),
                   dict(seed=-1), dict(operator_temperature=-0.1),
                   dict(operator_temperature=float("nan")),
                   dict(operator_temperature=float("inf")),
                   dict(learning_rate_alpha=float("inf")),
                   dict(learning_rate_alpha=float("nan"))):
            with pytest.raises(ConfigError):
                small_config(**kw).validate()

    def test_default_operators_exclude_rag(self):
        ops = RunConfig().effective_operators()
        assert "rag" not in ops and "refine" in ops and len(ops) == 11

    def test_pairs_per_epoch_defaults(self):
        assert RunConfig(optimizer="msgd").effective_pairs_per_epoch() == 2
        assert RunConfig(optimizer="msgd_rl").effective_pairs_per_epoch() == 5


class TestTrain:
    def test_perfect_oracle_stops_immediately(self, tmp_path):
        data = cls_dataset()
        backend = MockBackend(oracle_script(data))
        cfg = small_config(iterations=5, output_dir=str(tmp_path))
        best, report, store = train(cfg, data, data, base_template(), backend)
        assert len(report.iterations) == 1
        assert report.iterations[0]["best"] == pytest.approx(1.0)
        assert report.final_test_objective == pytest.approx(1.0)
        assert best.latest_score("f1") == pytest.approx(1.0)

    def test_stall_convergence(self, tmp_path):
        data = cls_dataset()
        backend = MockBackend(oracle_script(data, wrong_ids={"00", "01", "02"}))
        cfg = small_config(iterations=10, output_dir=str(tmp_path))
        _, report, _ = train(cfg, data, [], base_template(), backend)
        # the oracle answers per input, so no edit can move the score and the
        # run stops after the stall window
        assert len(report.iterations) < 10
        assert all(r["best"] == pytest.approx(0.85) for r in report.iterations)

    def test_checkpoints_written(self, tmp_path):
        data = cls_dataset()
        cfg = small_config(iterations=2, output_dir=str(tmp_path))
        _, report, _ = train(cfg, data, [], base_template(),
                             MockBackend(oracle_script(data, wrong_ids={"00"})))
        run_dir = tmp_path / run_id_for(cfg)
        for i in range(1, len(report.iterations) + 1):
            it_dir = run_dir / ("iter_%03d" % i)
            assert (it_dir / "candidates.json").exists()
            assert (it_dir / "matrix.json").exists()
            assert (it_dir / "report.json").exists()
        assert (run_dir / "report.json").exists()
        assert (run_dir / "report.csv").read_text().startswith("iteration,best,mean")
        # candidates round-trip through their serialized form
        doc = json.loads((run_dir / "iter_001" / "candidates.json").read_text())
        cand = candidate_from_dict(doc[0])
        assert cand.fingerprint == doc[0]["fingerprint"]

    def test_wall_clock_not_serialized(self, tmp_path):
        data = cls_dataset(6)
        cfg = small_config(iterations=1, output_dir=str(tmp_path))
        _, report, _ = train(cfg, data, [], base_template(),
                             MockBackend(oracle_script(data)))
        doc = json.loads((tmp_path / run_id_for(cfg) / "report.json").read_text())
        assert "wall_clock_s" not in doc
        assert report.wall_clock_s >= 0.0

    def test_byte_identical_reruns(self, tmp_path):
        data = cls_dataset()
        outputs = []
        for run in ("one", "two"):
            cfg = small_config(iterations=3, output_dir=str(tmp_path / run))
            backend = MockBackend(oracle_script(data, wrong_ids={"00", "03"}))
            train(cfg, data, data, base_template(), backend)
            run_dir = tmp_path / run / run_id_for(cfg)
            outputs.append({
                p.relative_to(run_dir): p.read_bytes()
                for p in sorted(run_dir.rglob("*")) if p.is_file()
            })
        assert outputs[0] == outputs[1]

    def test_msgd_rl_path(self, tmp_path):
        data = cls_dataset()
        cfg = small_config(iterations=2, optimizer="msgd_rl", pairs_per_epoch=3,
                           output_dir=str(tmp_path))
        _, report, store = train(cfg, data, [], base_template(),
                                 MockBackend(oracle_script(data, wrong_ids={"00"})))
        assert report.iterations
        assert all(len(r["selections"]) == 3 for r in report.iterations)
        assert store.epochs_trained == len(report.iterations)

    def test_experience_out(self, tmp_path):
        data = cls_dataset(8)
        out_file = tmp_path / "exp.json"
        cfg = small_config(iterations=1, output_dir=str(tmp_path / "runs"),
                           experience_out=str(out_file))
        train(cfg, data, [], base_template(), MockBackend(oracle_script(data)))
        store = read_experience(out_file)
        assert store.task_kind == "CLS"
        assert store.matrix.sections == ("s0", "s1", "s2")
        assert store.matrix.operators == ("refine", "cot", "few_shot")

    def test_experience_in_biases_selection(self, tmp_path):
        data = cls_dataset(8)
        template = base_template()
        prior = ExperienceStore.new(
            load_matrix_like(("s0", "s1", "s2"), ("refine", "cot", "few_shot"),
                             dominant=("s0", "cot", 1000.0)),
            "CLS",
        )
        exp_path = tmp_path / "prior.json"
        save_experience(prior, exp_path)
        cfg = small_config(iterations=1, output_dir=str(tmp_path / "runs"),
                           experience_in=str(exp_path), pairs_per_epoch=1)
        _, report, _ = train(cfg, data, [], template,
                             MockBackend(oracle_script(data, wrong_ids={"00"})))
        sel = report.iterations[0]["selections"][0]
        assert (sel["section"], sel["operator"]) == ("s0", "cot")

    def test_experience_with_rag_column_loads_into_default_run(self, tmp_path):
        # the operator vocabulary experience files were written with while
        # the catalog still had "rag"
        old_ops = ("rewrite", "refine", "reflect", "cot", "few_shot", "diff_evolution",
                   "define_sort", "merge", "short_instruction", "self_consistency",
                   "repeat_instructions", "rag")
        sections = ("s0", "s1", "s2")
        q = np.arange(1, 1 + len(sections) * len(old_ops), dtype=float).reshape(3, -1)
        exp_path = tmp_path / "prior.json"
        save_experience(ExperienceStore.new(TransitionMatrix(sections, old_ops, q), "CLS"),
                        exp_path)
        cfg = RunConfig(task="CLS", experience_in=str(exp_path), output_dir=str(tmp_path))
        trainer = _Trainer(cfg, cls_dataset(4), [], base_template(), MockBackend([]))
        m = trainer.matrix
        assert m.sections == sections and m.operators == OPERATOR_IDS
        for j, op in enumerate(OPERATOR_IDS):
            assert np.array_equal(m.q[:, j], q[:, old_ops.index(op)])

    def test_matrix_checkpoint_matches_store(self, tmp_path):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, output_dir=str(tmp_path))
        _, report, store = train(cfg, data, [], base_template(),
                                 MockBackend(oracle_script(data, wrong_ids={"00"})))
        last = tmp_path / run_id_for(cfg) / (
            "iter_%03d" % len(report.iterations)) / "matrix.json"
        m = load_matrix(last)
        assert np.array_equal(m.q, store.matrix.q)


# the refine template names its target section here; evaluation prompts never
# contain it
OPERATOR_TARGET = re.compile(r"Below is a (\S+) of a Prompt")


class Recording(MockBackend):
    """Records every backend call. Operator requests get a numbered body;
    evaluation requests get the example's label, wrong for `wrong_ids`."""

    def __init__(self, examples, wrong_ids=()):
        super().__init__([])
        self.examples = examples
        self.wrong_ids = set(wrong_ids)
        self.calls = []  # ("batch" | "single", [(request text, reply text)])
        self.variants = 0

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            self.variants += 1
            out = json.dumps({"body": "variant %03d" % self.variants})
        else:
            ex = next(ex for ex in self.examples if ex.input in text)
            label = ex.gold if ex.id not in self.wrong_ids else "B" if ex.gold == "A" else "A"
            out = json.dumps({"label": label})
        res = GenerationResponse(text=out)
        self.usage.add(res)
        return res

    def generate(self, req):
        res = self._reply(req.messages[-1][1])
        self.calls.append(("single", [(req.messages[-1][1], res.text)]))
        return res

    def generate_batch(self, reqs):
        out = [self._reply(r.messages[-1][1]) for r in reqs]
        self.calls.append(("batch", [(r.messages[-1][1], o.text)
                                     for r, o in zip(reqs, out)]))
        return out


REQUESTS_PER_PAIR = {"refine": 1, "self_consistency": 3, "cot": 0}


class TestRoundTrips:
    def _check_eval_batch(self, call, examples):
        kind, items = call
        assert kind == "batch" and items and len(items) % len(examples) == 0
        blocks = [items[i:i + len(examples)] for i in range(0, len(items), len(examples))]
        for block in blocks:  # (candidate, example) order
            for ex, (text, _) in zip(examples, block):
                assert ex.input in text
        return [block[0][0] for block in blocks]

    @pytest.mark.parametrize("optimizer", ["msgd", "msgd_rl"])
    def test_two_round_trips_per_iteration(self, tmp_path, optimizer):
        data = cls_dataset(6)
        template = make_prompt(
            ["Classify the item as A or B.", "Answer with one label.",
             'Return JSON: {"label": ""}'],
            editable=[True, True, False],
        )
        cfg = small_config(iterations=3, beam_init=2, optimizer=optimizer, pairs_per_epoch=3,
                           operators=("refine", "self_consistency", "cot"),
                           output_dir=str(tmp_path))
        backend = Recording(data, wrong_ids={"00"})
        _, report, _ = train(cfg, data, data, template, backend)
        calls = backend.calls
        assert all(kind == "batch" for kind, _ in calls)

        # initialization: the refine batch, then one evaluation batch
        assert [OPERATOR_TARGET.search(t).group(1) for t, _ in calls[0][1]] == \
            ["s0", "s0", "s1", "s1"]
        assert len(self._check_eval_batch(calls[1], data)) == 2
        at = 2
        for row in report.iterations:
            pairs = [(s["section"], s["operator"]) for s in row["selections"]]
            assert len(pairs) == 3 and not row["failed"]
            # every operator request of the iteration, in pair order
            want = [sec for sec, op in pairs for _ in range(REQUESTS_PER_PAIR[op])]
            replies = iter(calls[at][1])
            assert [OPERATOR_TARGET.search(t).group(1) for t, _ in calls[at][1]] == want
            at += 1
            # then every edited candidate in one batch, in pair order
            prompts = self._check_eval_batch(calls[at], data)
            at += 1
            assert len(prompts) == len(pairs)
            for (sec, op), prompt in zip(pairs, prompts):
                own = [next(replies)[1] for _ in range(REQUESTS_PER_PAIR[op])]
                if op == "cot":
                    assert COT_SCAFFOLD in prompt
                else:
                    assert any(json.loads(r)["body"] in prompt for r in own)
        # the test set, in one batch
        assert len(self._check_eval_batch(calls[at], data)) == 1
        assert at + 1 == len(calls)


class FailingOperators(MockBackend):
    """Fails every operator request with `error`; evaluation requests are
    answered from the script."""

    def __init__(self, script, error=BackendTimeout):
        super().__init__(script)
        self.error = error

    def generate(self, req):
        if OPERATOR_TARGET.search(req.messages[-1][1]):
            raise self.error("operator backend down")
        return super().generate(req)


class FailingEvaluations(MockBackend):
    """Fails every evaluation request with `error`; operator requests are
    answered from the script."""

    def __init__(self, script, error=AuthError):
        super().__init__(script)
        self.error = error

    def generate(self, req):
        if not OPERATOR_TARGET.search(req.messages[-1][1]):
            raise self.error("key revoked")
        return super().generate(req)


class TestOperatorFailure:
    @pytest.mark.parametrize("optimizer", ["msgd", "msgd_rl"])
    def test_failed_pair_is_skipped(self, tmp_path, optimizer):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, optimizer=optimizer, pairs_per_epoch=4,
                           operators=("refine", "cot"), output_dir=str(tmp_path))
        backend = FailingOperators(oracle_script(data, wrong_ids={"00"}))
        _, report, store = train(cfg, data, data, base_template(), backend)
        assert len(report.iterations) == 2
        for row in report.iterations:
            assert sorted((f["section"], f["operator"], f["error"]) for f in row["failed"]) == [
                ("s0", "refine", "BackendTimeout"), ("s1", "refine", "BackendTimeout")]
            assert [s["operator"] for s in row["selections"]] == ["cot", "cot"]
        q = store.matrix.q
        assert np.all(q[:, store.matrix.operators.index("refine")] == 1.0 / 6)
        if optimizer == "msgd_rl":
            assert np.all(q[:2, store.matrix.operators.index("cot")] != 1.0 / 6)

    def test_iteration_with_every_pair_failed(self, tmp_path):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, optimizer="msgd_rl", pairs_per_epoch=2,
                           operators=("refine",), output_dir=str(tmp_path))
        backend = FailingOperators(oracle_script(data, wrong_ids={"00"}))
        _, report, store = train(cfg, data, data, base_template(), backend)
        assert [len(row["failed"]) for row in report.iterations] == [2, 2]
        assert all(row["selections"] == [] for row in report.iterations)
        assert np.all(store.matrix.q == 1.0 / 3)

    def test_auth_error_ends_run(self, tmp_path):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, operators=("refine",), output_dir=str(tmp_path))
        backend = FailingOperators(oracle_script(data, wrong_ids={"00"}), error=AuthError)
        with pytest.raises(AuthError):
            train(cfg, data, data, base_template(), backend)

    @pytest.mark.parametrize("optimizer", ["msgd", "msgd_rl"])
    def test_auth_error_in_evaluation_ends_run(self, tmp_path, optimizer):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, optimizer=optimizer, output_dir=str(tmp_path))
        backend = FailingEvaluations(oracle_script(data, wrong_ids={"00"}))
        with pytest.raises(AuthError):
            train(cfg, data, data, base_template(), backend)


class EchoEdits(MockBackend):
    """Answers each operator request with an edit that leaves `prompt` as it
    was: refine repeats the section's body, define_sort gives the current
    order. Evaluation requests are answered from the script and counted."""

    def __init__(self, script, prompt):
        super().__init__(script)
        self.prompt = prompt
        self.operator_requests = self.evaluations = 0

    def generate(self, req):
        text = req.messages[-1][1]
        target = OPERATOR_TARGET.search(text)
        if target:
            reply = body_json(target.group(1), self.prompt.section_by_id(target.group(1)).body)
        elif "Reorder the sections" in text:
            reply = json.dumps({"order": [s.id for s in self.prompt.ordered_sections()]})
        else:
            self.evaluations += 1
            return super().generate(req)
        self.operator_requests += 1
        res = GenerationResponse(text=reply)
        self.usage.add(res)
        return res


class TestUnchangedEdit:
    """An edit that leaves the prompt as it was is a no-op, whether a backend
    operator or a local one made it: no score, no pool entry, no gradient."""

    @pytest.mark.parametrize("op, operator_requests", [
        ("refine", 2),  # the reply repeats the section's body
        ("define_sort", 2),  # the reply gives the current order
        ("repeat_instructions", 0),  # the host section already holds the sentence
    ])
    def test_unchanged_edit_is_a_noop(self, tmp_path, op, operator_requests):
        data = cls_dataset(8)
        template = make_prompt(["Rule one. More.", "Rule one.", 'Return JSON: {"label": ""}'],
                               editable=[True, True, False])
        cfg = small_config(iterations=2, pairs_per_epoch=1, operators=(op,),
                           output_dir=str(tmp_path))
        backend = EchoEdits(oracle_script(data, wrong_ids={"00"}), template)
        _, report, _ = train(cfg, data, data, template, backend, run_dir=tmp_path / "run")
        assert backend.operator_requests == operator_requests
        # the initial pool and the test set, and nothing for the edits
        assert backend.evaluations == 2 * len(data)
        assert report.init_eval_requests == len(data)
        for row in report.iterations:
            [sel] = row["selections"]
            assert sel["operator"] == op
            assert (sel["gradient"], sel["scored_on"], sel["raced_out"]) == (0.0, 0, False)
            assert row["eval_requests"] == 0 and row["pool_size"] == 1
        pool = json.loads((tmp_path / "run" / "iter_002" / "candidates.json").read_text())
        assert [c["lineage"] for c in pool] == [[]]


def graded_label(skeleton, ex):
    """The label Graded answers for an example under a prompt skeleton (the
    rendered prompt with the input put back as {{Input}})."""
    wrong = int(hashlib.sha256((skeleton + ex.id).encode()).hexdigest(), 16) % 3 == 0
    return "B" if (ex.gold == "A") == wrong else "A"


class Graded(MockBackend):
    """Records every batch. Operator requests get a numbered body. Whether an
    evaluation reply is right depends on a hash of the prompt and the example
    id, so edits differ in score."""

    def __init__(self, examples):
        super().__init__([])
        self.examples = examples
        self.calls = []  # [(request text, reply text)] per batch
        self.variants = 0

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            self.variants += 1
            return json.dumps({"body": "variant %03d" % self.variants})
        ex = next(ex for ex in self.examples if ex.input in text)
        return json.dumps({"label": graded_label(text.replace(ex.input, "{{Input}}"), ex)})

    def generate_batch(self, reqs):
        replies = [self._reply(r.messages[-1][1]) for r in reqs]
        self.calls.append([(r.messages[-1][1], t) for r, t in zip(reqs, replies)])
        out = [GenerationResponse(text=text) for text in replies]
        for res in out:
            self.usage.add(res)
        return out


def eval_blocks(call, examples):
    """The (prompt skeleton, predictions) of each candidate of an evaluation
    batch, checking (candidate, example) order."""
    assert call and len(call) % len(examples) == 0
    out = []
    for at in range(0, len(call), len(examples)):
        block = call[at:at + len(examples)]
        for ex, (text, _) in zip(examples, block):
            assert ex.input in text
        skeleton = block[0][0].replace(examples[0].input, "{{Input}}")
        assert all(text.replace(ex.input, "{{Input}}") == skeleton
                   for ex, (text, _) in zip(examples, block))
        out.append((skeleton, [parse_prediction("CLS", r) for _, r in block]))
    return out


def f1_of(examples, predictions):
    return report_predictions(examples, predictions, bad_case_cap=0)[0].f1


class SameBody(Graded):
    """Every operator request gets the same body, so refine and rewrite of
    one section make one prompt."""

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            return json.dumps({"body": "one body"})
        return super()._reply(text)


def halving_requests(k, n):
    """The evaluation requests successive halving sends for k distinct
    prompts on n training examples."""
    q, h = n // RACE_PREFIX_DIVISOR, n // 2
    if k < 2 or q < RACE_MIN_PREFIX:
        return k * n
    k1 = -(-k // 2)
    if k1 == 1:
        return k * q + (n - q)
    return k * q + k1 * (h - q) + -(-k1 // 2) * (n - h)


class TestRacing:
    def _trainer(self, tmp_path, data, backend, pairs=4, operators=("refine", "rewrite")):
        cfg = small_config(iterations=1, top_k=3, anneal_count=0, pairs_per_epoch=pairs,
                           operators=operators, output_dir=str(tmp_path))
        trainer = _Trainer(cfg, data, [], base_template(), backend)
        pool = [Candidate(prompt=base_template())]
        trainer._score(pool, 0)
        return trainer, [trainer._scored(cand, 0) for cand in pool]

    # live prompts at each rung, then the prompts finished on the rest
    RUNG_SIZES = {2: [2, 1], 3: [3, 2, 1], 4: [4, 2, 1], 5: [5, 3, 2]}

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("pairs", [2, 3, 4, 5])
    def test_three_rungs(self, tmp_path, pairs, n):
        data = cls_dataset(n)
        rungs = (n // 4, n // 2)
        backend = Graded(data)
        trainer, pool = self._trainer(tmp_path, data, backend, pairs,
                                      operators=("refine", "rewrite", "short_instruction"))
        assert trainer.rungs == rungs and RACE_MIN_PREFIX == 25
        [(base_skeleton, base_preds)] = eval_blocks(backend.calls[0], data)
        base_rungs = tuple(f1_of(data[:c], base_preds[:c]) for c in rungs)
        # a prompt scored alone gets its rung objectives from its full pass
        assert trainer.scored[pool[0].fingerprint][2] == base_rungs
        del backend.calls[:]
        new_pool = trainer._iteration(1, pool)
        row = trainer.report.iterations[0]

        operator_call, *eval_calls = backend.calls
        assert len(operator_call) == pairs
        assert all(OPERATOR_TARGET.search(text) for text, _ in operator_call)
        sizes = self.RUNG_SIZES[pairs]
        bounds = [0, *rungs[:len(sizes) - 1], n]
        assert len(eval_calls) == len(sizes)
        batches = [eval_blocks(call, data[a:b])
                   for call, a, b in zip(eval_calls, bounds, bounds[1:])]
        assert [len(b) for b in batches] == sizes
        assert row["eval_requests"] == sum(
            k * (b - a) for k, a, b in zip(sizes, bounds, bounds[1:]))
        assert row["eval_requests"] == halving_requests(pairs, n)

        # replay the race from each edit's predictions on the whole set
        skeletons = [s for s, _ in batches[0]]
        assert len(set(skeletons)) == pairs and base_skeleton not in skeletons
        full = [[graded_label(s, ex) for ex in data] for s in skeletons]
        live, out = list(range(pairs)), {}
        for r, (batch, cut) in enumerate(zip(batches[:-1], rungs)):
            assert [s for s, _ in batch] == [skeletons[i] for i in live]
            objs = {i: f1_of(data[:cut], full[i][:cut]) for i in live}
            ranked = sorted(live, key=lambda i: (-objs[i], i))
            live = sorted(ranked[:sizes[r + 1]])
            out.update((i, (r, objs[i])) for i in ranked[sizes[r + 1]:])
        assert [s for s, _ in batches[-1]] == [skeletons[i] for i in live]

        in_pool = {c.prompt.skeleton(): c for c in new_pool}
        assert len(trainer.scored) == 1 + len(live)
        for i, sel in enumerate(row["selections"]):
            assert sel["raced_out"] == (i in out)
            if i in out:
                r, objective = out[i]
                assert skeletons[i] not in in_pool
                assert sel["scored_on"] == rungs[r]
                assert sel["gradient"] == objective - base_rungs[r]
                continue
            cand = in_pool[skeletons[i]]
            report, bad = evaluate(cand, data, Graded(data), seed=1)
            assert trainer.scored[cand.fingerprint] == (
                report, bad, tuple(f1_of(data[:c], full[i][:c]) for c in rungs))
            assert cand.latest_score("f1") == report.f1
            assert sel["scored_on"] == n
            assert sel["gradient"] == report.f1 - pool[0].latest_score("f1")

    def test_initial_pool_races(self, tmp_path, monkeypatch):
        data = cls_dataset(100)
        backend = Graded(data)
        pools = []
        iterate = _Trainer._iteration

        def spy(self, iteration, pool):
            pools.append(pool)
            return iterate(self, iteration, pool)

        monkeypatch.setattr(_Trainer, "_iteration", spy)
        cfg = small_config(iterations=1, beam_init=4, operators=("cot",),
                           output_dir=str(tmp_path))
        _, report, _ = train(cfg, data, [], base_template(), backend)
        refine_call, *pool_calls = backend.calls[:4]
        assert len(refine_call) == 4 * 2  # beam_init per editable section
        assert all(OPERATOR_TARGET.search(text) for text, _ in refine_call)
        # four distinct variants on the first quarter, two on the second,
        # one on the second half
        assert [len(call) for call in pool_calls] == [100, 50, 50]
        first, _, last = [eval_blocks(call, examples) for call, examples in
                          zip(pool_calls, [data[:25], data[25:50], data[50:]])]
        assert len({skeleton for skeleton, _ in first}) == 4
        assert report.init_eval_requests == halving_requests(4, 100) == 200
        # only the finished prompt enters the pool
        [(finished, _)] = last
        [[cand]] = pools
        assert cand.prompt.skeleton() == finished
        assert cand.latest_score("f1") == evaluate(cand, data, Graded(data))[0].f1

    def test_short_training_set_does_not_race(self, tmp_path):
        data = cls_dataset(99)
        backend = Graded(data)
        trainer, pool = self._trainer(tmp_path, data, backend)
        del backend.calls[:]
        trainer._iteration(1, pool)
        row = trainer.report.iterations[0]
        operator_call, eval_call = backend.calls
        assert len(operator_call) == 4
        assert len(eval_blocks(eval_call, data)) == 4
        assert [s["raced_out"] for s in row["selections"]] == [False] * 4
        assert row["eval_requests"] == 4 * len(data)

    def test_pairs_that_make_the_same_prompt_share_its_evaluation(self, tmp_path):
        data = cls_dataset(100)
        k = len(data) // RACE_PREFIX_DIVISOR
        backend = SameBody(data)
        trainer, pool = self._trainer(tmp_path, data, backend)
        del backend.calls[:]
        trainer._iteration(1, pool)
        row = trainer.report.iterations[0]
        operator_call, head_call, tail_call = backend.calls
        heads = eval_blocks(head_call, data[:k])
        [(tail, _)] = eval_blocks(tail_call, data[k:])
        assert len(heads) == 2
        sections = [s["section"] for s in row["selections"]]
        assert sorted(sections) == ["s0", "s0", "s1", "s1"]
        # both pairs of a section share its prompt's fate and gradient
        by_section = {}
        for sel in row["selections"]:
            by_section.setdefault(sel["section"], set()).add((sel["raced_out"], sel["gradient"]))
        assert all(len(fates) == 1 for fates in by_section.values())
        assert sorted(out for [(out, _)] in by_section.values()) == [False, True]
        assert row["eval_requests"] == 2 * k + (len(data) - k)


class TestScoreProperties:
    @given(k=st.integers(1, 6), n=st.sampled_from([99, 100, 150, 200, 401]))
    @settings(max_examples=25, deadline=None)
    def test_successive_halving(self, k, n):
        data = cls_dataset(n)
        backend = Graded(data)
        trainer = _Trainer(small_config(), data, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(k)]
        losers = trainer._score(cands, 0)
        assert trainer.eval_requests == halving_requests(k, n)
        assert sum(len(call) for call in backend.calls) == halving_requests(k, n)
        assert len(backend.calls) <= 3
        assert len(trainer.scored) + len(losers) == k
        assert set(trainer.scored).isdisjoint(losers)
        for cand in cands:
            if cand.fingerprint not in trainer.scored:
                continue
            report, bad, rung_objectives = trainer.scored[cand.fingerprint]
            [(predictions, _)] = predict_many([cand], data, Graded(data))
            assert (report, bad) == report_predictions(data, predictions, seed=0)
            assert rung_objectives == tuple(f1_of(data[:c], predictions[:c])
                                            for c in trainer.rungs)

    @pytest.mark.parametrize("n", [99, 100, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_each_prediction_is_scored_once(self, k, n, monkeypatch):
        """No rung rescans a prefix: the (prompt, example) judgements fed to
        the tallies are the requests sent, each once."""
        fed = []
        add = Tally.add

        def counted(self, items):
            items = list(items)
            fed.extend((id(self), key) for key, _ in items)
            return add(self, items)

        monkeypatch.setattr(Tally, "add", counted)
        data = cls_dataset(n)
        trainer = _Trainer(small_config(), data, [], base_template(), Graded(data))
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(k)]
        trainer._score(cands, 0)
        assert len(fed) == trainer.eval_requests == halving_requests(k, n)
        assert len(set(fed)) == len(fed)


class TestReplyMemo:
    def test_a_run_parses_a_training_reply_only_when_it_changes(self, tmp_path, monkeypatch):
        import promptopt.evaluation

        calls = []
        parse = promptopt.evaluation.parse_prediction

        def counted(task, raw):
            calls.append(raw)
            return parse(task, raw)

        monkeypatch.setattr(promptopt.evaluation, "parse_prediction", counted)
        data = cls_dataset(110)
        train_set, test_set = data[:100], data[100:]
        backend = Graded(data)
        cfg = small_config(iterations=3, beam_init=3, pairs_per_epoch=3,
                           operators=("refine", "rewrite"), output_dir=str(tmp_path))
        trainer = _Trainer(cfg, train_set, test_set, base_template(), backend)
        trainer.run()

        # replay the batches: a training example's reply is parsed when it
        # differs from that example's previous reply in the run, and each
        # test example's reply is parsed once
        last, expected, eval_requests = {}, 0, 0
        for call in backend.calls:
            if OPERATOR_TARGET.search(call[0][0]):
                continue
            eval_requests += len(call)
            for text, reply in call:
                ex = next(ex for ex in data if ex.input in text)
                if ex in test_set:
                    expected += 1
                elif last.get(ex.id) != reply:
                    last[ex.id] = reply
                    expected += 1
        assert len(calls) == expected < eval_requests
        # one slot per training example, holding its last reply, that
        # reply's prediction and its judgement
        assert len(trainer.replies) == len(train_set) == len(last)
        for ex, (text, prediction, judgement) in zip(train_set, trainer.replies):
            assert text == last[ex.id]
            assert prediction == parse(ex.task, text)
            assert judgement == _judge(ex.task, ex.gold, prediction)


class TestJudgementMemo:
    def test_a_run_judges_a_training_prediction_only_when_it_changes(self, tmp_path,
                                                                     monkeypatch):
        import promptopt.evaluation

        judged = []

        def counted(task, gold, prediction):
            judged.append((gold, prediction))
            return _judge(task, gold, prediction)

        monkeypatch.setattr(promptopt.evaluation, "_judge", counted)
        data = cls_dataset(110)
        train_set, test_set = data[:100], data[100:]
        backend = Graded(data)
        cfg = small_config(iterations=3, beam_init=3, pairs_per_epoch=3,
                           operators=("refine", "rewrite"), output_dir=str(tmp_path))
        trainer = _Trainer(cfg, train_set, test_set, base_template(), backend)
        trainer.run()

        # replay the batches in (candidate, example) order: a training
        # prediction is judged when its example's reply differs from the
        # previous one, and each test prediction is judged once
        last, expected, eval_requests = {}, [], 0
        for call in backend.calls:
            if OPERATOR_TARGET.search(call[0][0]):
                continue
            eval_requests += len(call)
            for text, reply in call:
                ex = next(ex for ex in data if ex.input in text)
                if ex in test_set or last.get(ex.id) != reply:
                    last[ex.id] = reply
                    expected.append((ex.gold, parse_prediction(ex.task, reply)))
        assert judged == expected
        assert len(test_set) < len(judged) < eval_requests


class TestClsAverage:
    def test_macro_run_differs_from_micro(self, tmp_path):
        # 18 A and 2 B, and the model always answers A
        data = [ExampleRecord("%02d" % i, "CLS", "item %02d please" % i, "B" if i < 2 else "A")
                for i in range(20)]
        script = [{"match": {"contains": "please"}, "response": json.dumps({"label": "A"})},
                  {"response": "pass"}]
        scores = {}
        for average in ("micro", "macro"):
            cfg = small_config(iterations=1, cls_average=average,
                               output_dir=str(tmp_path / average))
            _, report, _ = train(cfg, data, data, base_template(), MockBackend(script))
            scores[average] = (report.iterations[0]["best"], report.final_test_objective)
        assert scores["micro"] == (pytest.approx(0.9), pytest.approx(0.9))
        assert scores["macro"] == (pytest.approx(0.9 / 1.9), pytest.approx(0.9 / 1.9))

    def test_unknown_average_rejected(self):
        with pytest.raises(ConfigError):
            small_config(cls_average="weighted").validate()


def load_matrix_like(sections, operators, dominant):
    from promptopt.matrix import init_uniform

    m = init_uniform(sections, operators)
    sec, op, value = dominant
    m.set_value(sec, op, value)
    return m
