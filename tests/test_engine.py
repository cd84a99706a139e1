import hashlib
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptopt import operators as ops
from promptopt.backend import GenerationResponse, MockBackend
from promptopt.engine import (
    RACE_ETA,
    RACE_MIN_PREFIX,
    RACE_MIN_SET,
    RunConfig,
    _contract_breach,
    config_from_dict,
    config_to_dict,
    first_rung,
    initialize_candidates,
    retain,
    _Trainer,
    run_id_for,
    train,
)
from promptopt.errors import AuthError, BackendTimeout, ConfigError
from promptopt.evaluation import (
    BAD_CASE_CAP,
    ExampleRecord,
    Tally,
    _judge,
    eval_requests,
    evaluate,
    judge_replies,
    parse_prediction,
    reply_memo,
    score,
)
from promptopt.matrix import TransitionMatrix, load_matrix
from promptopt.msgd_rl import ExperienceStore, read_experience, save_experience
from promptopt.operators import COT_SCAFFOLD, OPERATOR_IDS
from promptopt.prompt_model import Candidate, MetaPrompt, Section, prompt_from_dict

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

    def test_variant_that_breaks_the_contract_keeps_the_template_body(self, caplog):
        import logging

        template = make_prompt(["Classify the item as A or B.", "Input:", "Fixed."],
                               editable=[True, True, False], placeholder_in=1)
        fifo = [body_json("s0", "task v0"), body_json("s0", "task v1"),
                body_json("s1", "Read the input."), body_json("s1", "Read:\n{{Input}}")]
        with caplog.at_level(logging.WARNING):
            pool = initialize_candidates(
                template, MockBackend([{"response": r} for r in fifo]), 2, seed=0)
        assert [(c.prompt.section_by_id("s0").body, c.prompt.section_by_id("s1").body)
                for c in pool] == [("task v0", "Input:\n{{Input}}"),
                                   ("task v1", "Read:\n{{Input}}")]
        assert any("keeps the template's body" in r.message and "not found" in r.message
                   for r in caplog.records)


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

    @pytest.mark.parametrize("kw, message", [
        (dict(top_k=2.5), "top_k must be an integer, not 2.5"),
        (dict(seed=True), "seed must be an integer, not true"),
        (dict(iterations="5"), 'iterations must be an integer, not "5"'),
        (dict(operators="refine"), 'operators must be a list of strings, not "refine"'),
        (dict(task="QA"), 'task must be NER, CLS or MRC, not "QA"'),
    ])
    def test_python_built_config_is_checked_as_a_config_file(self, tmp_path, kw, message):
        # the checks a config file's values get, before any request is sent
        with pytest.raises(ConfigError) as err:
            small_config(**kw).validate()
        assert str(err.value) == message
        data = cls_dataset()
        backend = Recording(data)
        cfg = small_config(output_dir=str(tmp_path / "runs"), **kw)
        with pytest.raises(ConfigError) as err:
            train(cfg, data, data, base_template(), backend)
        assert str(err.value) == message
        assert backend.calls == [] and not (tmp_path / "runs").exists()

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
        # a candidate's prompt round-trips through its serialized form
        doc = json.loads((run_dir / "iter_001" / "candidates.json").read_text())
        cand = Candidate(prompt=prompt_from_dict(doc[0]["prompt"]))
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
            assert np.array_equal(np.array(m.q)[:, j], q[:, old_ops.index(op)])

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
        q = np.array(store.matrix.q)
        assert np.all(q[:, store.matrix.operators.index("refine")] == 1.0 / 6)
        if optimizer == "msgd_rl":
            assert np.all(q[:2, store.matrix.operators.index("cot")] != 1.0 / 6)

    @pytest.mark.parametrize("optimizer", ["msgd", "msgd_rl"])
    def test_failed_pair_sent_ahead_is_skipped(self, tmp_path, optimizer):
        """An operator request that fails at the end of a finish batch fails
        its pair in the iteration it was sent for, as in a batch of its own."""
        data = cls_dataset(200)

        class RefineDown(LastLine):
            # every refine request fails
            def generate_batch(self, reqs):
                return [BackendTimeout("refine down") if '"Refine" method' in r.messages[-1][1]
                        else res for r, res in zip(reqs, super().generate_batch(reqs))]

        cfg = small_config(iterations=3, optimizer=optimizer, pairs_per_epoch=4, top_k=3,
                           anneal_count=0,
                           operators=("refine", "rewrite", "short_instruction"),
                           output_dir=str(tmp_path))
        backend = RefineDown(data, max_parallel=64)
        trainer = _Trainer(cfg, data, [], base_template(), backend, run_dir=tmp_path / "run")
        _, report, store = trainer.run()
        # iteration 1's operators go alone; each later iteration's ride the
        # finish batch before it
        assert [row["next_bases"] for row in report.iterations] == [2, 2, 0]
        for row in report.iterations:
            assert row["failed"] and all(
                (f["operator"], f["error"]) == ("refine", "BackendTimeout") for f in row["failed"])
            assert [s["operator"] for s in row["selections"]].count("refine") == 0
            assert len(row["failed"]) + len(row["selections"]) == 4
        q = np.array(store.matrix.q)
        assert np.all(q[:, store.matrix.operators.index("refine")] == 1.0 / 9)

    def test_iteration_with_every_pair_failed(self, tmp_path):
        data = cls_dataset(8)
        cfg = small_config(iterations=2, optimizer="msgd_rl", pairs_per_epoch=2,
                           operators=("refine",), output_dir=str(tmp_path))
        backend = FailingOperators(oracle_script(data, wrong_ids={"00"}))
        _, report, store = train(cfg, data, data, base_template(), backend)
        assert [len(row["failed"]) for row in report.iterations] == [2, 2]
        assert all(row["selections"] == [] for row in report.iterations)
        assert np.all(np.array(store.matrix.q) == 1.0 / 3)

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


class TestBrokenEdit:
    """An edit that breaks the prompt's contract is a no-op, not the end of
    the run: no evaluation request, no score, gradient 0."""

    @pytest.mark.parametrize("op, script", [
        ("few_shot", []),  # the examples replace the body that holds {{Input}}
        ("refine", [{"match": {"contains": "Below is a s1 of"},
                     "response": body_json("s1", "Read the input.")}]),
    ])
    def test_edit_that_drops_the_placeholder(self, tmp_path, op, script):
        data = cls_dataset(10)
        template = make_prompt(["Classify the item as A or B.", "Input:"],
                               editable=[True, True])
        cfg = small_config(operators=(op,), output_dir=str(tmp_path))
        backend = MockBackend(script + oracle_script(data, wrong_ids={"00"}))
        _, report, _ = train(cfg, data, [], template, backend)
        assert len(report.iterations) == cfg.iterations
        broken = [sel for row in report.iterations for sel in row["selections"]
                  if sel["section"] == "s1"]
        assert broken
        assert all((sel["gradient"], sel["scored_on"]) == (0.0, 0) for sel in broken)
        for row in report.iterations:
            assert row["eval_requests"] == len(data) * sum(
                sel["scored_on"] > 0 for sel in row["selections"])

    def test_initial_variant_that_drops_the_placeholder(self, tmp_path):
        """The initial pool's refine variants are held to the same contract:
        one that drops the placeholder keeps the template's body."""
        data = cls_dataset(10)
        template = make_prompt(["Classify the item as A or B.", "Input:", "Fixed."],
                               editable=[True, True, False], placeholder_in=1)
        cfg = small_config(beam_init=2, operators=("refine",), output_dir=str(tmp_path))
        backend = MockBackend([{"match": {"contains": "Below is a s1 of"},
                                "response": body_json("s1", "Read the input.")}]
                              + oracle_script(data, wrong_ids={"00"}))
        best, report, _ = train(cfg, data, [], template, backend)
        assert len(report.iterations) == cfg.iterations
        assert best.prompt.section_by_id("s1").body == "Input:\n{{Input}}"
        assert report.init_eval_requests == len(data)

    @pytest.mark.parametrize("bodies, breach", [
        (["Rule.", "{{Input}}", "Fixed."], ""),
        (["Rule.", "Input:", "Fixed."], "not found"),
        (["Rule. {{Input}}", "{{Input}}", "Fixed."], "occurs 2 times"),
        (["Rule.", "{{Input}}", "Fixed!"], "non-editable section s2 changed"),
    ])
    def test_contract(self, bodies, breach):
        def prompt(bodies):
            return MetaPrompt(tuple(Section("s%d" % i, "s%d" % i, body, editable=i < 2,
                                            position=i) for i, body in enumerate(bodies)))

        found = _contract_breach(prompt(["Rule.", "{{Input}}", "Fixed."]), prompt(bodies))
        assert (breach in found) if breach else found == ""


def graded_label(skeleton, ex):
    """The label Graded answers for an example under a prompt skeleton (the
    rendered prompt with the input put back as {{Input}})."""
    wrong = int(hashlib.sha256((skeleton + ex.id).encode()).hexdigest(), 16) % 3 == 0
    return "B" if (ex.gold == "A") == wrong else "A"


class Graded(MockBackend):
    """Records every batch. Operator requests get a numbered body. Whether an
    evaluation reply is right depends on a hash of the prompt and the example
    id, so edits differ in score."""

    def __init__(self, examples, max_parallel=1):
        super().__init__([], max_parallel=max_parallel)
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
    return score("CLS", {i: ex.gold for i, ex in enumerate(examples)},
                 dict(enumerate(predictions))).f1


def ner_dataset(n):
    return [ExampleRecord("%03d" % i, "NER", "item %03d please" % i,
                          {"PER": frozenset({(0, 4)}), "NUM": frozenset({(5, 8)})})
            for i in range(n)]


class NerGraded(Graded):
    """Graded on NER: an evaluation reply finds both gold spans, or, under
    the prompts Graded would answer wrongly, a wrong number span."""

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            return super()._reply(text)
        ex = next(ex for ex in self.examples if ex.input in text)
        skeleton = text.replace(ex.input, "{{Input}}")
        wrong = int(hashlib.sha256((skeleton + ex.id).encode()).hexdigest(), 16) % 3 == 0
        return "Entities:\n" + json.dumps({
            "PER": {"item": [[0, 4]]},
            "NUM": {ex.input[5:9]: [[5, 9]]} if wrong else {ex.input[5:8]: [[5, 8]]}})


class SameBody(Graded):
    """Every operator request gets the same body, so refine and rewrite of
    one section make one prompt."""

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            return json.dumps({"body": "one body"})
        return super()._reply(text)


def judged_alone(cand, data, backend):
    """The reply texts and judgements of one evaluation of `cand` on data."""
    segments = [(cand, 0, len(data))]
    results = backend.generate_batch(eval_requests(segments, data))
    [out] = judge_replies(segments, data, results, reply_memo(len(data)))
    return out


def record_f1(record, cut):
    """The f1 of a `scored` record's judgements of the first `cut` examples."""
    tally = Tally("CLS")
    tally.add(enumerate(record[2][:cut]))
    return tally.objective_value()


def uncut_first(n):
    """The first racing rung's prefix on n training examples before it is
    cut to whole waves."""
    return max(n // RACE_ETA ** 2, RACE_MIN_PREFIX)


def second_rung(first, k, n, parallel):
    """The second rung's prefix on n examples after a first rung of
    `first`, for k live prompts, each sent the first rung: the first n //
    RACE_ETA cut to whole waves, which goes past the first rung."""
    cut = first_rung(n // RACE_ETA, k, parallel, first)
    assert first < cut <= n // RACE_ETA
    return cut


def first_rung_by_loop(uncut, k, parallel, seen):
    """engine.first_rung as a loop over the prompts, prompt i already sent
    its first seen[i] examples: the wave cut of the uncut rung, or the uncut
    rung when that cut would not go past every prompt's examples sent; then,
    with examples sent, the longest prefix of at most that cut whose unsent
    requests fit in the whole waves (at least one) that the requests still
    due fill, but at least one example past the most sent. first_rung must
    agree with it when every count is the same."""
    if k * uncut < parallel:
        cut = uncut
    else:
        cut = k * uncut // parallel * parallel // k
    if not any(seen):
        return cut
    if cut <= max(seen):
        cut = uncut
    room = max(1, (k * cut - sum(seen)) // parallel) * parallel
    while cut > max(seen) + 1 and sum(max(0, cut - s) for s in seen) > room:
        cut -= 1
    return cut


def halving_batches(k, n, parallel=1):
    """(live prompts, start, stop) of each batch that successive halving
    sends for k distinct prompts on n training examples, `parallel`
    requests to a wave, with nothing sent before: the best third of the
    field, rounded up, goes on from the first rung, and the best prompt
    alone from the second."""
    if k < 2 or n < RACE_MIN_SET:
        return [(k, 0, n)]
    q = first_rung(uncut_first(n), k, parallel)
    k1 = -(-k // RACE_ETA)
    if k1 == 1:
        return [(k, 0, q), (1, q, n)]
    h = second_rung(q, k1, n, parallel)
    return [(k, 0, q), (k1, q, h), (1, h, n)]


def halving_requests(k, n, parallel=1):
    """The evaluation requests of halving_batches(k, n, parallel)."""
    return sum(live * (stop - start) for live, start, stop in halving_batches(k, n, parallel))


class LastLine(Graded):
    """Graded, but it finds the example by the request's last line, where the
    template puts the input: a few_shot prompt quotes other examples'
    inputs, so the first input found in the text may not be the one asked
    about."""

    def __init__(self, examples, max_parallel=1):
        super().__init__(examples, max_parallel=max_parallel)
        self.by_input = {ex.input: ex for ex in examples}

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            return super()._reply(text)
        inp = text.rsplit("\n", 1)[-1]
        return json.dumps({"label": graded_label(text[:-len(inp)] + "{{Input}}",
                                                 self.by_input[inp])})


def split_call(call, by_input):
    """The operator requests of a batch, then its evaluation requests as
    (prompt skeleton, example) pairs, in batch order."""
    operator = [text for text, _ in call if OPERATOR_TARGET.search(text)]
    evals = []
    for text, _ in call[len(operator):]:
        inp = text.rsplit("\n", 1)[-1]
        evals.append((text[:-len(inp)] + "{{Input}}", by_input[inp]))
    return operator, evals


LOCAL = ("cot", "few_shot", "repeat_instructions")
MIXED_OPERATORS = ("cot", "few_shot", "repeat_instructions", "refine", "rewrite")


def mixed_trainer(tmp_path, data, parallel, operators=MIXED_OPERATORS):
    cfg = small_config(iterations=4, top_k=3, anneal_count=0, pairs_per_epoch=5,
                       operators=operators, output_dir=str(tmp_path))
    backend = LastLine(data, max_parallel=parallel)
    trainer = _Trainer(cfg, data, [], base_template(), backend)
    pool = [Candidate(prompt=base_template())]
    records = trainer._score(pool, 0)
    return trainer, backend, [cand.with_score(0, records[cand.fingerprint][0]) for cand in pool]


class TestRacing:
    def _trainer(self, tmp_path, data, backend, pairs=4, operators=("refine", "rewrite")):
        cfg = small_config(iterations=1, top_k=3, anneal_count=0, pairs_per_epoch=pairs,
                           operators=operators, output_dir=str(tmp_path))
        trainer = _Trainer(cfg, data, [], base_template(), backend)
        pool = [Candidate(prompt=base_template())]
        records = trainer._score(pool, 0)
        return trainer, [cand.with_score(0, records[cand.fingerprint][0]) for cand in pool]

    # live prompts at each rung, then the prompt finished on the rest
    RUNG_SIZES = {2: [2, 1], 3: [3, 1], 4: [4, 2, 1], 5: [5, 2, 1]}

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("pairs", [2, 3, 4, 5])
    def test_three_rungs_on_whole_waves(self, tmp_path, pairs, n):
        """The same race with 64 requests to a wave, which cuts the first
        rung of 25 for all but 2 prompts."""
        self.test_three_rungs(tmp_path, pairs, n, parallel=64)

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("pairs", [2, 3, 4, 5])
    def test_three_rungs(self, tmp_path, pairs, n, parallel=1):
        data = cls_dataset(n)
        # the first two rungs are cut to whole waves of `parallel` requests
        first = first_rung(uncut_first(n), pairs, parallel)
        rungs = (first, second_rung(first, -(-pairs // RACE_ETA), n, parallel))
        backend = Graded(data, max_parallel=parallel)
        trainer, pool = self._trainer(tmp_path, data, backend, pairs,
                                      operators=("refine", "rewrite", "short_instruction"))
        assert trainer.rungs == (uncut_first(n), n // 3) and RACE_MIN_PREFIX == 25
        [(base_skeleton, base_preds)] = eval_blocks(backend.calls[0], data)
        base_rungs = tuple(f1_of(data[:c], base_preds[:c]) for c in rungs)
        # a prompt scored alone keeps the judgements of its full pass, which
        # give its objective on any prefix
        base_record = trainer.scored[pool[0].fingerprint]
        assert base_record[2] == tuple(_judge("CLS", ex.gold, p) for ex, p in zip(data, base_preds))
        assert tuple(record_f1(base_record, c) for c in rungs) == base_rungs
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
        assert row["eval_requests"] == halving_requests(pairs, n, parallel)

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
        # only the pool's records are kept
        assert set(trainer.scored) == {c.fingerprint for c in new_pool}
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
            _, judgements = judged_alone(cand, data, Graded(data))
            record = trainer.scored[cand.fingerprint]
            assert record == (report, bad, tuple(judgements))
            assert tuple(record_f1(record, c) for c in rungs) == tuple(
                f1_of(data[:c], full[i][:c]) for c in rungs)
            assert cand.latest_score("f1") == report.f1
            assert sel["scored_on"] == n
            assert sel["gradient"] == report.f1 - pool[0].latest_score("f1")

    @pytest.mark.parametrize("parallel, n, operators", [
        (1, 200, MIXED_OPERATORS),  # local operators at the mock's max_parallel
        (64, 200, ("refine", "rewrite", "short_instruction")),  # no local operator
        (64, 99, MIXED_OPERATORS),  # a training set too short to race
        (64, 200, MIXED_OPERATORS),  # local operators with free slots to fill
    ])
    def test_iterations_that_nothing_rides(self, tmp_path, monkeypatch, parallel, n,
                                           operators):
        """No evaluation request rides an operator batch, whatever its free
        slots. An iteration's operator requests go out at the end of the
        last iteration's finish batch when that scoring raced, and alone
        before its rungs when it did not; each rung's batch sends every live
        prompt the same examples, first."""
        data = cls_dataset(n)
        by_input = {ex.input: ex for ex in data}
        trainer, backend, pool = mixed_trainer(tmp_path, data, parallel, operators)
        scorings = []
        score = _Trainer._score

        def spy(self, cands, iteration, speculate=None):
            scorings.append(len(cands))
            return score(self, cands, iteration, speculate)

        monkeypatch.setattr(_Trainer, "_score", spy)
        saw_local = False
        rode = []  # per iteration, whether its finish batch carried the next one's operators
        for iteration in range(1, 5):
            sent_ahead = trainer.ahead
            del backend.calls[:]
            del scorings[:]
            pool = trainer._iteration(iteration, pool)
            row = trainer.report.iterations[-1]
            ops = [s["operator"] for s in row["selections"]]
            saw_local |= any(op in LOCAL for op in ops)
            [k] = scorings
            calls = backend.calls
            n_operator = sum(op not in LOCAL for op in ops)
            if sent_ahead:
                # the last finish batch sent them, on this iteration's base
                [entries] = sent_ahead.bases.values()
                positions = [i for at in entries if at for i in at]
                assert len(positions) == n_operator
            elif n_operator:
                operator, evals = split_call(calls[0], by_input)
                assert len(operator) == n_operator and not evals
                calls = calls[1:]
            batches = halving_batches(k, n, parallel)
            assert len(calls) == len(batches)
            tails = []  # what each batch sends after its evaluation requests
            for call, (live, start, stop) in zip(calls, batches):
                evals, tail = call[:live * (stop - start)], call[live * (stop - start):]
                tails.append(tail)
                for at in range(0, len(evals), stop - start):
                    assert [by_input[text.rsplit("\n", 1)[-1]] for text, _ in
                            evals[at:at + stop - start]] == data[start:stop]
            # the next iteration's operator requests, at the end of a raced
            # finish batch, unless this is the last iteration
            *rungs, tail = tails
            assert not any(rungs)
            rode.append(bool(tail))
            assert all(OPERATOR_TARGET.search(text) for text, _ in tail)
            if len(batches) > 1 and iteration < 4:
                assert row["next_bases"] == 2
                assert len(tail) == len(trainer.ahead.requests)
            else:
                assert not tail and trainer.ahead is None
                assert (row["next_bases"], row["dropped_requests"]) == (0, 0)
            assert row["eval_requests"] == halving_requests(k, n, parallel)
        assert saw_local == (operators == MIXED_OPERATORS)
        assert any(rode) == (n >= RACE_MIN_SET)

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
        # four distinct variants on the first 25 examples, two on the next
        # 8, to the first third, one on the other 67
        assert [len(call) for call in pool_calls] == [100, 16, 67]
        first, _, last = [eval_blocks(call, examples) for call, examples in
                          zip(pool_calls, [data[:25], data[25:33], data[33:]])]
        assert len({skeleton for skeleton, _ in first}) == 4
        assert report.init_eval_requests == halving_requests(4, 100) == 183
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
        backend = SameBody(data)
        trainer, pool = self._trainer(tmp_path, data, backend)
        k = trainer.rungs[0]
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

    def test_five_prompts_on_400_examples(self, tmp_path):
        """Five prompts on 400 examples, whose uncut rungs are 44 and 133, at
        64 requests to a wave: the first rung of 38 takes 3 waves, the two
        prompts left are sent 2 * 64 requests, two whole waves, on the
        second rung, and the better of them alone finishes on the other 298
        examples."""
        data = cls_dataset(400)
        trainer, backend, _ = mixed_trainer(tmp_path, data, 64)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(5)]
        del backend.calls[:]
        trainer._score(cands, 1)
        assert [len(call) for call in backend.calls] == [190, 128, 298]
        assert first_rung(44, 5, 64) == 38
        assert second_rung(38, 2, 400, 64) == 38 + 64
        assert sum(-(-len(call) // 64) for call in backend.calls) == 10


class Revoked(LastLine):
    """LastLine, but each batch goes through MockBackend's own generate_batch,
    one request at a time, so a failure raised by `generate` meets the
    backend's batch rule. `batches` holds the text of every request served,
    per batch; the request at `at`, a (batch, position) pair, fails with an
    AuthError."""

    def __init__(self, examples, max_parallel, at=None):
        super().__init__(examples, max_parallel=max_parallel)
        self.at = at
        self.batches = []

    def generate_batch(self, reqs):
        self.batches.append([])
        return MockBackend.generate_batch(self, reqs)

    def generate(self, req):
        if (len(self.batches) - 1, len(self.batches[-1])) == self.at:
            raise AuthError("key revoked")
        text = req.messages[-1][1]
        self.batches[-1].append(text)
        res = GenerationResponse(text=self._reply(text))
        self.usage.add(res)
        return res


def batch_kinds(batches, train_set, test_set):
    """(kind, batch, position of its first request of that kind) for each
    part of a run's batches: the initial refine batch, an operator batch,
    each racing rung by how far into the training set it reaches, the next
    iteration's operator requests at the end of a finish batch, and the test
    set."""
    n = len(train_set)
    where = {ex.input: i for i, ex in enumerate(train_set)}
    tests = {ex.input for ex in test_set}
    kinds = []
    for b, texts in enumerate(batches):
        n_eval = len(texts) - sum(bool(OPERATOR_TARGET.search(text)) for text in texts)
        inputs = [text.rsplit("\n", 1)[-1] for text in texts[:n_eval]]
        if b == 0:
            kinds.append(("init", b, 0))
        elif not n_eval:
            kinds.append(("operator", b, 0))
        elif inputs[0] in tests:
            kinds.append(("test", b, 0))
        else:
            stop = 1 + max(where[inp] for inp in inputs)
            kinds.append(("rung 1" if stop <= uncut_first(n) else "rung 2" if stop <= n // 3
                          else "whole set", b, 0))
            if n_eval < len(texts):
                # the operator requests ride at the end, after every evaluation
                assert not any(OPERATOR_TARGET.search(text) for text in texts[:n_eval])
                kinds.append(("ahead", b, n_eval))
    return kinds


class TestAuthErrorEndsTheRun:
    """An AuthError on any batch of a run ends the run: the backend raises it
    out of generate_batch, sends nothing after it, and no report is written."""

    TRAIN = cls_dataset(200)
    TEST = [ExampleRecord("t%02d" % i, "CLS", "test item %02d please" % i, "AB"[i % 2])
            for i in range(20)]

    def _train(self, backend, run_dir, beam_init):
        cfg = small_config(iterations=4, beam_init=beam_init, top_k=3, anneal_count=0,
                           pairs_per_epoch=5, operators=MIXED_OPERATORS,
                           output_dir=str(run_dir.parent))
        train(cfg, self.TRAIN, self.TEST, base_template(), backend, run_dir=run_dir)

    @pytest.mark.parametrize("kind", ["init", "operator", "rung 1", "rung 2", "whole set",
                                      "ahead", "test"])
    def test_auth_error_ends_train(self, tmp_path, kind):
        # a raced initial pool sends iteration 1's operator requests at the
        # end of its finish batch; a pool of the template alone does not
        # race, so they go in a batch of their own
        beam_init = 1 if kind == "operator" else 4
        clean = Revoked(self.TRAIN + self.TEST, 64)
        self._train(clean, tmp_path / "clean", beam_init)
        # the last batch of that kind, at its first request of that kind
        *_, (b, i) = [(b, i) for k, b, i in batch_kinds(clean.batches, self.TRAIN, self.TEST)
                      if k == kind]
        revoked = Revoked(self.TRAIN + self.TEST, 64, at=(b, i))
        with pytest.raises(AuthError):
            self._train(revoked, tmp_path / "revoked", beam_init)
        assert revoked.batches == clean.batches[:b] + [clean.batches[b][:i]]
        assert not (tmp_path / "revoked" / "report.json").exists()


class Planted(MockBackend):
    """Each operator request, in order, gets the body "quality NN" for the
    next of `qualities`, and any later one a reply that does not parse. An
    evaluation reply is right when the example's fixed draw is below the
    prompt's planted quality (0.6 without one), so a better prompt is right
    on a superset of examples. Records every batch."""

    def __init__(self, examples, qualities, max_parallel=1):
        super().__init__([], max_parallel=max_parallel)
        self.by_input = {ex.input: (i, ex) for i, ex in enumerate(examples)}
        self.n = len(examples)
        self.qualities = list(qualities)
        self.calls = []

    def _reply(self, text):
        if OPERATOR_TARGET.search(text):
            return "pass" if not self.qualities else json.dumps(
                {"body": "quality %d" % self.qualities.pop(0)})
        i, ex = self.by_input[text.rsplit("\n", 1)[-1]]
        planted = re.findall(r"quality (\d+)", text)
        p = int(planted[-1]) / 100 if planted else 0.6
        right = (i * 73 % self.n + 0.5) / self.n < p
        return json.dumps({"label": ex.gold if right else "AB".replace(ex.gold, "")})

    def generate_batch(self, reqs):
        self.calls.append(len(reqs))
        out = [GenerationResponse(text=self._reply(r.messages[-1][1])) for r in reqs]
        for res in out:
            self.usage.add(res)
        return out


class TestSiblings:
    """At max_parallel > 1 the second rung is cut to whole waves. An edit
    any rung races out, on a cut rung or not, and whether or not it is worse
    than the base there, never reaches an operator context: the parents that
    merge and diff_evolution take are exactly the pool, or, for the
    operators that a finish batch sends ahead, the pool and the prompt that
    batch finishes."""

    @pytest.mark.parametrize("parallel, qualities, second, not_worse_on_cut_rung", [
        # 4 edits: two lose on the first rung of 16, one of them (60) as
        # good as the base there; 75 loses to 90 on the second rung of 48
        (64, [90, 75, 60, 30], 48, True),
        (64, [90, 50, 40, 30], 48, False),  # 50 is worse than the base
        (1, [90, 75, 60, 30], 66, False),  # rungs of 25 and 66: nothing cut
    ])
    def test_edits_raced_out_on_the_second_rung(self, tmp_path, monkeypatch, parallel,
                                                qualities, second, not_worse_on_cut_rung):
        data = cls_dataset(200)
        contexts = {}
        aheads = []  # (pool, finisher, its record on its prefix, the _Ahead)
        context, plan_ahead = _Trainer._context, _Trainer._plan_ahead

        def spy(self, pair, base, record, iteration, pool, pair_index):
            ctx = context(self, pair, base, record, iteration, pool, pair_index)
            contexts.setdefault(iteration, []).append((base, list(pool), ctx, len(aheads)))
            return ctx

        def spy_ahead(self, iteration, pool, base, finisher, record):
            aheads.append((list(pool), finisher, record, None))
            ahead = plan_ahead(self, iteration, pool, base, finisher, record)
            aheads[-1] = aheads[-1][:3] + (ahead,)
            return ahead

        monkeypatch.setattr(_Trainer, "_context", spy)
        monkeypatch.setattr(_Trainer, "_plan_ahead", spy_ahead)
        cfg = small_config(iterations=3, top_k=3, anneal_count=0, pairs_per_epoch=4,
                           operators=("refine", "rewrite", "short_instruction"),
                           output_dir=str(tmp_path))
        backend = Planted(data, qualities, max_parallel=parallel)
        run_dir = tmp_path / "run"
        best, report, _ = train(cfg, data, [], base_template(), backend, run_dir=run_dir)
        first = first_rung(25, 4, parallel)
        assert second == second_rung(first, 2, 200, parallel)
        # the init scoring of the one template, then iteration 1: operators,
        # 2 rungs, the finish with iteration 2's operator requests at its
        # end, planned on the base and on the finisher, which edited one
        # section: a pair on the other section sends one request for both
        _, finisher, _, ahead = aheads[0]
        edited = "s0" if finisher.prompt.section_by_id("s0").body == "quality 90" else "s1"
        assert len(ahead.requests) == 4 + sum(pair.section == edited for pair in ahead.pairs)
        assert backend.calls[1:5] == [4, 4 * first, 2 * (second - first),
                                      200 - second + len(ahead.requests)]
        assert best.prompt.section_by_id("s0").body == "quality 90" or \
            best.prompt.section_by_id("s1").body == "quality 90"

        def accuracy(quality, cut):
            # the f1 on data[:cut] of Planted's replies at that quality
            right = [(i * 73 % 200 + 0.5) / 200 < quality / 100 for i in range(cut)]
            return f1_of(data[:cut], [ex.gold if ok else "AB".replace(ex.gold, "")
                                      for ex, ok in zip(data, right)])

        selections = report.iterations[0]["selections"]
        assert [(s["raced_out"], s["scored_on"]) for s in selections] == [
            (False, 200), (True, second), (True, first), (True, first)]
        gradients = [s["gradient"] for s in selections]
        assert gradients[1] == accuracy(qualities[1], second) - accuracy(60, second)
        assert gradients[2] == accuracy(qualities[2], first) - accuracy(60, first)
        assert (gradients[1] >= 0) == (qualities[1] >= 60)
        assert (gradients[2] == 0) == (qualities[2] == 60)
        assert (gradients[1] >= 0 and second < 200 // 3) == not_worse_on_cut_rung

        # every operator context of every iteration takes its parents from
        # the pool alone, or, planned ahead, from the pool and the finisher
        # scored on its prefix, and no context holds a raced-out edit
        raced_out = {"quality %d" % q for q in qualities[1:]}
        # iteration 2's operator replies do not parse, so it has no edit to
        # race and iteration 3's operators go in a batch of their own
        assert sorted(contexts) == [1, 2, 3] and len(aheads) == 1
        for base, pool, ctx, planning in (c for row in contexts.values() for c in row):
            if planning and aheads[planning - 1][3] is None:
                ahead_pool, finisher, record, _ = aheads[planning - 1]
                assert pool[:-1] == ahead_pool and pool[-1].prompt == finisher.prompt
                assert pool[-1].latest_score("f1") == record[0].f1
            assert ctx.sibling_candidates == tuple(pool)
            bodies = {c.prompt.section_by_id(sid).body for c in (base, *pool)
                      for sid in ("s0", "s1")}
            assert bodies.isdisjoint(raced_out)

        # a raced-out edit is never kept: no run file holds it
        texts = [p.read_text() for p in run_dir.rglob("*") if p.is_file()]
        assert not any(body in text for text in texts for body in raced_out)


class TestPipelinedOperators:
    """An iteration's operator requests go out at the end of the finish
    batch of the scoring before it, when that scoring raced: planned on
    each prompt that can be the next base, with pairs drawn from the matrix
    as it stood before that scoring's update. The plans of the base that
    wins are finished; the others' replies are dropped unread."""

    TRAIN = cls_dataset(200)

    def _run(self, tmp_path, backend, monkeypatch=None, **kw):
        cfg = small_config(**{**dict(iterations=4, beam_init=4, top_k=3, anneal_count=0,
                                     pairs_per_epoch=5, operators=MIXED_OPERATORS,
                                     output_dir=str(tmp_path)), **kw})
        trainer = _Trainer(cfg, self.TRAIN, [], base_template(), backend,
                           run_dir=tmp_path / "run")
        trainer.run()
        return trainer

    def test_no_operator_batch_after_a_raced_finish(self, tmp_path, monkeypatch):
        """On 200 examples at 64 slots every scoring races, the initial
        pool's included, so after the initial refine batch no batch holds
        operator requests alone, and every finish batch but the last
        iteration's carries the next iteration's, each request once. retain
        runs once per iteration, right after that iteration's finish."""
        import promptopt.engine as engine

        backend = Revoked(self.TRAIN, 64)
        retained_after = []  # the batches sent when each retain ran
        retain_ = engine.retain

        def spy(*args, **kwargs):
            retained_after.append(len(backend.batches))
            return retain_(*args, **kwargs)

        monkeypatch.setattr(engine, "retain", spy)
        trainer = self._run(tmp_path, backend)
        rows = trainer.report.iterations
        kinds = batch_kinds(backend.batches, self.TRAIN, [])
        assert "operator" not in [k for k, _, _ in kinds]
        assert [row["next_bases"] for row in rows] == [2, 2, 2, 0]
        assert rows[-1]["dropped_requests"] == 0
        # every iteration's operators ride the finish batch before it: the
        # initial pool's, then each iteration's but the last
        finishes = [b for k, b, _ in kinds if k == "whole set"]
        ahead = [(b, i) for k, b, i in kinds if k == "ahead"]
        assert [b for b, _ in ahead] == finishes[:-1] and len(ahead) == len(rows) == 4
        for b, i in ahead:
            assert len(set(backend.batches[b][i:])) == len(backend.batches[b]) - i
        assert retained_after == [b + 1 for b in finishes[1:]]

    @pytest.mark.parametrize("qualities, winner", [
        # the finisher (50) is worse than the base (60): the base stays
        ([50, 40, 30, 20, 91, 92, 93, 94, 81, 82, 83, 84], "base"),
        # the finisher (90) is better: it is the next base
        ([90, 40, 30, 20, 91, 92, 93, 94, 81, 82, 83, 84], "finisher"),
    ])
    def test_only_the_winning_base_plans_are_finished(self, tmp_path, monkeypatch,
                                                      qualities, winner):
        parsed = []
        parse = ops.parse_operator_response

        def spy_parse(op, raw, section_name):
            parsed.append(raw)
            return parse(op, raw, section_name)

        aheads = []
        plan_ahead = _Trainer._plan_ahead

        def spy_ahead(self, iteration, pool, base, finisher, record):
            ahead = plan_ahead(self, iteration, pool, base, finisher, record)
            aheads.append((base, finisher, dict(ahead.bases), ahead))
            return ahead

        class Sent(Planted):
            # Planted, keeping the text of every request, per batch
            def generate_batch(self, reqs):
                self.texts.append([r.messages[-1][1] for r in reqs])
                return super().generate_batch(reqs)

        monkeypatch.setattr(ops, "parse_operator_response", spy_parse)
        monkeypatch.setattr(_Trainer, "_plan_ahead", spy_ahead)
        backend = Sent(self.TRAIN, qualities, max_parallel=64)
        backend.texts = []
        trainer = self._run(tmp_path, backend, iterations=2, beam_init=1, pairs_per_epoch=4,
                            operators=("refine", "rewrite", "short_instruction"))
        # iteration 1 sends its operators alone (a pool of one template does
        # not race), then plans iteration 2 on the base and on the finisher
        [(base, finisher, bases, ahead)] = aheads
        assert len(bases) == 2 and len(ahead.replies) == len(ahead.requests)
        assert finisher.prompt.skeleton().count("quality %d" % qualities[0]) == 1
        kept = (base if winner == "base" else finisher).fingerprint
        positions = [i for at in bases[kept] if at for i in at]
        assert list(ahead.bases) == [kept]
        row1, row2 = trainer.report.iterations
        assert row1["next_bases"] == 2
        assert row1["dropped_requests"] == len(ahead.requests) - len(positions) > 0
        # iteration 2 finishes exactly the kept plans' replies, in pair order
        kept_replies = [ahead.replies[i].text for i in positions]
        assert parsed == parsed[:4] + kept_replies and len(kept_replies) == 4
        bodies = [json.loads(r.text)["body"] for r in ahead.replies]
        kept_bodies = {bodies[i] for i in positions}
        dropped = set(bodies) - kept_bodies
        assert dropped
        # and its race scores the prompts they made, and never one that a
        # dropped reply made
        [sent_ahead] = [b for b, texts in enumerate(backend.texts)
                        if len(texts) > len(ahead.requests)
                        and texts[-len(ahead.requests):] == [r.messages[-1][1]
                                                            for r in ahead.requests]]
        later = {q for texts in backend.texts[sent_ahead + 1:] for text in texts
                 for q in re.findall(r"quality \d+", text)}
        assert kept_bodies <= later and later.isdisjoint(dropped)
        assert len(row2["selections"]) == 4

    def test_the_last_iteration_sends_nothing_ahead(self, tmp_path):
        backend = Revoked(self.TRAIN, 64)
        trainer = self._run(tmp_path, backend, iterations=2)
        kinds = batch_kinds(backend.batches, self.TRAIN, [])
        *_, last_finish = [b for k, b, _ in kinds if k == "whole set"]
        assert last_finish == len(backend.batches) - 1
        assert not any(OPERATOR_TARGET.search(text) for text in backend.batches[last_finish])
        assert trainer.ahead is None
        assert trainer.report.iterations[-1]["next_bases"] == 0

    def test_a_run_that_converges_drops_what_it_sent_ahead(self, tmp_path, monkeypatch):
        """A run that stops at its convergence check before its last
        iteration has sent the next iteration's operator requests, all of
        them dropped."""
        monkeypatch.setattr("promptopt.engine.CONVERGENCE_WINDOW", 1)
        monkeypatch.setattr("promptopt.engine.CONVERGENCE_EPS", 2.0)
        backend = Revoked(self.TRAIN, 64)
        trainer = self._run(tmp_path, backend, iterations=4)
        [row] = trainer.report.iterations
        assert row["next_bases"] == 2
        sent = sum(bool(OPERATOR_TARGET.search(t)) for t in backend.batches[-1])
        assert row["dropped_requests"] == sent > 0
        assert trainer.ahead is None
        saved = json.loads((tmp_path / "run" / "iter_001" / "report.json").read_text())
        assert saved["iterations"][0]["dropped_requests"] == sent

    @pytest.mark.parametrize("n, pairs", [(99, 5), (200, 1)])
    def test_without_a_race_operators_go_alone(self, tmp_path, n, pairs):
        """A training set too short to race, or one edit per iteration,
        sends each iteration's operator requests in a batch of their own."""
        data = cls_dataset(n)
        backend = Revoked(data, 64)
        trainer = _Trainer(small_config(iterations=3, beam_init=1, top_k=3, anneal_count=0,
                                        pairs_per_epoch=pairs,
                                        operators=("refine", "rewrite", "short_instruction"),
                                        output_dir=str(tmp_path)),
                           data, [], base_template(), backend, run_dir=tmp_path / "run")
        trainer.run()
        kinds = [k for k, _, _ in batch_kinds(backend.batches, data, [])]
        assert "ahead" not in kinds
        assert kinds == ["init"] + ["operator", "whole set"] * 3
        assert all((row["next_bases"], row["dropped_requests"]) == (0, 0)
                   for row in trainer.report.iterations)

    def test_pairs_are_drawn_before_the_update_they_miss(self, tmp_path, monkeypatch):
        """Iteration t + 1's pairs are select_pairs on the matrix after
        iteration t - 1's update, with the run's rng as it stood at the draw,
        and they are the pairs iteration t + 1 edits."""
        import copy
        import random

        import promptopt.engine as engine

        draws, updates = [], []
        select, update = engine.select_pairs, engine.update_matrix

        def spy_select(m, count, rng, eligible=None):
            state = rng.getstate()
            pairs = select(m, count, rng, eligible=eligible)
            draws.append((copy.deepcopy(m), count, state, eligible, pairs))
            return pairs

        def spy_update(m, observations, cfg):
            m = update(m, observations, cfg)
            updates.append(copy.deepcopy(m.q))
            return m

        monkeypatch.setattr(engine, "select_pairs", spy_select)
        monkeypatch.setattr(engine, "update_matrix", spy_update)
        trainer = self._run(tmp_path, Revoked(self.TRAIN, 64), optimizer="msgd_rl")
        rows = trainer.report.iterations
        assert len(draws) == len(rows) == len(updates) == 4
        matrices = [draws[0][0].q] + updates
        assert len({json.dumps(q) for q in matrices}) == 5  # every update moved it
        for t, (m, count, state, eligible, pairs) in enumerate(draws, 1):
            # iteration t's pairs, drawn before iteration t - 1's finish
            assert m.q == matrices[max(t - 2, 0)]
            rng = random.Random()
            rng.setstate(state)
            assert select(m, count, rng, eligible=eligible) == pairs
            assert [(s["section"], s["operator"]) for s in rows[t - 1]["selections"]] == \
                [(p.section, p.operator) for p in pairs]


class TestOnePlan:
    """Every iteration finishes its operators from one plan (_Trainer._plan),
    whether it was sent ahead, on two possible bases, or alone, on the base.
    A base's entries hold, per pair, the positions of the requests its
    operator sends on that base, or None when it sends nothing."""

    TRAIN = cls_dataset(200)
    # every cell of the template's two editable sections is drawn: backend
    # operators with one request and with three, one that needs bad cases,
    # one that needs two parents, and local ones
    OPERATORS = ("refine", "reflect", "self_consistency", "diff_evolution", "cot", "merge")

    class Replying(MockBackend):
        """Records every batch and answers the request at position i with a
        body that every template-backed operator parses: "edit i"."""

        def __init__(self):
            super().__init__([], max_parallel=64)
            self.batches = []

        def generate_batch(self, reqs):
            self.batches.append(list(reqs))
            return [GenerationResponse(text=json.dumps({"Improved": "edit %d" % i}))
                    for i in range(len(reqs))]

    def _setup(self, tmp_path):
        cfg = small_config(iterations=2, top_k=3, anneal_count=0,
                           pairs_per_epoch=2 * len(self.OPERATORS), operators=self.OPERATORS,
                           output_dir=str(tmp_path))
        trainer = _Trainer(cfg, self.TRAIN, [], base_template(), LastLine(self.TRAIN, 64))
        base = Candidate(prompt=base_template())
        # the finisher edited s0 alone, so an operator on s1 may send the
        # same requests on either base
        finisher = replace(base, prompt=base.prompt.with_body("s0", "Label it A or B.")
                           ).with_edit(1, "s0", "refine")
        bases = []
        for cand in (base, finisher):
            scores, _ = trainer._score([cand], 1)[cand.fingerprint]
            bases.append((cand.with_score(1, scores), trainer.scored[cand.fingerprint][:2]))
        return trainer, bases

    @staticmethod
    def _plan_from(trainer, state, parents, bases):
        # _plan with the run's rng as it stood at `state`, so every plan
        # draws the same pairs
        trainer.rng.setstate(state)
        return trainer._plan(2, parents, bases)

    @staticmethod
    def _sent(ahead, fingerprint):
        # the requests at a base's positions, in pair order
        return [ahead.requests[i] for at in ahead.bases[fingerprint] if at for i in at]

    def test_each_base_holds_the_requests_its_own_plan_sends(self, tmp_path):
        trainer, bases = self._setup(tmp_path)
        parents = [cand for cand, _ in bases]
        state = trainer.rng.getstate()
        both = self._plan_from(trainer, state, parents, bases)
        assert len(both.pairs) == 2 * len(self.OPERATORS)
        entries = []
        for cand, record in bases:
            alone = self._plan_from(trainer, state, parents, [(cand, record)])
            assert alone.pairs == both.pairs
            assert list(alone.bases) == [cand.fingerprint]
            assert self._sent(both, cand.fingerprint) == alone.requests
            # a pair sends nothing on a base where it sends nothing alone
            assert [at is None for at in both.bases[cand.fingerprint]] == \
                [at is None for at in alone.bases[cand.fingerprint]]
            entries.append(both.bases[cand.fingerprint])
        # a pair whose requests are the same on both bases sends them once:
        # the two bases' ranges are equal or disjoint, and they tile the
        # requests
        ranges = {at for row in entries for at in row if at}
        shared = {at for at in entries[0] if at} & {at for at in entries[1] if at}
        assert shared and len(shared) < len(ranges)
        assert [i for at in sorted(ranges, key=lambda at: at.start) for i in at] == \
            list(range(len(both.requests)))

    def test_a_plan_alone_sends_and_finishes_what_apply_operators_does(self, tmp_path):
        trainer, bases = self._setup(tmp_path)
        parents = [cand for cand, _ in bases]
        for base, record in bases:
            alone = self._plan_from(trainer, trainer.rng.getstate(), parents, [(base, record)])
            jobs = [(pair.operator, trainer._context(pair, base, record, 2, parents, k))
                    for k, pair in enumerate(alone.pairs)]
            backend = self.Replying()
            results = ops.apply_operators(jobs, backend)
            [batch] = backend.batches
            assert batch == alone.requests
            # the loop of _iteration, on the replies to that batch
            alone.replies = backend.generate_batch(alone.requests)
            finished = [ops.plan_operator(op, ctx) if op in ops.LOCAL_OPERATORS
                        else None if at is None
                        else ops.finish_operator(op, ctx, [alone.replies[i] for i in at])
                        for (op, ctx), at in zip(jobs, alone.bases[base.fingerprint])]
            assert finished == results
            assert any(isinstance(r, MetaPrompt) for r in results) and None in results

    @pytest.mark.parametrize("parallel", [64, 1])
    def test_every_kept_base_was_planned(self, tmp_path, monkeypatch, parallel):
        """Every edit ties its base ("quality 60" is the template's own
        quality), so retain's order falls to lineage, then fingerprint:
        the base, one step shorter than the finisher, is the next base each
        time, and it is always one of the two planned."""
        import promptopt.engine as engine

        kept = []  # (the fingerprint kept, the bases planned)
        keep = engine._Ahead.keep

        def spy(self, fingerprint):
            kept.append((fingerprint, list(self.bases)))
            return keep(self, fingerprint)

        monkeypatch.setattr(engine._Ahead, "keep", spy)
        # nothing improves, so only the iteration budget ends the run
        monkeypatch.setattr(engine, "CONVERGENCE_WINDOW", 100)
        cfg = small_config(iterations=5, beam_init=1, top_k=3, anneal_count=0,
                           pairs_per_epoch=4,
                           operators=("refine", "rewrite", "short_instruction"),
                           output_dir=str(tmp_path))
        backend = Planted(self.TRAIN, [60] * 100, max_parallel=parallel)
        trainer = _Trainer(cfg, self.TRAIN, [], base_template(), backend,
                           run_dir=tmp_path / "run")
        trainer.run()
        rows = trainer.report.iterations
        assert len(rows) == 5 and all(row["best"] == rows[0]["best"] for row in rows)
        assert all(s["gradient"] == 0 for row in rows for s in row["selections"])
        assert len(kept) == 4
        base = Candidate(prompt=base_template()).fingerprint
        assert kept == [(base, [base, finisher]) for _, [_, finisher] in kept]


class TestScoreProperties:
    @given(k=st.integers(1, 300), uncut=st.integers(RACE_MIN_PREFIX, 3000),
           parallel=st.integers(1, 512))
    def test_first_rung_fills_whole_waves(self, k, uncut, parallel):
        cut = first_rung(uncut, k, parallel)
        assert 1 <= cut <= uncut
        if parallel == 1 or k * uncut < parallel:
            assert cut == uncut
            return
        # the longest prefix whose batch fits in the whole waves that k
        # prompts on the uncut prefix fill: no last wave goes out part-full
        waves = k * uncut // parallel
        assert k * cut <= waves * parallel < k * (cut + 1)
        if k <= parallel:
            assert -(-k * cut // parallel) == waves

    @given(data=st.data(), k=st.integers(1, 12), uncut=st.integers(RACE_MIN_PREFIX, 400),
           parallel=st.sampled_from([1, 2, 7, 16, 64, 100]))
    def test_first_rung_after_requests_were_sent(self, data, k, uncut, parallel):
        seen = data.draw(st.integers(0, uncut - 1))
        full = first_rung(uncut, k, parallel)
        cut = first_rung(uncut, k, parallel, seen)
        if not seen:
            assert cut == full
            return
        # the wave cut, or the uncut rung when that cut is not past `seen`
        top = full if full > seen else uncut
        assert seen < cut <= top

        def unsent(c):
            return k * max(0, c - seen)

        # brute force: the longest prefix whose unsent requests fit in the
        # whole waves (at least one) that the requests still due fill, but
        # one example past `seen` when not even one fits
        waves = max(1, k * (top - seen) // parallel)
        fits = max(c for c in range(top + 1) if unsent(c) <= waves * parallel)
        assert cut == max(fits, seen + 1)
        assert unsent(cut) <= max(k, waves * parallel)
        assert cut == top or unsent(cut + 1) > waves * parallel

    @given(k=st.integers(1, 12), uncut=st.integers(RACE_MIN_PREFIX, 400),
           parallel=st.integers(1, 128))
    def test_first_rung_with_nothing_sent(self, k, uncut, parallel):
        assert first_rung(uncut, k, parallel, 0) == first_rung(uncut, k, parallel)

    @given(data=st.data(), k=st.integers(1, 64), uncut=st.integers(1, 1000),
           parallel=st.integers(1, 512))
    def test_first_rung_closed_form_equals_the_loop(self, data, k, uncut, parallel):
        """For k prompts each sent the same s examples, first_rung's closed
        form gives the rung of the per-prompt loop."""
        s = data.draw(st.integers(0, uncut))
        assert first_rung(uncut, k, parallel, s) == \
            first_rung_by_loop(uncut, k, parallel, [s] * k)

    @given(n=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_uncut_rungs(self, n):
        """From 100 training examples on, the rungs before any wave cut are
        a ninth of the set but at least 25 examples, then the first third:
        the first is at most a quarter and shorter than the second. A
        smaller set does not race."""
        data = cls_dataset(n)
        trainer = _Trainer(small_config(), data, [], base_template(), Graded(data))
        if n < 100:
            assert trainer.rungs == ()
            return
        first, second = trainer.rungs
        assert (first, second) == (max(n // 9, 25), n // 3)
        assert first <= n // 4 and first < second

    def test_wave_cut_goes_below_the_min_prefix(self):
        """RACE_MIN_PREFIX bounds the uncut first rung alone: on 100
        examples, 5 prompts at 64 requests to a wave race on a first rung of
        12, whose 60 requests fill one wave where 5 * 25 would spill into a
        second."""
        data = cls_dataset(100)
        backend = Graded(data, max_parallel=64)
        trainer = _Trainer(small_config(), data, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(5)]
        assert trainer.rungs[0] == RACE_MIN_PREFIX == 25
        assert first_rung(trainer.rungs[0], 5, 64) == 12
        records = trainer._score(cands, 0)
        assert len(backend.calls[0]) == 5 * 12
        # three raced out on the first rung's cut, one on the second rung's
        # cut (2 * (32 - 12) requests, one wave), and one finished
        assert sorted(cut for _, cut in records.values()) == [12, 12, 12, 32, 100]

    @given(k=st.integers(3, 8), n=st.sampled_from([100, 150, 200, 401]),
           parallel=st.sampled_from([1, 2, 7, 16, 64]))
    @settings(max_examples=40, deadline=None)
    def test_half_rung_fills_whole_waves(self, k, n, parallel):
        """The second rung's prefix, for the ceil(k / 3) prompts left after
        the first rung: longer than the first rung, at most n // 3, exactly
        n // 3 at parallel 1, and when cut, its batch fits in the whole
        waves that the live prompts' requests still owed to the first third
        fill. Three prompts leave one, which finishes without a second
        rung."""
        examples = cls_dataset(n)
        backend = Graded(examples, max_parallel=parallel)
        trainer = _Trainer(small_config(), examples, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(k)]
        losers = {fp: (cut, scores["f1"]) for fp, (scores, cut)
                  in trainer._score(cands, 1).items() if cut < n}

        first = first_rung(uncut_first(n), k, parallel)
        live = -(-k // RACE_ETA)
        if live == 1:
            assert set(cut for cut, _ in losers.values()) == {first}
            assert [len(call) for call in backend.calls] == [k * first, n - first]
            return
        [second] = {cut for cut, _ in losers.values()} - {first}
        assert first < second <= n // 3
        if parallel == 1:
            assert second == n // 3
        assert second == first_rung(n // 3, live, parallel, first)
        rung2 = live * (second - first)
        if second < n // 3:
            owed = live * (n // 3 - first)
            assert -(-rung2 // parallel) <= max(1, owed // parallel)
        assert [len(call) for call in backend.calls] == [k * first, rung2, n - second]

    @given(n=st.integers(100, 4000), k=st.integers(2, 64), parallel=st.integers(1, 4096))
    @example(n=100, k=5, parallel=34)  # the second rung's wave cut, 17, is behind 20
    @example(n=100, k=4, parallel=23)  # and here it is at 23, the first rung's cut
    @settings(max_examples=1000)
    def test_each_rung_goes_past_the_one_before(self, n, k, parallel):
        """For the ceil(k / 3) of k prompts still live after the first rung,
        the second rung's cut goes past the first rung's and stays within
        its uncut prefix, wherever the wave cut of that prefix falls."""
        first = first_rung(uncut_first(n), k, parallel)
        assert 1 <= first <= uncut_first(n)
        assert first < first_rung(n // 3, -(-k // RACE_ETA), parallel, first) <= n // 3

    def test_second_rung_behind_the_first_races_uncut(self):
        """On 100 examples at 34 requests to a wave, 5 prompts race on a
        first rung of 20, and the wave cut of the second rung's 33 for the
        2 left is 17, behind it: the second rung goes out uncut, 2 * 13
        requests, so no judgement is sent or added twice."""
        data = cls_dataset(100)
        backend = Graded(data, max_parallel=34)
        trainer = _Trainer(small_config(), data, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(5)]
        assert first_rung(33, 2, 34) == 17
        records = trainer._score(cands, 0)
        assert [len(call) for call in backend.calls] == [100, 26, 67]
        assert sorted(cut for _, cut in records.values()) == [20, 20, 20, 33, 100]
        texts = [text for call in backend.calls for text, _ in call]
        assert len(set(texts)) == len(texts) == trainer.eval_requests
        [(_, _, judgements)] = trainer.scored.values()
        assert len(judgements) == len(data)

    @given(k=st.integers(2, 8), n=st.integers(100, 400), parallel=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_one_prompt_finishes(self, k, n, parallel):
        """Whatever the field, the set and the wave: exactly one prompt
        finishes, the first ranked on the last rung's prefix, ties going to
        the earlier prompt; every other prompt is scored on a rung's cut;
        and no (prompt, example) request is sent twice."""
        examples = cls_dataset(n)
        backend = Graded(examples, max_parallel=parallel)
        trainer = _Trainer(small_config(), examples, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(k)]
        by_fp = trainer._score(cands, 1)
        records = [by_fp[cand.fingerprint] for cand in cands]

        cuts = [cut for _, cut in records]
        [winner] = [i for i, cut in enumerate(cuts) if cut == n]
        assert list(trainer.scored) == [cands[winner].fingerprint]
        first = first_rung(uncut_first(n), k, parallel)
        live = [i for i, cut in enumerate(cuts) if cut != first]
        assert len(live) == -(-k // RACE_ETA)
        last = first
        if len(live) > 1:
            last = first_rung(n // 3, len(live), parallel, first)
        assert set(cuts) - {n} <= {first, last}
        # the winner's objective on the last rung's prefix, against every
        # prompt raced out there
        won = record_f1(trainer.scored[cands[winner].fingerprint], last)
        for i, (scores, cut) in enumerate(records):
            if cut == last:
                assert (won, -winner) > (scores["f1"], -i)

        texts = [text for call in backend.calls for text, _ in call]
        assert len(set(texts)) == len(texts) == trainer.eval_requests

    @given(k=st.integers(1, 6), n=st.sampled_from([99, 100, 150, 200, 401]),
           parallel=st.sampled_from([1, 7, 64]))
    @settings(max_examples=25, deadline=None)
    def test_successive_halving(self, k, n, parallel):
        data = cls_dataset(n)
        backend = Graded(data, max_parallel=parallel)
        trainer = _Trainer(small_config(), data, [], base_template(), backend)
        cands = [Candidate(prompt=make_prompt(
            ["Classify variant %d as A or B." % j, "", 'Return JSON: {"label": ""}'],
            editable=[True, True, False])) for j in range(k)]
        records = trainer._score(cands, 0)
        losers = {fp for fp, (_, cut) in records.items() if cut < n}
        # a race finishes one prompt; without one, each prompt finishes
        assert len(records) - len(losers) == (1 if trainer.rungs else k)
        assert trainer.eval_requests == halving_requests(k, n, parallel)
        assert sum(len(call) for call in backend.calls) == halving_requests(k, n, parallel)
        assert len(backend.calls) <= 3
        # one record per candidate; the finished ones are those in `scored`
        assert sorted(records) == sorted(cand.fingerprint for cand in cands)
        assert set(records) - losers == set(trainer.scored)
        assert len(trainer.scored) + len(losers) == k
        assert set(trainer.scored).isdisjoint(losers)
        for cand in cands:
            scores, cut = records[cand.fingerprint]
            if cand.fingerprint in losers:
                assert list(scores) == ["f1"]
                continue
            record = trainer.scored[cand.fingerprint]
            report, bad, judgements = record
            assert (scores, cut) == (
                {"precision": report.precision, "recall": report.recall, "f1": report.f1}, n)
            texts, expected = judged_alone(cand, data, Graded(data))
            predictions = [parse_prediction("CLS", text) for text in texts]
            assert (report, bad) == evaluate(cand, data, Graded(data), seed=0)
            assert judgements == tuple(expected)
            assert tuple(record_f1(record, c) for c in trainer.rungs) == tuple(
                f1_of(data[:c], predictions[:c]) for c in trainer.rungs)

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


def count_bad_case_parses(monkeypatch) -> tuple[list, list]:
    """Count the calls of parse_prediction, and record each call of the
    trainer's sample_bad_cases: its (texts, misses, cap, seed) and the raw
    replies parsed during it. Returns (parsed replies, sample calls)."""
    import promptopt.engine
    import promptopt.evaluation

    calls, samples = [], []
    parse = promptopt.evaluation.parse_prediction
    sample = promptopt.engine.sample_bad_cases

    def counted(task, raw):
        calls.append(raw)
        return parse(task, raw)

    def sampled(examples, texts, misses, cap=BAD_CASE_CAP, seed=0):
        before = len(calls)
        out = sample(examples, texts, misses, cap, seed)
        samples.append(((list(texts), list(misses), cap, seed), calls[before:]))
        return out

    monkeypatch.setattr(promptopt.evaluation, "parse_prediction", counted)
    monkeypatch.setattr(promptopt.engine, "sample_bad_cases", sampled)
    return calls, samples


class TestReplyMemo:
    def test_a_run_parses_a_training_reply_only_when_it_changes(self, tmp_path, monkeypatch):
        calls, samples = count_bad_case_parses(monkeypatch)
        data = cls_dataset(110)
        train_set, test_set = data[:100], data[100:]
        backend = Graded(data)
        cfg = small_config(iterations=3, beam_init=3, pairs_per_epoch=3,
                           operators=("refine", "rewrite"), output_dir=str(tmp_path))
        trainer = _Trainer(cfg, train_set, test_set, base_template(), backend)
        trainer.run()

        # replay the evaluation requests of the batches, passing over the
        # operator requests that a finish batch carries at its end: a
        # training example's reply is parsed when it differs from that
        # example's previous reply in the run, and each test example's reply
        # is parsed once
        last, expected, eval_requests = {}, 0, 0
        for text, reply in (item for call in backend.calls for item in call):
            if OPERATOR_TARGET.search(text):
                continue
            eval_requests += 1
            ex = next(ex for ex in data if ex.input in text)
            if ex in test_set:
                expected += 1
            elif last.get(ex.id) != reply:
                last[ex.id] = reply
                expected += 1
        # and each bad case sampled with the scoring's seed is parsed again
        bad_case_parses = []
        for (texts, misses, cap, seed), parsed in samples:
            if len(misses) > cap:
                misses = random.Random(seed).sample(misses, cap)
            assert parsed == [texts[i] for i in misses if texts[i] is not None]
            bad_case_parses += parsed
        assert bad_case_parses
        assert len(calls) == expected + len(bad_case_parses)
        assert expected < eval_requests
        # one slot per training example, holding its last reply and that
        # reply's judgement
        assert len(trainer.replies) == len(train_set) == len(last)
        for ex, (text, judgement) in zip(train_set, trainer.replies):
            assert text == last[ex.id]
            assert judgement == _judge(ex.task, ex.gold, parse_prediction(ex.task, text))

    def test_an_ner_run_keeps_texts_and_judgements_only(self, tmp_path, monkeypatch):
        """On NER, where a parsed prediction is a dict of span sets, every
        memo slot holds a reply text and its judgement, and each scoring
        parses only the replies it samples as bad cases."""
        calls, samples = count_bad_case_parses(monkeypatch)
        data = ner_dataset(130)
        train_set, test_set = data[:120], data[120:]
        backend = NerGraded(data, max_parallel=16)
        cfg = small_config(task="NER", iterations=3, beam_init=3, pairs_per_epoch=3,
                           operators=("refine", "rewrite"), output_dir=str(tmp_path))
        trainer = _Trainer(cfg, train_set, test_set, base_template(), backend)
        trainer.run()

        assert len(trainer.replies) == len(train_set)
        for ex, slot in zip(train_set, trainer.replies):
            assert isinstance(slot, list) and len(slot) == 2
            text, judgement = slot
            assert isinstance(text, str)
            assert judgement == _judge("NER", ex.gold, parse_prediction("NER", text))
        assert samples
        for (_, misses, cap, _), parsed in samples:
            assert cap == BAD_CASE_CAP
            assert len(parsed) == min(cap, len(misses))
        assert any(len(misses) > cap for (_, misses, cap, _), _ in samples)


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

        # replay the evaluation requests of the batches in (candidate,
        # example) order, passing over the operator requests that a finish
        # batch carries at its end: a training prediction is judged when its
        # example's reply differs from the previous one, and each test
        # prediction is judged once
        last, expected, eval_requests = {}, [], 0
        for text, reply in (item for call in backend.calls for item in call):
            if OPERATOR_TARGET.search(text):
                continue
            eval_requests += 1
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
    i, j = m.index(sec, op)
    m.q[i][j] = value
    return m
