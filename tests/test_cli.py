import json

import pytest

from promptopt import cli
from promptopt.backend import MockBackend
from promptopt.cli import main
from promptopt.errors import AuthError
from promptopt.msgd_rl import read_experience
from promptopt.prompt_model import load_template, save_template

from helpers import make_prompt


def cls_lines(n=12):
    return [
        {"id": "%02d" % i, "text": "item %02d please" % i,
         "label": "A" if i % 2 == 0 else "B"}
        for i in range(n)
    ]


def oracle_script(lines, wrong_ids=()):
    script = []
    for doc in lines:
        label = doc["label"]
        if doc["id"] in wrong_ids:
            label = "B" if label == "A" else "A"
        script.append({
            "match": {"contains": doc["text"]},
            "response": json.dumps({"label": label}),
        })
    script.append({"response": "pass"})
    return script


@pytest.fixture
def workspace(tmp_path):
    """A ready-to-train project directory: template, data, mock script, and
    config."""
    template = make_prompt(
        ["Classify the item as A or B.", "", 'Return JSON: {"label": ""}'],
        editable=[True, True, False],
    )
    save_template(template, tmp_path / "template.json")
    lines = cls_lines()
    data = "\n".join(json.dumps(d) for d in lines) + "\n"
    (tmp_path / "train.jsonl").write_text(data)
    (tmp_path / "test.jsonl").write_text(data)
    (tmp_path / "mock.json").write_text(
        json.dumps(oracle_script(lines, wrong_ids={"00"}))
    )
    config = {
        "iterations": 2,
        "beam_init": 1,
        "top_k": 2,
        "anneal_count": 1,
        "operators": ["refine", "cot", "few_shot"],
        "task": "CLS",
        "seed": 0,
        "output_dir": str(tmp_path / "runs"),
        "template": str(tmp_path / "template.json"),
        "train_data": str(tmp_path / "train.jsonl"),
        "test_data": str(tmp_path / "test.jsonl"),
        "mock_script": str(tmp_path / "mock.json"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config, indent=2))
    return tmp_path


class TestInit:
    def test_scaffold(self, tmp_path, capsys):
        out = tmp_path / "proj"
        code = main(["init", "--task", "NER", "--labels", "address", "book",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "config.json").read_text())
        assert doc["task"] == "NER"
        assert doc["backend"]["api_key_env_name"] == "PROMPTFLOW_API_KEY"
        template = load_template(out / "template.json")
        names = [s.name for s in template.ordered_sections()]
        assert names == ["task_description", "label:address", "label:book",
                         "few_shot", "output_format"]
        assert not template.section_by_id("output_format").editable

    def test_scaffolded_config_validates(self, tmp_path, capsys):
        out = tmp_path / "proj"
        main(["init", "--out", str(out)])
        assert main(["validate-config", "--config", str(out / "config.json")]) == 0


class TestValidateConfig:
    def test_ok(self, workspace, capsys):
        assert main(["validate-config", "--config", str(workspace / "config.json")]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_bad_value_exits_one(self, workspace, capsys):
        code = main(["validate-config", "--config", str(workspace / "config.json"),
                     "--set", "top_k=0"])
        assert code == 1
        assert "top_k" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main(["validate-config"]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_override_path(self, workspace, capsys):
        code = main(["validate-config", "--config", str(workspace / "config.json"),
                     "--set", "backend.nested.key=1"])
        assert code == 1

    def test_json_errors_machine_readable(self, workspace, capsys):
        code = main(["--json", "validate-config",
                     "--config", str(workspace / "config.json"),
                     "--set", "top_k=0"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestTrain:
    def test_train_run(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "config.json")])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["iterations_run"] >= 1
        assert summary["best_train_objective"] == pytest.approx(11 / 12, abs=1e-9)
        assert "wall clock" in captured.err
        run_dir = workspace / "runs"
        reports = list(run_dir.glob("*/report.json"))
        assert len(reports) == 1
        assert summary["run_dir"] in str(reports[0])

    def test_seed_flag_changes_run_dir(self, workspace, capsys):
        main(["train", "--config", str(workspace / "config.json")])
        first = json.loads(capsys.readouterr().out)["run_dir"]
        main(["train", "--config", str(workspace / "config.json"), "--seed", "9"])
        second = json.loads(capsys.readouterr().out)["run_dir"]
        assert first != second

    def test_auth_error_in_evaluation_exits_2(self, workspace, monkeypatch, capsys):
        class RevokedKey(MockBackend):
            def generate(self, req):
                if "please" in req.messages[-1][1]:  # in every evaluation request only
                    raise AuthError("HTTP 401")
                return super().generate(req)

        monkeypatch.setattr(cli, "build_backend",
                            lambda *args: RevokedKey.from_file(workspace / "mock.json"))
        assert main(["--json", "train", "--config", str(workspace / "config.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "AuthError"

    def test_auth_error_in_initialization_exits_2(self, workspace, monkeypatch, capsys):
        batches = []

        class RevokedForRefine(MockBackend):
            def generate(self, req):
                if '"Refine"' in req.messages[-1][1]:  # the refine template only
                    raise AuthError("HTTP 401")
                return super().generate(req)

            def generate_batch(self, reqs):
                batches.append(len(reqs))
                return super().generate_batch(reqs)

        monkeypatch.setattr(cli, "build_backend",
                            lambda *args: RevokedForRefine.from_file(workspace / "mock.json"))
        # the iterations would send no refine request of their own
        assert main(["--json", "train", "--config", str(workspace / "config.json"),
                     "--set", "beam_init=3", "--set", 'operators=["cot"]']) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "AuthError"
        assert batches == [3 * 2]  # the init batch: beam_init per editable section
        assert not list((workspace / "runs").glob("*/report.json"))

    def test_runs_with_different_train_files_keep_their_dirs(self, workspace, capsys):
        config = str(workspace / "config.json")
        assert main(["train", "--config", config]) == 0
        first = json.loads(capsys.readouterr().out)["run_dir"]
        lines = cls_lines(8)
        (workspace / "train.jsonl").write_text(
            "\n".join(json.dumps(d) for d in lines) + "\n")
        assert main(["train", "--config", config]) == 0
        second = json.loads(capsys.readouterr().out)["run_dir"]
        assert main(["train", "--config", config]) == 0
        again = json.loads(capsys.readouterr().out)["run_dir"]
        assert first != second == again
        reports = sorted((workspace / "runs").glob("*/report.json"))
        assert sorted(str(p.parent) for p in reports) == sorted([first, second])

    @pytest.mark.parametrize("backend, needle", [
        ({"base_url": "localhost:8000/v1"}, "base_url"),
        ({"max_parallel": 0}, "max_parallel"),
        ({"timeout_ms": "fast"}, "backend: "),
        ({"max_paralel": 4}, "backend: unknown config keys: ['max_paralel']"),
        ({"retry": {"max_attempt": 2}}, "backend: retry: unknown config keys"),
    ])
    def test_unusable_backend_exits_one_before_any_request(self, workspace, monkeypatch,
                                                           capsys, backend, needle):
        def no_request(self, req):
            raise AssertionError("request sent")

        monkeypatch.setattr(cli.HttpBackend, "generate", no_request)
        args = ["train", "--config", str(workspace / "config.json"),
                "--set", "mock_script=null", "--set", "backend=" + json.dumps(backend)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert main(["--json"] + args) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ConfigError" and needle in doc["message"]
        assert main(["validate-config"] + args[1:]) == 1
        assert not (workspace / "runs").exists()

    def test_config_without_template(self, workspace, capsys):
        doc = json.loads((workspace / "config.json").read_text())
        del doc["template"]
        path = workspace / "bare.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1

    def test_config_without_train_data(self, workspace, capsys):
        doc = json.loads((workspace / "config.json").read_text())
        del doc["train_data"]
        path = workspace / "bare.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config must set 'train_data'\n"

    @pytest.mark.parametrize("script, needle", [
        ([{"match": {}}], 'entry 0: "response" must be a string'),
        ([{"response": "ok"}, {"response": 7}], 'entry 1: "response" must be a string'),
        ([{"response": "ok"}, "pass"], "entry 1 is not an object"),
        ([{"match": "pass", "response": "ok"}], 'entry 0: "match" is not an object'),
        ({"response": "pass"}, "must be a list"),
        ([{"response": "ok"}, {"match": {"contains": 5}, "response": "x"}],
         'entry 1: "contains" must be a string'),
        ([{"match": {"contain": "item"}, "response": "x"}], 'entry 0: unknown "match" key'),
        ([{"match": {"index": -1}, "response": "x"}], 'entry 0: "index" must be'),
    ])
    def test_malformed_mock_script_exits_one(self, workspace, capsys, script, needle):
        (workspace / "mock.json").write_text(json.dumps(script))
        for cmd in ("train", "validate-config"):
            assert main([cmd, "--config", str(workspace / "config.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: backend: mock script ") and needle in err
        assert not (workspace / "runs").exists()

    def test_removed_rag_operator_exits_one_before_any_request(self, workspace, monkeypatch,
                                                               capsys):
        def no_request(self, req):
            raise AssertionError("request sent")

        monkeypatch.setattr(MockBackend, "generate", no_request)
        for cmd in ("train", "validate-config"):
            args = [cmd, "--config", str(workspace / "config.json"),
                    "--set", 'operators=["refine", "rag"]']
            assert main(args) == 1
            assert capsys.readouterr().err == "error: unknown operator 'rag'\n"
        assert not (workspace / "runs").exists()

    @pytest.mark.parametrize("override, needle", [
        ("reward_mode=per-pair", "reward_mode must be mean or per_pair"),
        ("msgd_update_mode=exponential", "msgd_update_mode must be"),
        ("few_shot_strategy=random", "few_shot_strategy must be"),
        ('operators=["cot", "refine", "cot"]', "duplicate operator 'cot'"),
        ("few_shot_k=-1", "few_shot_k must be >= 0"),
        ("pairs_per_epoch=-1", "pairs_per_epoch must be >= 0"),
        ("few_shot_k=abc", 'few_shot_k must be an integer, not "abc"'),
        ("top_k=2.5", "top_k must be an integer, not 2.5"),
        ("iterations=true", "iterations must be an integer, not true"),
        ("learning_rate_alpha=true", "learning_rate_alpha must be a number"),
        ('operators="refine"', 'operators must be a list of strings, not "refine"'),
        ("anneal_temperature_start=0", "anneal_temperature_start must be positive"),
        ("anneal_temperature_decay=0", "anneal_temperature_decay must be in (0, 1]"),
        ("seed=-1", "seed must be >= 0"),
        ("operator_temperature=NaN", "operator_temperature must be >= 0 and finite"),
        ("learning_rate_alpha=Infinity", "learning_rate_alpha must be positive and finite"),
    ])
    def test_bad_config_value_exits_one_before_any_request(self, workspace, monkeypatch,
                                                          capsys, override, needle):
        def no_request(self, req):
            raise AssertionError("request sent")

        monkeypatch.setattr(MockBackend, "generate", no_request)
        for cmd in ("train", "validate-config"):
            assert main([cmd, "--config", str(workspace / "config.json"),
                         "--set", override]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err
        assert not (workspace / "runs").exists()

    def test_empty_training_set_exits_two_before_any_request(self, workspace, monkeypatch,
                                                             capsys):
        sent = []
        generate = MockBackend.generate

        def counting(self, req):
            sent.append(req)
            return generate(self, req)

        monkeypatch.setattr(MockBackend, "generate", counting)
        (workspace / "train.jsonl").write_text("")
        # beam_init 4 would send 4 refine requests per editable section first
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", "beam_init=4"]) == 2
        assert capsys.readouterr().err == "error: the training set is empty\n"
        assert sent == []
        assert not (workspace / "runs").exists()

    @pytest.mark.parametrize("line, needle", [
        ('{"text": "item 99", "label": "A"', "line 3: not valid JSON"),
        ('{"label": "A"}', "line 3: missing field 'text'"),
        ('["item 99", "A"]', "line 3: not a JSON object"),
    ])
    def test_malformed_dataset_line_exits_two(self, workspace, monkeypatch, capsys,
                                              line, needle):
        def no_request(self, req):
            raise AssertionError("request sent")

        monkeypatch.setattr(MockBackend, "generate", no_request)
        lines = [json.dumps(d) for d in cls_lines(2)] + [line]
        (workspace / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(workspace / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s " % (workspace / "test.jsonl")) and needle in err
        assert not (workspace / "runs").exists()


class TestEvaluate:
    def test_oracle_scores_clean_subset(self, workspace, capsys):
        # drop the one deliberately wrong line so the oracle is perfect
        lines = [json.dumps(d) for d in cls_lines() if d["id"] != "00"]
        clean = workspace / "clean.jsonl"
        clean.write_text("\n".join(lines) + "\n")
        code = main(["evaluate",
                     "--prompt", str(workspace / "template.json"),
                     "--dataset", str(clean),
                     "--task", "CLS",
                     "--mock-script", str(workspace / "mock.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["f1"] == pytest.approx(1.0)
        assert out["bad_case_count"] == 0

    def test_ner_span_past_the_text_exits_two(self, tmp_path, capsys):
        save_template(make_prompt(["Find names.", "{{Input}}"]), tmp_path / "p.json")
        rows = [{"text": "Anna went home", "label": {"name": {"Anna": [[0, 4]]}}},
                {"text": "Bob", "label": {"name": {"Bob": [[0, 9]]}}}]
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        (tmp_path / "mock.json").write_text(json.dumps([{"response": "{}"}]))
        code = main(["evaluate", "--prompt", str(tmp_path / "p.json"),
                     "--dataset", str(data), "--task", "NER",
                     "--mock-script", str(tmp_path / "mock.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s line 2: bad span (0,9)" % data)

    def test_non_string_label_exits_two(self, workspace, capsys):
        lines = [json.dumps(d) for d in cls_lines(2)] + ['{"text": "item 99", "label": 7}']
        data = workspace / "bad.jsonl"
        data.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--prompt", str(workspace / "template.json"),
                     "--dataset", str(data), "--task", "CLS",
                     "--mock-script", str(workspace / "mock.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith('error: %s line 3: "label" must be a string, not 7' % data)

    def test_wrong_case_reported(self, workspace, capsys):
        code = main(["evaluate",
                     "--prompt", str(workspace / "template.json"),
                     "--dataset", str(workspace / "train.jsonl"),
                     "--task", "CLS",
                     "--mock-script", str(workspace / "mock.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["f1"] == pytest.approx(11 / 12)
        assert out["bad_case_count"] == 1


class TestReportAndExperience:
    @pytest.fixture
    def finished_run(self, workspace, capsys):
        main(["train", "--config", str(workspace / "config.json")])
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        return workspace, run_dir

    def test_report(self, finished_run, capsys):
        workspace, run_dir = finished_run
        assert main(["report", run_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] >= 1
        csv_text = (workspace / "runs").glob("*/summary.csv")
        assert any(p.read_text().startswith("iteration,") for p in csv_text)

    def test_report_counts_evaluation_requests_and_raced_out_edits(self, workspace, capsys):
        lines = cls_lines(100)
        data = "\n".join(json.dumps(d) for d in lines) + "\n"
        (workspace / "train.jsonl").write_text(data)
        (workspace / "mock.json").write_text(json.dumps(oracle_script(lines)))
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", 'operators=["cot", "few_shot"]']) == 0
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        assert main(["report", run_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = json.loads((workspace / run_dir / "report.json").read_text())["iterations"]
        # two edits in the first iteration: both on the first quarter, one
        # of them on the rest
        assert [s["raced_out"] for s in rows[0]["selections"]] == [False, True]
        assert rows[0]["eval_requests"] == 2 * 25 + 75
        assert out["eval_requests"] == sum(r["eval_requests"] for r in rows)
        assert out["raced_out"] == sum(s["raced_out"] for r in rows for s in r["selections"])

    def test_report_says_what_each_gradient_was_measured_on(self, workspace, capsys):
        lines = cls_lines(100)
        data = "\n".join(json.dumps(d) for d in lines) + "\n"
        (workspace / "train.jsonl").write_text(data)
        # four distinct initial variants: beam_init refine replies per editable
        # section, served in order
        variants = [{"response": json.dumps({name: "%s v%d" % (name, i)})}
                    for name in ("s0", "s1") for i in range(4)]
        script = oracle_script(lines, wrong_ids={"00"})
        (workspace / "mock.json").write_text(json.dumps(script[:-1] + variants + script[-1:]))
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", "beam_init=4", "--set", 'operators=["cot", "few_shot"]']) == 0
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        assert main(["report", run_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        doc = json.loads((workspace / run_dir / "report.json").read_text())
        # the pool raced: 4 prompts on 25 examples, 2 on the next 25, 1 on 50
        assert doc["init_eval_requests"] == out["init_eval_requests"] == 4 * 25 + 2 * 25 + 50
        first = doc["iterations"][0]["selections"]
        assert [(s["raced_out"], s["scored_on"]) for s in first] == [(False, 100), (True, 25)]
        for row in doc["iterations"]:
            for s in row["selections"]:
                assert s["raced_out"] == (s["scored_on"] in (25, 50))
                assert s["scored_on"] in (0, 25, 50, 100)

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost")]) == 1

    def test_experience_export_import(self, finished_run, capsys):
        workspace, run_dir = finished_run
        exported = workspace / "exp.json"
        assert main(["experience-export", "--run-dir", run_dir,
                     "--out", str(exported), "--task", "CLS"]) == 0
        store = read_experience(exported)
        assert store.task_kind == "CLS"
        assert store.epochs_trained >= 1
        installed = workspace / "installed.json"
        assert main(["experience-import", "--file", str(exported),
                     "--out", str(installed)]) == 0
        assert read_experience(installed).matrix.sections == store.matrix.sections

    def test_experience_export_rejects_an_unknown_task(self, tmp_path, capsys):
        exported = tmp_path / "exp.json"
        with pytest.raises(SystemExit) as info:
            main(["experience-export", "--run-dir", str(tmp_path), "--out", str(exported),
                  "--task", "cls"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not exported.exists()

    def test_import_rejects_corrupt(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        doc = ('{"version": 1, "sections": ["s0"], "operators": ["cot", "refine"], '
               '"q": [[%s, 0.5]]}')
        for text in ("{nope", doc % "NaN", doc % "Infinity", doc % "-Infinity"):
            bad.write_text(text)
            assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: cannot read experience file")
            assert not out.exists()
        bad.write_text(doc % "0.5")
        assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 0
        assert out.exists()
