import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import promptopt
from promptopt import cli
from promptopt.backend import MockBackend
from promptopt.cli import main
from promptopt.errors import AuthError
from promptopt.evaluation import BAD_CASE_CAP
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


@pytest.fixture
def sent(monkeypatch):
    """Every request a MockBackend serves, in order."""
    requests = []
    generate = MockBackend.generate

    def counting(self, req):
        requests.append(req)
        return generate(self, req)

    monkeypatch.setattr(MockBackend, "generate", counting)
    return requests


def write_config(workspace, **changes):
    """Rewrite the workspace's config.json with `changes` applied."""
    path = workspace / "config.json"
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc, indent=2))
    return path


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

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'\xff\xfe{"task": "CLS"}')
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config %s is not UTF-8 text" % path)
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("key, value", [
        ("template", 123),
        ("train_data", ["a"]),
        ("train_data", 0),
        ("test_data", 5),
        ("mock_script", 7),
    ])
    def test_mistyped_input_key_exits_one_before_any_file_is_read(
            self, workspace, monkeypatch, capsys, key, value):
        def no_request(self, req):
            raise AssertionError("request sent")

        monkeypatch.setattr(MockBackend, "generate", no_request)
        monkeypatch.setattr(cli.HttpBackend, "generate", no_request)
        path = write_config(workspace, **{key: value})
        for cmd in ("validate-config", "train"):
            assert main([cmd, "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: %s must be a string or null, not %s\n" % (key, json.dumps(value)))
        assert not (workspace / "runs").exists()

    def test_train_data_zero_does_not_read_stdin(self, workspace):
        # the number 0 once opened file descriptor 0 and trained on standard input
        path = write_config(workspace, train_data=0)
        env = dict(os.environ, PYTHONPATH=str(Path(promptopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from promptopt.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "train", "--config", str(path)],
            input=json.dumps(cls_lines(1)[0]) + "\n", env=env, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "error: train_data must be a string or null, not 0\n"
        assert not (workspace / "runs").exists()

    def test_labels_is_an_unknown_key(self, workspace, capsys):
        path = write_config(workspace, labels=["A", "B"])
        for cmd in ("validate-config", "train"):
            assert main([cmd, "--config", str(path)]) == 1
            assert capsys.readouterr().err == "error: unknown config keys: ['labels']\n"
        assert not (workspace / "runs").exists()

    def test_config_that_is_not_an_object_exits_one(self, workspace, capsys):
        path = workspace / "list.json"
        path.write_text("[1]")
        for cmd in ("validate-config", "train"):
            assert main([cmd, "--config", str(path)]) == 1
            assert capsys.readouterr().err == "error: config %s is not a JSON object\n" % path

    def test_null_input_key_is_unset(self, workspace, capsys):
        path = write_config(workspace, test_data=None, mock_script=None, backend=None)
        assert main(["validate-config", "--config", str(path)]) == 0
        capsys.readouterr()
        argv = ["train", "--config", str(path), "--mock-script", str(workspace / "mock.json")]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_test_objective"] is None
        # a null key names the same run as a missing one
        doc = json.loads(path.read_text())
        for key in ("test_data", "mock_script", "backend"):
            del doc[key]
        path.write_text(json.dumps(doc))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["run_dir"] == summary["run_dir"]
        write_config(workspace, template=None)
        assert main(["train", "--config", str(workspace / "config.json")]) == 1
        assert capsys.readouterr().err == "error: config must set 'template'\n"

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

    @pytest.mark.parametrize("placeholders, needle", [
        ("", "placeholder '{{Input}}' not found in prompt"),
        ("{{Input}} {{Input}}", "placeholder '{{Input}}' occurs 2 times"),
    ])
    def test_template_without_one_placeholder_exits_two_before_any_request(
            self, workspace, sent, capsys, placeholders, needle):
        path = workspace / "template.json"
        # the last section's body ends in the placeholder
        path.write_text(path.read_text().replace('\\n{{Input}}"', '\\n%s"' % placeholders))
        # beam_init 4 would send 4 refine requests per editable section first
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", "beam_init=4"]) == 2
        assert capsys.readouterr().err == "error: %s\n" % needle
        assert sent == []
        assert not (workspace / "runs").exists()

    def test_experience_out_in_a_missing_directory_exits_two_before_any_request(
            self, workspace, sent, capsys):
        out = workspace / "nodir" / "exp.json"
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", "experience_out=%s" % out]) == 2
        assert capsys.readouterr().err == (
            "error: experience_out %s: directory %s does not exist\n" % (out, out.parent))
        assert sent == []
        assert not (workspace / "runs").exists()
        assert not out.parent.exists()

    def test_experience_out_that_is_a_directory_exits_two_before_any_request(
            self, workspace, sent, capsys):
        out = workspace / "adir"
        out.mkdir()
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--set", "experience_out=%s" % out]) == 2
        assert capsys.readouterr().err == "error: experience_out %s is a directory\n" % out
        assert sent == []
        assert not (workspace / "runs").exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fraction, kept", [(0.25, 3), (0.3, 4), (0.5, 6), (1.0, 12)])
    def test_eval_fraction_sends_only_the_first_training_examples(
            self, workspace, sent, fraction, kept):
        """A run sends only the first max(1, round(n * eval_fraction)) of
        the n training examples, in evaluations and few-shot samples alike."""
        config = write_config(workspace, test_data=None, eval_fraction=fraction)
        assert main(["train", "--config", str(config)]) == 0
        seen = {m for req in sent for _, text in req.messages
                for m in re.findall(r"item (\d\d) please", text)}
        assert seen == {"%02d" % i for i in range(kept)}

    @pytest.mark.parametrize("q, needle", [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
         "cannot read experience file %s: q has no mass: every cell is 0"),
        # only the non-editable section's cells have mass
        ([[0, 0, 0], [0, 0, 0], [1, 1, 1]],
         "the matrix has no mass on the editable sections' cells"),
    ])
    def test_zero_mass_experience_exits_two_before_any_request(self, workspace, monkeypatch,
                                                               capsys, q, needle):
        sent = []
        generate = MockBackend.generate

        def counting(self, req):
            sent.append(req)
            return generate(self, req)

        monkeypatch.setattr(MockBackend, "generate", counting)
        experience = workspace / "experience.json"
        experience.write_text(json.dumps({
            "version": 1, "task_kind": "CLS", "sections": ["s0", "s1", "s2"],
            "operators": ["refine", "cot", "few_shot"], "q": q}))
        config = write_config(workspace, experience_in=str(experience), beam_init=2)
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % (
            needle % experience if "%s" in needle else needle)
        assert sent == []
        assert not (workspace / "runs").exists()

    def test_warm_start_with_fewer_cells_with_mass_than_pairs(self, workspace, capsys):
        """Each iteration draws as many pairs as there are editable cells with
        mass, here one, when that is fewer than pairs_per_epoch."""
        experience = workspace / "experience.json"
        experience.write_text(json.dumps({
            "version": 1, "task_kind": "CLS", "sections": ["s0", "s1", "s2"],
            "operators": ["refine", "cot", "few_shot"],
            "q": [[0, 0, 0], [0, 1, 0], [1, 1, 1]]}))
        config = write_config(workspace, experience_in=str(experience), beam_init=2,
                              pairs_per_epoch=2)
        assert main(["train", "--config", str(config)]) == 0
        report = json.loads(Path(json.loads(capsys.readouterr().out)["run_dir"],
                                 "report.json").read_text())
        assert [[(s["section"], s["operator"]) for s in row["selections"]]
                for row in report["iterations"]] == [[("s1", "cot")]] * 2

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

    def test_a_mock_script_serves_one_request_at_a_time(self, workspace):
        # whatever backend.max_parallel says, so a scripted run races on the
        # uncut first rung of the training set
        doc = json.loads((workspace / "config.json").read_text())
        doc["backend"] = {"max_parallel": 64}
        _, inputs = cli.split_config(doc)
        assert inputs.mock_script and inputs.backend.max_parallel == 64
        assert cli.build_backend(inputs).max_parallel == 1


class TestBackendIsClosed:
    """train and evaluate close the backend when they end, also on an error."""

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("revoked, code", [(False, 0), (True, 2)])
    def test_closed(self, workspace, monkeypatch, command, revoked, code):
        closed = []

        class Closing(MockBackend):
            def generate(self, req):
                if revoked and "please" in req.messages[-1][1]:
                    raise AuthError("HTTP 401")
                return super().generate(req)

            def close(self):
                closed.append(True)

        monkeypatch.setattr(cli, "build_backend",
                            lambda *args: Closing.from_file(workspace / "mock.json"))
        argv = [command, "--config", str(workspace / "config.json")]
        if command == "evaluate":
            argv += ["--prompt", str(workspace / "template.json"),
                     "--dataset", str(workspace / "test.jsonl")]
        assert main(argv) == code
        assert closed == [True]


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

    def test_template_that_is_not_utf8_exits_two(self, workspace, capsys):
        path = workspace / "latin1.json"
        path.write_bytes(b'\xff{"sections": []}')
        code = main(["evaluate", "--prompt", str(path),
                     "--dataset", str(workspace / "train.jsonl"), "--task", "CLS",
                     "--mock-script", str(workspace / "mock.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: template %s is not UTF-8 text" % path)
        assert err.count("\n") == 1

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

    def test_every_wrong_case_counted(self, workspace, capsys):
        """More misses than BAD_CASE_CAP: the count is every example that is
        not exactly right, not the size of the bad-case sample."""
        lines = cls_lines(40)
        wrong = {d["id"] for d in lines[:BAD_CASE_CAP + 10]}
        (workspace / "d.jsonl").write_text("\n".join(json.dumps(d) for d in lines) + "\n")
        (workspace / "wrong.json").write_text(json.dumps(oracle_script(lines, wrong)))
        code = main(["evaluate", "--prompt", str(workspace / "template.json"),
                     "--dataset", str(workspace / "d.jsonl"), "--task", "CLS",
                     "--mock-script", str(workspace / "wrong.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["support"] == 40
        assert out["f1"] == pytest.approx(10 / 40)
        assert out["bad_case_count"] == BAD_CASE_CAP + 10 == 30


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
        # two edits in the first iteration: both on the first 25 examples,
        # one of them on the rest
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
        # the pool raced: 4 prompts on 25 examples, 2 on the next 8, 1 on 67
        assert doc["init_eval_requests"] == out["init_eval_requests"] == 4 * 25 + 2 * 8 + 67
        first = doc["iterations"][0]["selections"]
        assert [(s["raced_out"], s["scored_on"]) for s in first] == [(False, 100), (True, 25)]
        for row in doc["iterations"]:
            for s in row["selections"]:
                assert s["raced_out"] == (s["scored_on"] in (25, 33))
                assert s["scored_on"] in (0, 25, 33, 100)

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

    def test_latest_checkpoint_is_the_highest_iteration(self, tmp_path, capsys):
        # iter_1000 sorts before iter_999 as a string
        for n, q in ((999, 0.25), (1000, 0.75)):
            it_dir = tmp_path / ("iter_%03d" % n)
            it_dir.mkdir()
            (it_dir / "matrix.json").write_text(
                '{"sections": ["s0"], "operators": ["cot"], "q": [[%s]]}' % q)
            rows = [{"iteration": i, "best": 0.5, "mean": 0.5, "selections": []}
                    for i in range(1, n + 1)]
            (it_dir / "report.json").write_text(json.dumps({"iterations": rows}))
        exported = tmp_path / "exp.json"
        assert main(["experience-export", "--run-dir", str(tmp_path),
                     "--out", str(exported)]) == 0
        assert read_experience(exported).matrix.q == [[0.75]]
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 1000

    @pytest.mark.parametrize("text, needle", [
        ('{"sections": ["s0"], "operators": ["cot"], "q": [[-0.5]]}',
         "q entries must be nonnegative"),
        ("{nope", "Expecting property name"),
        ('{"sections": ["s0"], "operators": ["cot"]}', "'q'"),
        ('{"sections": [1, 2], "operators": ["cot"], "q": [[0.5], [0.5]]}',
         "section labels must be strings"),
        ('{"sections": ["s0"], "operators": [null], "q": [[0.5]]}',
         "operator labels must be strings"),
    ], ids=["negative-cell", "not-json", "no-q", "number-sections", "null-operator"])
    def test_experience_export_rejects_a_corrupt_matrix(self, tmp_path, capsys, text, needle):
        (tmp_path / "iter_000").mkdir()
        matrix = tmp_path / "iter_000" / "matrix.json"
        matrix.write_text(text)
        exported = tmp_path / "exp.json"
        assert main(["experience-export", "--run-dir", str(tmp_path),
                     "--out", str(exported)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read matrix file %s: " % matrix) and needle in err
        assert not exported.exists()

    @pytest.mark.parametrize("text, needle", [
        ("[1]", "'list' object has no attribute 'get'"),
        ('{"iterations": [{"iteration": 0, "best": 0.5, "mean": 0.5}]}', "'selections'"),
        ('{"iterations": 5}', "not iterable"),
        ('{"iterations": [{"iteration": 0, "best": 0.5, "mean": 0.5, "selections": [1]}]}',
         "not subscriptable"),
        ("{nope", "Expecting property name"),
    ], ids=["list", "no-selections", "number-iterations", "number-selection", "not-json"])
    def test_report_rejects_a_corrupt_report(self, tmp_path, capsys, text, needle):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read report file %s: " % report) and needle in err
        assert not (tmp_path / "summary.csv").exists()

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

    @pytest.mark.parametrize("value", ["true", "1.0", '"1"', "null", "2"])
    def test_import_rejects_a_version_that_is_not_the_integer_one(self, tmp_path, capsys,
                                                                  value):
        bad = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        bad.write_text('{"version": %s, "sections": ["s0"], "operators": ["cot"], '
                       '"q": [[0.5]]}' % value)
        assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unsupported experience version %s\n" % value
        assert not out.exists()

    def test_import_rejects_a_matrix_without_mass(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        bad.write_text('{"version": 1, "sections": ["s0"], "operators": ["cot", "refine"], '
                       '"q": [[0, 0.0]]}')
        assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read experience file %s: q has no mass: every cell is 0\n" % bad)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["task_kind", "created_at", "updated_at"])
    def test_import_rejects_a_text_field_that_is_not_a_string(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        bad.write_text('{"version": 1, "sections": ["s0"], "operators": ["cot"], '
                       '"q": [[0.5]], "%s": [1]}' % key)
        assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot read experience file %s: %s must be a string, not [1]" % (bad, key))
        assert not out.exists()

    @pytest.mark.parametrize("value", ['"x"', "-1", "1.5", "true", "null"])
    def test_import_rejects_a_bad_epoch_count(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        bad.write_text('{"version": 1, "sections": ["s0"], "operators": ["cot"], '
                       '"q": [[0.5]], "epochs_trained": %s}' % value)
        assert main(["experience-import", "--file", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot read experience file %s: epochs_trained must be a "
            "non-negative integer, not %s" % (bad, value))
        assert not out.exists()
