import json
import os

import pytest

from promptopt import engine
from promptopt.backend import MockBackend
from promptopt.evaluation import ExampleRecord
from promptopt.fileio import write_text_atomic
from promptopt.matrix import init_uniform, save_matrix
from promptopt.msgd_rl import ExperienceStore, save_experience

from helpers import make_prompt

OLD = "previous contents\n"


def fail_encoding(monkeypatch, path):
    return "x" * 100_000 + "\ud800"  # a lone surrogate cannot be encoded


def fail_fsync(monkeypatch, path):
    def fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fsync)
    return "new contents\n"


def fail_replace(monkeypatch, path):
    """Make moving a file over `path` fail; other moves still work."""
    replace = os.replace

    def failing_replace(src, dst):
        if os.fspath(dst) == os.fspath(path):
            raise OSError("cannot replace %s" % dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    return "new contents\n"


def write_report(tmp_path, path):
    cfg = engine.RunConfig(iterations=1, beam_init=1, operators=("cot",), task="CLS")
    train_set = [ExampleRecord("0", "CLS", "x", "A")]
    trainer = engine._Trainer(cfg, train_set, [], make_prompt(["x"]), MockBackend([]),
                              run_dir=tmp_path)
    trainer.report.iterations.append(
        {"iteration": 1, "best": 0.5, "mean": 0.25, "selections": []})
    trainer._write_report()


# each writer of run, checkpoint and experience files, and a file it writes
WRITERS = {
    "save_matrix": ("m.json", lambda tmp_path, path: save_matrix(
        init_uniform(("a", "b"), ("cot", "refine")), path)),
    "save_experience": ("e.json", lambda tmp_path, path: save_experience(
        ExperienceStore.new(init_uniform(("a",), ("cot",)), "CLS", 1), path)),
    "_write_json": ("r.json", lambda tmp_path, path: engine._write_json(path, {"k": [1]})),
    "report.csv": ("report.csv", write_report),
}


def temp_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


class TestWriteTextAtomic:
    def test_bytes_as_given(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(OLD, encoding="utf-8")
        write_text_atomic(path, "a\r\nb\n张三\n")
        assert path.read_bytes() == "a\r\nb\n张三\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["f.txt"]

    @pytest.mark.parametrize("failure", [fail_encoding, fail_fsync, fail_replace])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "f.txt"
        path.write_text(OLD, encoding="utf-8")
        text = failure(monkeypatch, path)
        with pytest.raises((OSError, UnicodeEncodeError)):
            write_text_atomic(path, text)
        assert path.read_text(encoding="utf-8") == OLD
        assert os.listdir(tmp_path) == ["f.txt"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
class TestWriters:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        name, write = WRITERS[writer]
        path = tmp_path / name
        path.write_text(OLD, encoding="utf-8")
        fail_replace(monkeypatch, path)
        with pytest.raises(OSError):
            write(tmp_path, path)
        assert path.read_text(encoding="utf-8") == OLD
        assert temp_files(tmp_path) == []

    def test_bytes(self, tmp_path, writer):
        name, write = WRITERS[writer]
        path = tmp_path / name
        write(tmp_path, path)
        data = path.read_bytes()
        if writer == "report.csv":  # csv rows end in \r\n
            assert data == b"iteration,best,mean,count_cot\r\n1,0.500000,0.250000,0\r\n"
        else:
            assert data.endswith(b"}\n") and b"\r" not in data
            json.loads(data)
        assert temp_files(tmp_path) == []
