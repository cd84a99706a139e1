"""Every name the benchmark's tracer patches is still bound in the program,
so a refactor that unbinds one fails here and not only in a traced
benchmark run."""

from pathlib import Path

from promptopt.backend import MockBackend

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    tracer = Tracer()
    try:
        install(tracer, MockBackend([]), None, [])
        assert tracer.missing == []
    finally:
        tracer.restore()
