"""Every name the benchmark's tracer patches is still bound in the program,
so a refactor that unbinds one fails here and not only in a traced
benchmark run. A name that stays bound but that training no longer calls
is caught by the second test, which lists every such name with its
reason."""

from pathlib import Path

import promptopt.engine
from promptopt.backend import MockBackend
from promptopt.engine import RunConfig

from test_run_golden import CASES, Repeating, template

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# patched names that neither traced golden run below reaches, and why
NEVER_CALLED = {
    "evaluation:score": "training and `evaluate` score through evaluation.Tally",
    "msgd_rl:rl_epoch": "training applies Sarsa through engine.update_matrix",
    "msgd_rl:apply_sarsa_updates":
        "patched in msgd_rl, but engine.update_matrix calls engine's own binding",
    "operators:apply_operator": "training edits through operators.apply_operators",
    "msgd_rl:load_experience": "neither run has `experience_in`",
    "prompt_model:reorder":
        "engine binds reorder only for the tracer; define_sort reorders inside operators",
}


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    tracer = Tracer()
    try:
        install(tracer, MockBackend([]), None, [])
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_tracer_targets_that_training_never_calls(monkeypatch, tmp_path):
    """The NER (msgd) and CLS (msgd_rl) golden runs, traced: the patched
    names with no span are exactly NEVER_CALLED, so a target that a change
    strands shows up here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install

    class Recording(Tracer):
        def __init__(self):
            super().__init__()
            self.names = set()

        def patch(self, owner, attr, name, after=None):
            self.names.add(name)
            super().patch(owner, attr, name, after)

    patched, called = set(), set()
    for task in ("NER", "CLS"):
        make, overrides = CASES[task]
        train_set, test_set = make(100), make(20, offset=100)
        cfg = RunConfig(task=task, iterations=3, top_k=2, anneal_count=1, seed=7,
                        output_dir=str(tmp_path), **overrides)
        backend = Repeating(task, train_set + test_set)
        tracer = Recording()
        try:
            install(tracer, backend, None, test_set)
            assert tracer.missing == []
            # looked up on the module, where the tracer patched it
            promptopt.engine.train(cfg, train_set, test_set, template(task), backend,
                                   run_dir=tmp_path / task)
        finally:
            tracer.restore()
        patched |= tracer.names
        called |= {name for _, _, name, _, _ in tracer.spans}
    assert patched - called == set(NEVER_CALLED)
