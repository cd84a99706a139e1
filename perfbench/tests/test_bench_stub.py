"""The loopback HTTP stub and the real HttpBackend."""

import pytest

from promptopt.backend import BackendConfig, HttpBackend, user_request
from promptopt.evaluation import FORMAT_FAILURE, parse_prediction
from promptopt.prompt_model import render

import workloads
from stub import Stub


def test_http_backend_gets_parseable_completions():
    seed = workloads.sub_seeds("mrc_http", 3)[0]
    spec = workloads.mrc_http(seed)
    oracle = spec.oracle()
    with Stub("mrc_http", 3) as stub:
        backend = HttpBackend(BackendConfig(base_url=stub.base_url, max_parallel=2))
        reqs = [user_request(render(spec.template, ex.input), model=spec.cfg.model)
                for ex in spec.train[:10]]
        results = backend.generate_batch(reqs)
        texts = [r.text for r in results]
        assert texts == [oracle.answer(r.messages[-1][1]) for r in reqs]
        assert sum(parse_prediction("MRC", t) is not FORMAT_FAILURE for t in texts) >= 8
        assert all(r.prompt_tokens > 0 and r.completion_tokens > 0 for r in results)
        assert stub.stats()["requests"] == backend.usage.requests == 10
        assert stub.probe() > 0
        stub.reset()
        assert stub.stats()["requests"] == 0
        proc = stub.proc
    assert proc.poll() is not None


def test_stub_is_stopped_when_the_caller_fails():
    with pytest.raises(RuntimeError):
        with Stub("mrc_http", 3) as stub:
            proc = stub.proc
            raise RuntimeError("boom")
    assert proc.poll() is not None


def test_training_run_leaves_no_child_process(tmp_path):
    import run as bench

    fx = bench.Fixture("mrc_http", 4, tmp_path)
    try:
        spec = fx.specs[0]
        spec.cfg.iterations = 1
        result = bench.run_train(fx, 0, traced=False)
        assert result.requests == result.attempted > 0 and result.failed == 0
    finally:
        fx.close()
    assert fx.stub.proc.poll() is not None
