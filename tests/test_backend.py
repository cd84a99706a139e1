import contextlib
import gc
import json
import socket
import struct
import threading
import time
import types
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from promptopt import backend as backend_module
from promptopt.backend import (
    BackendConfig,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    user_request,
)
from promptopt.errors import (
    AuthError,
    BackendError,
    BackendTimeout,
    MalformedResponse,
    RateLimitedExhausted,
    ScriptExhausted,
)


def req(text, **kw):
    return user_request(text, **kw)


class TestMockBackend:
    def test_hash_match(self):
        r = req("hello")
        backend = MockBackend([{"match": {"hash": r.content_hash()}, "response": "OK"}])
        out = backend.generate(r)
        assert out.text == "OK"
        assert out.latency_ms == 0.0

    def test_fifo_order(self):
        backend = MockBackend([{"response": "a"}, {"response": "b"}])
        assert backend.generate(req("x")).text == "a"
        assert backend.generate(req("y")).text == "b"

    def test_fifo_sticky_last(self):
        backend = MockBackend([{"response": "a"}])
        backend.generate(req("x"))
        assert backend.generate(req("y")).text == "a"

    def test_deterministic_transcript(self):
        script = [{"match": {"contains": "alpha"}, "response": "A"}, {"response": "F"}]
        reqs = [req("alpha one"), req("other"), req("alpha two")]
        runs = []
        for _ in range(2):
            backend = MockBackend(script)
            runs.append([r.text for r in backend.generate_batch(reqs)])
        assert runs[0] == runs[1] == ["A", "F", "A"]

    def test_batch_order_preserved(self):
        backend = MockBackend([{"response": str(i)} for i in range(3)])
        out = backend.generate_batch([req("a"), req("b"), req("c")])
        assert [r.text for r in out] == ["0", "1", "2"]

    def test_batch_error_isolation(self):
        backend = MockBackend([{"match": {"contains": "1"}, "response": "x"},
                               {"match": {"contains": "2"}, "response": "y"}])
        out = backend.generate_batch([req("1"), req("2"), req("3")])
        assert out[0].text == "x"
        assert out[1].text == "y"
        assert isinstance(out[2], ScriptExhausted)

    def test_batch_raises_an_auth_error_and_sends_nothing_after_it(self):
        class Revoked(MockBackend):
            def generate(self, r):
                if r.messages[-1][1] == "3":
                    raise BackendTimeout("slow")
                if r.messages[-1][1] == "2":
                    raise AuthError("HTTP 401")
                return super().generate(r)

        backend = Revoked([{"response": "x"}])
        assert isinstance(backend.generate_batch([req("1"), req("3")])[1], BackendTimeout)
        with pytest.raises(AuthError):
            backend.generate_batch([req("1"), req("2"), req("4")])
        assert backend.usage.requests == 2  # "1" twice, and never "4"

    @pytest.mark.parametrize("match, needle", [
        ({"contains": 5}, 'entry 0: "contains" must be a string'),
        ({"hash": ["abc"]}, 'entry 0: "hash" must be a string'),
        ({"index": -1}, 'entry 0: "index" must be a non-negative integer'),
        ({"index": "0"}, 'entry 0: "index" must be a non-negative integer'),
        ({"index": True}, 'entry 0: "index" must be a non-negative integer'),
        ({"contain": "x"}, 'entry 0: unknown "match" key contain'),
        ({"contains": "x", "hash": "y"}, '"match" has contains and hash; use only one'),
    ])
    def test_malformed_match_rejected(self, match, needle):
        with pytest.raises(ValueError) as err:
            MockBackend([{"match": match, "response": "x"}])
        assert needle in str(err.value)

    def test_index_entries_are_fifo(self):
        backend = MockBackend([{"match": {"index": 0}, "response": "a"},
                               {"match": {"index": 7}, "response": "b"}])
        assert [backend.generate(req(t)).text for t in "xyz"] == ["a", "b", "b"]

    def test_usage_accounting(self):
        backend = MockBackend([{"response": "one two three"}])
        backend.generate_batch([req("a b"), req("c d e")])
        snap = backend.usage.snapshot()
        assert snap["requests"] == 2
        assert snap["prompt_tokens"] == 5
        assert snap["completion_tokens"] == 6
        assert snap["total_tokens"] == snap["prompt_tokens"] + snap["completion_tokens"]


MSGS = (("user", "hi"),)

# every way of making a request, each given (messages, temperature)
MAKERS = {
    "positional": lambda m, t: GenerationRequest(m, "default", t),
    "keyword": lambda m, t: GenerationRequest(messages=m, temperature=t),
    "_make": lambda m, t: GenerationRequest._make((m, "default", t, 2048)),
    "_replace": lambda m, t: req("x")._replace(messages=m, temperature=t),
    "user_request": lambda m, t: user_request(m[-1][1], temperature=t),
}


class TestRequestValidation:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=())

    @pytest.mark.parametrize("make", list(MAKERS.values()), ids=list(MAKERS))
    def test_every_constructor_checks(self, make):
        assert make(MSGS, 0.5) == (MSGS, "default", 0.5, 2048)
        if make is not MAKERS["user_request"]:  # it always sends one message
            with pytest.raises(ValueError, match="at least one message"):
                make((), 0.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                make(MSGS, bad)

    def test_fields_are_read_only(self):
        r = req("abc")
        for name in GenerationRequest._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, "x")
        with pytest.raises(AttributeError):
            r.extra = 1
        with pytest.raises(AttributeError):
            GenerationResponse("t").text = "u"

    def test_equal_requests_hash_and_compare_equal(self):
        a, b = req("abc", model="m"), GenerationRequest((("user", "abc"),), "m")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != req("abc") and a != req("abd", model="m")

    def test_repr_and_unpacking(self):
        r = req("hi")
        assert repr(r) == ("GenerationRequest(messages=(('user', 'hi'),), model='default', "
                           "temperature=0.0, max_tokens=2048)")
        messages, model, temperature, max_tokens = r
        assert messages == MSGS and model == "default" and max_tokens == 2048

    def test_content_hash_is_pinned(self):
        # mock scripts match requests by this digest: it must not change
        assert req("hi").content_hash() == (
            "675b797826f34c78b4322399d22d69a6f202258ae75ac2a2b1ad9573ad7b1dab")
        r = GenerationRequest(messages=(("system", "Sei breve."), ("user", 'héllo "x"')),
                              model="m", temperature=0.7)
        assert r.content_hash() == (
            "32937e81f4c78e8437f3e5d86beb3f8b619286131982e35183d5c4da5d71b118")

    def test_response_defaults(self):
        r = GenerationResponse("t")
        assert r == ("t", 0, 0, 0.0)
        assert GenerationResponse._fields == (
            "text", "prompt_tokens", "completion_tokens", "latency_ms")
        assert repr(r) == ("GenerationResponse(text='t', prompt_tokens=0, "
                           "completion_tokens=0, latency_ms=0.0)")

    def test_hash_stable(self):
        assert req("abc").content_hash() == req("abc").content_hash()
        assert req("abc").content_hash() != req("abd").content_hash()

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_backend_config_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(max_parallel=0)

    @pytest.mark.parametrize("base_url", [
        "localhost:8000/v1", "ftp://localhost/v1", "http:///v1",
        "http://localhost:99999/v1", "http://localhost:port/v1",
        "http://localhost/my models/v1", "http://localhost/v1\x01", "http://localhost/m\u00fc/v1",
        "http://%s.example.com/v1" % ("a" * 64),
    ])
    def test_unusable_base_url_rejected(self, base_url):
        with pytest.raises(ValueError):
            BackendConfig(base_url=base_url)

    @pytest.mark.parametrize("base_url", [
        "http://localhost:8000/v1", "https://api.example.com/v1/", "http://[::1]:8000",
    ])
    def test_usable_base_url_accepted(self, base_url):
        BackendConfig(base_url=base_url)

    def test_timeout_and_backoff_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_ms=-1.0)


class _StubHandler(BaseHTTPRequestHandler):
    # class-level script: list of (status, body) consumed per request
    script = []
    calls = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).calls.append(json.loads(body))
        status, payload = type(self).script.pop(0) if type(self).script else (200, None)
        if payload is None:
            payload = {
                "choices": [{"message": {"content": "stub"}}],
                "usage": {"prompt_tokens": 3, "completion_tokens": 2},
            }
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.script = []
    _StubHandler.calls = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, _StubHandler
    server.shutdown()
    server.server_close()


def _http_backend(server, attempts=3):
    cfg = BackendConfig(
        base_url="http://127.0.0.1:%d" % server.server_address[1],
        retry=RetryPolicy(max_attempts=attempts, base_backoff_ms=1.0),
        timeout_ms=5000,
    )
    return HttpBackend(cfg)


class TestHttpBackend:
    def test_success_with_usage(self, stub_server):
        server, handler = stub_server
        backend = _http_backend(server)
        out = backend.generate(req("hello"))
        assert out.text == "stub"
        assert out.prompt_tokens == 3 and out.completion_tokens == 2
        assert backend.usage.total_tokens == 5

    def test_429_then_200(self, stub_server):
        server, handler = stub_server
        handler.script = [(429, {"error": "rate limited"}), (200, None)]
        backend = _http_backend(server)
        out = backend.generate(req("retry me"))
        assert out.text == "stub"
        assert len(handler.calls) == 2  # attempts = 2

    def test_401_no_retry(self, stub_server):
        server, handler = stub_server
        handler.script = [(401, {"error": "bad key"})]
        backend = _http_backend(server)
        with pytest.raises(AuthError):
            backend.generate(req("denied"))
        assert len(handler.calls) == 1

    def test_missing_usage_counts_zero(self, stub_server):
        server, handler = stub_server
        handler.script = [(200, {"choices": [{"message": {"content": "ok"}}]})]
        backend = _http_backend(server)
        out = backend.generate(req("x"))
        assert out.prompt_tokens == 0 and out.completion_tokens == 0

    @pytest.mark.parametrize("payload", [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": "ok"}}], "usage": "x"},
        {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": "abc"}},
        {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": "12"}},
        {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": 2.5}},
        {"choices": [{"message": {"content": "ok"}}],
         "usage": {"prompt_tokens": -7, "completion_tokens": True}},
        {"choices": [{"message": {"content": "ok"}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": False}},
    ])
    def test_malformed_completion(self, stub_server, payload):
        server, handler = stub_server
        handler.script = [(200, payload), (200, payload)]
        backend = _http_backend(server)
        with pytest.raises(MalformedResponse):
            backend.generate(req("x"))
        # a batch item, not an exception that ends the batch
        [item] = backend.generate_batch([req("y")])
        assert isinstance(item, MalformedResponse)
        assert len(handler.calls) == 2
        assert backend.usage.requests == 0

    @pytest.mark.parametrize("key", ["abc\n", "abc\r\nX-Injected: 1", "a\tb", "ab\x7f", "cl\u00e9"])
    def test_api_key_with_a_control_or_non_ascii_character(self, stub_server, monkeypatch, key):
        server, handler = stub_server
        monkeypatch.setenv("PROMPTOPT_TEST_KEY", key)
        backend = HttpBackend(BackendConfig(
            base_url="http://127.0.0.1:%d" % server.server_address[1],
            api_key_env_name="PROMPTOPT_TEST_KEY"))
        with pytest.raises(AuthError) as info:
            backend.generate(req("x"))
        assert "PROMPTOPT_TEST_KEY" in str(info.value)
        assert key not in str(info.value)
        with pytest.raises(AuthError):
            backend.generate_batch([req("y")])
        assert handler.calls == []

    def test_wire_shape(self, stub_server):
        server, handler = stub_server
        backend = _http_backend(server)
        backend.generate(
            GenerationRequest(
                messages=(("system", "be brief"), ("user", "hi")),
                model="m1", temperature=0.3, max_tokens=64,
            )
        )
        sent = handler.calls[0]
        assert sent["model"] == "m1"
        assert sent["temperature"] == 0.3
        assert sent["max_tokens"] == 64
        assert sent["messages"] == [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "hi"},
        ]


OK_REPLY = json.dumps({
    "choices": [{"message": {"content": "ok"}}],
    "usage": {"prompt_tokens": 1, "completion_tokens": 1},
}).encode()


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a stalled handler writes to a socket the client has closed


def _handler(reply, log, keep_alive=False):
    """A handler that appends each request's path and headers to `log` and
    answers with `reply()` -> (status, body bytes)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
        timeout = 5  # a client that never closes ends the handler, not the test

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            log.append((self.path, dict(self.headers)))
            status, data = reply()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return Handler


@contextlib.contextmanager
def _serving(handler):
    server = _QuietServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()  # joins the handler threads
        thread.join(5)
        assert not thread.is_alive()


def _backend(base_url, attempts=3, timeout_ms=5000, max_parallel=8):
    return HttpBackend(BackendConfig(
        base_url=base_url, max_parallel=max_parallel, timeout_ms=timeout_ms,
        retry=RetryPolicy(max_attempts=attempts, base_backoff_ms=1.0),
    ))


class TestHttpFailurePaths:
    def test_stall_times_out_after_every_attempt(self):
        release, log = threading.Event(), []

        def stall():
            release.wait(5)
            return 200, OK_REPLY

        with _serving(_handler(stall, log)) as url:
            try:
                with pytest.raises(BackendTimeout):
                    _backend(url, attempts=3, timeout_ms=100).generate(req("slow"))
            finally:
                release.set()
        assert len(log) == 3

    def test_closed_port_is_a_batch_item(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = _backend("http://127.0.0.1:%d/v1" % port, attempts=2)
        out = backend.generate_batch([req("a"), req("b")])
        assert [type(item) for item in out] == [BackendError, BackendError]
        assert backend.usage.requests == 0

    def test_503_on_every_attempt(self):
        log = []
        with _serving(_handler(lambda: (503, b"{}"), log)) as url:
            with pytest.raises(RateLimitedExhausted):
                _backend(url, attempts=3).generate(req("busy"))
        assert len(log) == 3

    def test_200_with_non_json_body(self):
        with _serving(_handler(lambda: (200, b"<html>oops</html>"), [])) as url:
            with pytest.raises(MalformedResponse):
                _backend(url).generate(req("x"))

    def test_400_carries_body_snippet_without_retry(self):
        log = []
        reply = (400, b'{"error": "max_tokens is too large"}')
        with _serving(_handler(lambda: reply, log)) as url:
            with pytest.raises(BackendError) as info:
                _backend(url).generate(req("x"))
        assert type(info.value) is BackendError
        assert "HTTP 400" in str(info.value)
        assert "max_tokens is too large" in str(info.value)
        assert len(log) == 1

    @pytest.mark.parametrize("prefix, path", [
        ("", "/chat/completions"),
        ("/", "/chat/completions"),
        ("/proxy/v1", "/proxy/v1/chat/completions"),
        ("/proxy/v1/", "/proxy/v1/chat/completions"),
    ])
    def test_path_prefix_is_kept(self, prefix, path):
        log = []
        with _serving(_handler(lambda: (200, OK_REPLY), log)) as url:
            assert _backend(url + prefix).generate(req("x")).text == "ok"
        assert [p for p, _ in log] == [path]


class _Connections:
    """What a counting handler saw: connections opened, and those the client
    closed (the handler read EOF where the next request would start)."""

    def __init__(self):
        self.changed = threading.Condition()
        self.opened = self.closed_by_client = 0

    def wait_closed(self, n, timeout=5.0):
        with self.changed:
            return self.changed.wait_for(lambda: self.closed_by_client >= n, timeout)


def _counting(conns, log, keep_alive=True, close_after_reply=False):
    """A handler answering OK_REPLY, keep-alive unless `keep_alive` is false,
    that counts into `conns`. With `close_after_reply` it closes each
    connection after one reply, without telling the client."""

    class Counting(_handler(lambda: (200, OK_REPLY), log, keep_alive=keep_alive)):
        def do_POST(self):
            super().do_POST()
            if close_after_reply:
                self.close_connection = True

        def handle(self):
            with conns.changed:
                conns.opened += 1
            super().handle()
            if not self.raw_requestline:  # EOF before a next request
                with conns.changed:
                    conns.closed_by_client += 1
                    conns.changed.notify_all()

    return Counting


class TestKeepAlive:
    def test_a_batch_opens_at_most_max_parallel_connections(self):
        conns, log, n = _Connections(), [], 24
        with _serving(_counting(conns, log)) as url:
            backend = _backend(url, max_parallel=4)
            out = backend.generate_batch([req(str(i)) for i in range(n)])
            backend.close()
        assert [r.text for r in out] == ["ok"] * n
        assert len(log) == n
        assert 1 <= conns.opened <= 4
        assert all(h.get("Connection", "").lower() != "close" for _, h in log)

    def test_close_closes_every_connection(self):
        conns = _Connections()
        with warnings.catch_warnings(record=True) as caught:
            # record, not "error": a warning raised in __del__ cannot propagate
            warnings.simplefilter("always", ResourceWarning)
            with _serving(_counting(conns, [])) as url:
                backend = _backend(url, max_parallel=4)
                backend.generate_batch([req(str(i)) for i in range(24)])
                backend.close()
                assert conns.wait_closed(conns.opened)
            del backend
            gc.collect()
        assert conns.closed_by_client == conns.opened >= 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_stale_connection_is_replaced_without_backoff(self):
        conns, log = _Connections(), []
        with _serving(_counting(conns, log, close_after_reply=True)) as url:
            backend = HttpBackend(BackendConfig(
                base_url=url, timeout_ms=5000,
                retry=RetryPolicy(max_attempts=3, base_backoff_ms=10_000.0)))
            assert backend.generate(req("first")).text == "ok"
            # the server has closed the pooled connection by the time it is reused
            start = time.monotonic()
            assert backend.generate(req("second")).text == "ok"
            elapsed = time.monotonic() - start
            backend.close()
        assert elapsed < 5.0  # a counted retry would first sleep 10 s
        assert len(log) == 2  # each request reached the server once
        assert conns.opened == 2
        assert backend.usage.requests == 2

    @pytest.mark.parametrize("keep_alive", [False, True])
    def test_a_closing_server_gets_no_pooled_connection(self, keep_alive):
        """An HTTP/1.0 server, or one that sends `Connection: close`, gets a
        new connection for every request."""
        conns, log = _Connections(), []

        class Closing(_counting(conns, log, keep_alive=keep_alive)):
            def end_headers(self):
                if keep_alive:
                    self.send_header("Connection", "close")
                super().end_headers()

        with _serving(Closing) as url:
            backend = _backend(url)
            assert [backend.generate(req(str(i))).text for i in range(3)] == ["ok"] * 3
            assert not backend._idle
        assert conns.opened == len(log) == 3

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK")
    def test_reused_connection_does_not_wait_for_a_delayed_ack(self):
        """The handler writes headers and body in two sends with Nagle's
        algorithm on: without a quick ACK of the headers each reused request
        would wait about 40 ms for the body."""
        conns, n = _Connections(), 50
        with _serving(_counting(conns, [])) as url:
            backend = _backend(url)
            start = time.monotonic()
            for i in range(n):
                backend.generate(req(str(i)))
            elapsed = time.monotonic() - start
            backend.close()
        assert conns.opened == 1
        assert elapsed < n * 0.040 / 2


OK_RAW = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_REPLY), OK_REPLY)
CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"


def _read_request(rfile, log):
    """Read one request from `rfile` and append its bytes to `log`; False
    when the client closed the connection instead."""
    lines = [rfile.readline()]
    if not lines[0]:
        return False
    while lines[-1] not in (b"\r\n", b""):
        lines.append(rfile.readline())
    length = next((int(line.split(b":")[1]) for line in lines
                   if line.lower().startswith(b"content-length:")), 0)
    log.append(b"".join(lines) + rfile.read(length))
    return True


def _replies(*replies, end="wait"):
    """A connection script: answer each request with the next raw reply,
    then wait for the client to close (`end="wait"`), close, or reset."""

    def script(sock, rfile, log):
        for reply in replies:
            if not _read_request(rfile, log):
                return
            sock.sendall(reply)
        if end == "wait":
            rfile.read()
        elif end == "reset":
            time.sleep(0.05)  # the reply's first bytes reach the client first
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    return script


@contextlib.contextmanager
def _raw_serving(*scripts):
    """A loopback server for replies that http.server cannot send: its i-th
    connection runs scripts[i] (the last script once they run out). Yields
    the server's url, `log` of raw requests and `threads`, one per
    connection. On exit it checks that the garbage collector found no
    socket left open, on either side."""
    srv = types.SimpleNamespace(log=[], threads=[])
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    srv.url = "http://127.0.0.1:%d" % listener.getsockname()[1]

    def run(sock, script):
        with sock, sock.makefile("rb") as rfile:
            sock.settimeout(5)
            try:
                script(sock, rfile, srv.log)
            except OSError:
                pass  # the client went away

    def accept():
        while not stop.is_set():
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                continue
            script = scripts[min(len(srv.threads), len(scripts) - 1)]
            srv.threads.append(threading.Thread(target=run, args=(sock, script)))
            srv.threads[-1].start()

    with warnings.catch_warnings(record=True) as caught:
        # record, not "error": a warning raised in __del__ cannot propagate
        warnings.simplefilter("always", ResourceWarning)
        acceptor = threading.Thread(target=accept)
        acceptor.start()
        try:
            yield srv
        finally:
            stop.set()
            acceptor.join(5)
            listener.close()
            for thread in srv.threads:
                thread.join(5)
        assert not acceptor.is_alive()
        assert not any(thread.is_alive() for thread in srv.threads)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _outcome(backend, text="x"):
    """The reply text, or the name and message of the BackendError raised.
    It keeps no traceback, so a socket the client failed to close is
    collected, and warned about, inside `_raw_serving`."""
    try:
        return backend.generate(req(text)).text
    except BackendError as e:
        return type(e).__name__, str(e)


class TestWire:
    """Reply framings and failures against hand-written replies."""

    def test_request_is_one_write(self, monkeypatch):
        monkeypatch.setenv("PROMPTFLOW_API_KEY", "sk-test")
        with _raw_serving(_replies(OK_RAW, OK_RAW, OK_RAW)) as srv:
            port = int(srv.url.rsplit(":", 1)[1])
            writes = []

            def spy(name):
                real = getattr(socket.socket, name)

                def write(sock, *args):
                    if sock.getpeername()[1] == port:
                        writes.append(name)
                    return real(sock, *args)
                return write

            for name in ("send", "sendall", "sendmsg"):
                monkeypatch.setattr(socket.socket, name, spy(name))
            backend = _backend(srv.url, attempts=1)
            assert [_outcome(backend, "x" * 4000 * i) for i in range(3)] == ["ok"] * 3
            backend.close()
            monkeypatch.undo()
        assert writes == ["sendall"] * 3
        assert len(srv.threads) == 1
        head, body = srv.log[0].split(b"\r\n\r\n")
        assert head.split(b"\r\n") == [
            b"POST /chat/completions HTTP/1.1", b"Host: 127.0.0.1:%d" % port,
            b"Accept-Encoding: identity", b"Content-Length: %d" % len(body),
            b"Content-Type: application/json", b"Authorization: Bearer sk-test"]

    def test_chunked_reply_with_trailers(self):
        reply = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 + b"%x;ext=1\r\n%s\r\n" % (9, OK_REPLY[:9])
                 + b"%X\r\n%s\r\n" % (len(OK_REPLY) - 9, OK_REPLY[9:])
                 + b"0\r\nX-Trailer: 1\r\n\r\n")
        with _raw_serving(_replies(reply, reply)) as srv:
            backend = _backend(srv.url, attempts=1)
            assert [_outcome(backend), _outcome(backend)] == ["ok", "ok"]
            backend.close()
        assert len(srv.threads) == 1  # the trailers were read: the connection was reused

    def test_reply_framed_by_the_connection_closing(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + OK_REPLY
        with _raw_serving(_replies(reply, end="close")) as srv:
            backend = _backend(srv.url, attempts=1)
            assert _outcome(backend) == "ok"
            assert not backend._idle
            assert _outcome(backend) == "ok"
            backend.close()
        assert len(srv.threads) == 2

    @pytest.mark.parametrize("status", [204, 304])
    def test_reply_without_a_body(self, status):
        # no Content-Length: a client that read a body would wait for a close
        reply = b"HTTP/1.1 %d Nothing\r\nContent-Type: application/json\r\n\r\n" % status
        with _raw_serving(_replies(reply, OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=1, timeout_ms=2000)
            assert _outcome(backend) == ("BackendError", "HTTP %d: " % status)
            assert _outcome(backend) == "ok"
            backend.close()
        assert len(srv.threads) == 1

    @pytest.mark.parametrize("interim", [
        b"HTTP/1.1 100 Continue\r\n\r\n",
        b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n",
    ], ids=["100", "103"])
    def test_interim_reply_is_skipped(self, interim):
        with _raw_serving(_replies(interim + OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=1)
            assert _outcome(backend) == "ok"
            backend.close()

    @pytest.mark.parametrize("attempts", [1, 2])
    @pytest.mark.parametrize("broken, end", [
        (OK_RAW[:-10], "close"),  # the body cut short
        (b"HTTP/1.1 200 OK\r\n", "reset"),  # a reset after the status line
    ], ids=["cut short", "reset"])
    def test_reply_that_fails_after_it_started_is_a_counted_attempt(self, broken, end, attempts):
        """Only a pooled connection that fails before the first byte of a
        reply is resent for free; this one fails on its second reply."""
        with _raw_serving(_replies(OK_RAW, broken, end=end), _replies(OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=attempts)
            outcomes = [_outcome(backend, "first"), _outcome(backend, "second")]
            backend.close()
        assert outcomes[0] == "ok"
        assert (outcomes[1] == "ok") == (attempts == 2)
        assert outcomes[1] == "ok" or outcomes[1][0] == "BackendError"
        assert len(srv.log) == 1 + attempts
        assert len(srv.threads) == attempts

    @pytest.mark.parametrize("attempts", [1, 2])
    @pytest.mark.parametrize("broken, message", [
        (b"HTTP/1.1 2000 OK\r\n\r\n", "bad status line b'HTTP/1.1 2000 OK\\r\\n'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 0x10\r\n\r\n", "bad Content-Length b'0x10'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n",
         "connection closed in the middle of a reply"),
        (CHUNKED_HEAD + b"zz\r\n", "bad chunk size b'zz'"),
        (CHUNKED_HEAD + b"3\r\nabcXY", "chunk not followed by CRLF"),
        (b"", "connection closed before a reply"),  # on a new connection
    ], ids=["status line", "content length", "closed in headers", "chunk size",
            "chunk end", "no reply"])
    def test_malformed_reply_is_a_counted_retried_attempt(self, broken, message, attempts):
        """A reply that breaks HTTP/1.1 fails its attempt, closes its
        connection and is retried while attempts remain."""
        with _raw_serving(_replies(broken, end="close"), _replies(OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=attempts)
            outcome = _outcome(backend)
            idle = len(backend._idle)
            backend.close()
        if attempts == 1:
            assert outcome == ("BackendError", "ProtocolError: " + message)
        else:
            assert outcome == "ok"
        assert idle == attempts - 1  # only the connection that replied well is pooled
        assert len(srv.log) == len(srv.threads) == attempts

    def test_pooled_connection_reset_before_a_reply_is_sent_again_for_free(self):
        def answer_then_reset(sock, rfile, log):
            if _read_request(rfile, log):
                sock.sendall(OK_RAW)
            if _read_request(rfile, log):  # the second request gets a reset
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        with _raw_serving(answer_then_reset, _replies(OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=1)
            outcomes = [_outcome(backend, "first"), _outcome(backend, "second")]
            backend.close()
        assert outcomes == ["ok", "ok"]  # one attempt: the resend was not counted
        assert [b"second" in r for r in srv.log] == [False, True, True]
        assert len(srv.threads) == 2

    @pytest.mark.parametrize("reply, ok", [
        (OK_RAW.replace(b"OK\r\n", b"OK\r\n" + b"X: 1\r\n" * 99, 1), True),
        (OK_RAW.replace(b"OK\r\n", b"OK\r\n" + b"X: 1\r\n" * 100, 1), False),
        (b"HTTP/1.1 200 OK\r\nX: " + b"a" * 70_000, False),  # a line that never ends
    ], ids=["100 headers", "101 headers", "long line"])
    def test_header_limits(self, reply, ok):
        with _raw_serving(_replies(reply)) as srv:
            backend = _backend(srv.url, attempts=1, timeout_ms=2000)
            outcome = _outcome(backend)
            backend.close()
        if ok:
            assert outcome == "ok"
        else:
            assert outcome[0] == "BackendError" and "ProtocolError" in outcome[1]


FRAMED_OK = {
    "length": OK_RAW,
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%s\r\n" % (9, OK_REPLY[:9])
                + b"%x\r\n%s\r\n" % (len(OK_REPLY) - 9, OK_REPLY[9:]) + b"0\r\n\r\n"),
    "close": b"HTTP/1.1 200 OK\r\n\r\n" + OK_REPLY,
}


class TestBodyBound:
    """A reply body over backend._MAX_BODY fails the attempt, whatever its
    framing, before the client allocates room for it."""

    @pytest.mark.parametrize("framing", list(FRAMED_OK))
    @pytest.mark.parametrize("over", [0, 1])
    def test_bound_in_every_framing(self, monkeypatch, framing, over):
        # both chunks fit a bound one byte short of the body: only the total does not
        monkeypatch.setattr(backend_module, "_MAX_BODY", len(OK_REPLY) - over)
        end = "close" if framing == "close" else "wait"
        with _raw_serving(_replies(FRAMED_OK[framing], end=end)) as srv:
            backend = _backend(srv.url, attempts=1)
            outcome = _outcome(backend)
            backend.close()
        if over:
            assert outcome == ("BackendError", "ProtocolError: reply body over %d bytes"
                               % (len(OK_REPLY) - 1))
        else:
            assert outcome == "ok"

    @pytest.mark.parametrize("head", [
        b"Content-Length: 100000000000000\r\n\r\n",
        b"Content-Length: %s\r\n\r\n" % (b"9" * 5000),  # more digits than int() takes
        b"Transfer-Encoding: chunked\r\n\r\n5af3107a4000\r\n",
    ], ids=["huge length", "5000-digit length", "huge chunk"])
    def test_huge_body_is_a_counted_retried_attempt(self, head):
        oversized = b"HTTP/1.1 200 OK\r\n" + head
        with _raw_serving(_replies(oversized, end="close"), _replies(OK_RAW)) as srv:
            backend = _backend(srv.url, attempts=2)
            outcome = _outcome(backend)
            backend.close()
        assert outcome == "ok"
        assert len(srv.log) == 2 and len(srv.threads) == 2

    def test_leading_zeros_are_not_digits_over_the_bound(self):
        reply = OK_RAW.replace(b"Content-Length: ", b"Content-Length: " + b"0" * 30)
        with _raw_serving(_replies(reply)) as srv:
            backend = _backend(srv.url, attempts=1)
            assert _outcome(backend) == "ok"
            backend.close()


class TestBoundedParallelism:
    def test_peak_in_flight_respects_bound(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        class Probe(MockBackend):
            def generate(self, r):
                with lock:
                    state["now"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                time.sleep(0.005)
                with lock:
                    state["now"] -= 1
                return GenerationResponse(text="ok")

            # exercise the threaded default path
            generate_batch = MockBackend.__mro__[1].generate_batch

        backend = Probe([], max_parallel=8)
        out = backend.generate_batch([req(str(i)) for i in range(100)])
        assert len(out) == 100
        assert state["peak"] <= 8

    def test_auth_error_ends_a_threaded_batch(self):
        sent = []

        class Revoked(MockBackend):
            def generate(self, r):
                if r.messages[-1][1] == "0":
                    raise AuthError("HTTP 401")
                time.sleep(0.02)
                sent.append(r)
                return GenerationResponse(text="ok")

            # exercise the threaded default path
            generate_batch = MockBackend.__mro__[1].generate_batch

        with pytest.raises(AuthError):
            Revoked([], max_parallel=2).generate_batch([req(str(i)) for i in range(20)])
        # the requests not yet started when the AuthError came back are not sent
        assert len(sent) < 19
