"""Generation backends: an OpenAI-compatible HTTP client and a deterministic
scripted mock, both behind one interface, with bounded-parallel batch
execution and run-level token accounting.

This module alone decides which backend failures end a run. An AuthError
is raised out of `generate_batch`, since no later request can succeed.
Every other BackendError comes back as a value, that request's batch item,
so one failed request never ends a batch or a run."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import socket
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import NamedTuple, Sequence, Union
from urllib.parse import urlsplit

from .errors import (
    AuthError,
    BackendError,
    BackendTimeout,
    MalformedResponse,
    RateLimitedExhausted,
    ScriptExhausted,
)

log = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "PROMPTFLOW_API_KEY"


class _RequestFields(NamedTuple):
    messages: tuple[tuple[str, str], ...]  # (role, text)
    model: str = "default"
    temperature: float = 0.0
    max_tokens: int = 2048


class GenerationRequest(_RequestFields):
    """One chat request, an immutable tuple (messages, model, temperature,
    max_tokens). Every way of making one checks that there is a message and
    that the temperature is finite, `_make` and `_replace` included."""

    __slots__ = ()

    def __new__(cls, messages, model="default", temperature=0.0, max_tokens=2048):
        if not messages:
            raise ValueError("request needs at least one message")
        if not isfinite(temperature):
            raise ValueError("temperature must be finite")
        return tuple.__new__(cls, (messages, model, temperature, max_tokens))

    @classmethod
    def _make(cls, iterable):
        # the inherited one builds the tuple without __new__; _replace calls this
        return cls(*iterable)

    def content_hash(self) -> str:
        canon = json.dumps(
            [[role, text] for role, text in self.messages], ensure_ascii=False
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def user_request(text: str, model: str = "default", temperature: float = 0.0,
                 max_tokens: int = 2048) -> GenerationRequest:
    return GenerationRequest((("user", text),), model, temperature, max_tokens)


class GenerationResponse(NamedTuple):
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_ms: float = 250.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not self.base_backoff_ms >= 0:
            raise ValueError("base_backoff_ms must be >= 0")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = "http://localhost:8000/v1"
    api_key_env_name: str = DEFAULT_API_KEY_ENV
    max_parallel: int = 8
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_ms: float = 60_000.0

    def __post_init__(self):
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if not self.timeout_ms > 0:
            raise ValueError("timeout_ms must be > 0")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError("base_url %r must start with http:// or https://"
                             % self.base_url)
        if not url.hostname:
            raise ValueError("base_url %r has no host" % self.base_url)
        try:
            url.port  # raises on a port that is not a number in 0-65535
            url.hostname.encode("idna")  # raises on a label that is empty or too long
        except ValueError as e:
            raise ValueError("base_url %r: %s" % (self.base_url, e)) from None
        # the path goes into the request line as it is
        if not (url.path.isascii() and url.path.isprintable()) or " " in url.path:
            raise ValueError("base_url %r: the path must be printable ASCII "
                             "without spaces" % self.base_url)


class UsageCounter:
    """Thread-safe run-level token accounting."""

    def __init__(self):
        self._lock = threading.Lock()
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.requests = 0

    def add(self, resp: GenerationResponse):
        with self._lock:
            self.prompt_tokens += resp.prompt_tokens
            self.completion_tokens += resp.completion_tokens
            self.requests += 1

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "total_tokens": self.prompt_tokens + self.completion_tokens,
            }


# One request's outcome in a batch: its response, or the BackendError it
# failed with. Never an AuthError, which generate_batch raises.
BatchItem = Union[GenerationResponse, BackendError]


class Backend:
    """Interface shared by the HTTP client and the mock."""

    usage: UsageCounter
    max_parallel: int = 8

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds between requests; it stays usable."""

    def _attempt(self, req: GenerationRequest) -> BatchItem:
        """One request of a batch: its response, or the BackendError it
        failed with, so one failure does not poison the batch. An AuthError
        is raised: no later request can succeed, so it ends the run."""
        try:
            return self.generate(req)
        except AuthError:
            raise
        except BackendError as e:
            return e

    def generate_batch(self, reqs: Sequence[GenerationRequest]) -> list[BatchItem]:
        """Run requests with at most `max_parallel` in flight; results come
        back in input order and per-item failures do not poison the batch.
        An AuthError is raised, and the requests not yet started are not
        sent."""
        if not reqs:
            return []
        with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            return list(pool.map(self._attempt, reqs))


# Set before every read of a response (Linux only; the kernel clears it):
# a server that writes headers and body in two sends with Nagle's algorithm
# on would otherwise hold the body back until a delayed ACK of the headers,
# about 40 ms on every request of a reused connection.
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

_MAX_LINE = 65536  # bytes in a status, header, chunk-size or trailer line
_MAX_HEADERS = 100  # header lines of one reply, or trailer lines of a chunked body
_MAX_BODY = 64 << 20  # bytes in a reply body, however it is framed


class ProtocolError(Exception):
    """A reply that breaks HTTP/1.1: a bad status line, header or chunk,
    too long a line, too many headers, a body shorter than its framing, or
    a body longer than _MAX_BODY."""


def _check_body_size(n: int) -> None:
    if n > _MAX_BODY:
        raise ProtocolError("reply body over %d bytes" % _MAX_BODY)


class _Connection:
    """One client connection to an HTTP/1.1 server. A request goes out in
    one write; replies are read through a buffered reader on the socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def send(self, request: bytes) -> bool:
        """Send `request` and wait for the first byte of the reply; False
        when the server closed the connection before sending one."""
        try:
            self.sock.sendall(request)
            if _TCP_QUICKACK is not None:
                self.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)
            return bool(self.reader.peek(1))
        except (ConnectionResetError, BrokenPipeError):
            return False

    def read_reply(self) -> tuple[int, bytes, bool]:
        """Read one reply: (status, body, whether the connection may carry
        another request). Interim 1xx replies are skipped."""
        status = 0
        while status < 200:
            line = self._line()
            parts = line.split(None, 2)
            status = (int(parts[1]) if len(parts) > 1 and len(parts[1]) == 3
                      and parts[1].isdigit() else 0)
            if status < 100 or not parts[0].startswith(b"HTTP/"):
                raise ProtocolError("bad status line %r" % line[:80])
            headers = self._headers()
        reusable = parts[0] == b"HTTP/1.1"
        length = chunked = None
        for line in headers:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = value.strip()
            elif name == b"transfer-encoding":
                chunked = value.strip().lower() == b"chunked"
            elif name == b"connection" and b"close" in value.lower():
                reusable = False
        if status in (204, 304):
            body = b""
        elif chunked:
            body = self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise ProtocolError("bad Content-Length %r" % length[:40])
            # 20 digits are over the bound, and int() refuses more than 4300
            digits = length.lstrip(b"0") or b"0"
            body = self._exactly(int(digits) if len(digits) < 20 else _MAX_BODY + 1)
        else:  # framed by the server closing the connection
            body, reusable = self._until_close(), False
        return status, body, reusable

    def _line(self) -> bytes:
        line = self.reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ProtocolError("line longer than %d bytes" % _MAX_LINE)
        if not line:
            raise ProtocolError("connection closed in the middle of a reply")
        return line

    def _headers(self) -> list[bytes]:
        """Header (or trailer) lines up to the blank line that ends them."""
        lines: list[bytes] = []
        while True:
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return lines
            if len(lines) == _MAX_HEADERS:
                raise ProtocolError("more than %d header lines" % _MAX_HEADERS)
            lines.append(line)

    def _chunked(self) -> bytes:
        chunks, total = [], 0
        while True:
            size = self._line().split(b";", 1)[0].strip()
            try:
                n = int(size, 16)
            except ValueError:
                n = -1
            if n < 0:
                raise ProtocolError("bad chunk size %r" % size[:40])
            if not n:
                break
            total += n
            _check_body_size(total)
            chunks.append(self._exactly(n))
            if self._exactly(2) != b"\r\n":
                raise ProtocolError("chunk not followed by CRLF")
        self._headers()  # trailers
        return b"".join(chunks)

    def _until_close(self) -> bytes:
        parts, total = [], 0
        while True:
            part = self.reader.read1(_MAX_LINE)
            if not part:
                return b"".join(parts)
            total += len(part)
            _check_body_size(total)
            parts.append(part)

    def _exactly(self, n: int) -> bytes:
        _check_body_size(n)  # a read of n bytes allocates n bytes at once
        data = self.reader.read(n)
        if len(data) < n:
            raise ProtocolError("reply cut short: %d of %d bytes" % (len(data), n))
        return data


def _token_count(usage: dict, name: str) -> int:
    """A usage count: absent or null counts 0; any other value that is not
    a non-negative integer makes the completion malformed."""
    n = usage.get(name)
    if n is None:
        return 0
    if type(n) is not int or n < 0:
        raise MalformedResponse("usage %s is %.40r, not a non-negative integer"
                                % (name, n))
    return n


class HttpBackend(Backend):
    """POSTs to {base_url}/chat/completions with bearer auth; retries 429/5xx,
    timeouts, connection failures and malformed HTTP with exponential
    backoff.

    Each request goes out in one write: the request line, `Host`,
    `Accept-Encoding: identity`, `Content-Length`, `Content-Type`,
    `Authorization` when a key is set, and the JSON body. A reply's body is
    framed by `Content-Length`, by chunked transfer coding, or else by the
    server closing the connection; 1xx replies are skipped and 204 and 304
    replies have no body. A status line or header line longer than 64 KiB,
    more than 100 header lines, or a body over 64 MiB is a `ProtocolError`.

    Connections are kept alive: an idle one goes back to a pool once its
    reply is read in full, and the next request takes it, so the pool holds
    at most as many connections as there were requests in flight. An
    HTTP/1.0 reply, `Connection: close`, a reply framed by the connection
    closing, and any failure close the connection. A pooled connection the
    server has closed meanwhile fails before the first byte of a reply; the
    request is then sent once more, at once, on a new connection, which is
    not a retry attempt. `close` closes the idle connections."""

    RETRYABLE_STATUS = {429, 500, 502, 503, 504}

    def __init__(self, config: BackendConfig):
        self.config = config
        self.max_parallel = config.max_parallel
        self.usage = UsageCounter()
        url = urlsplit(config.base_url)
        self._tls = None
        if url.scheme == "https":
            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        default_port = 443 if self._tls else 80
        self._host, self._port = url.hostname, url.port or default_port
        host = "[%s]" % self._host if ":" in self._host else self._host
        if self._port != default_port:
            host += ":%d" % self._port
        path = url.path.rstrip("/") + "/chat/completions"
        self._head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
            path.encode("ascii"), host.encode("idna"))
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env_name, "")
        if not (key.isascii() and key.isprintable()):
            # never echo the key: it is a secret
            raise AuthError("the API key in $%s has a control or non-ASCII "
                            "character" % self.config.api_key_env_name)
        return key

    def close(self) -> None:
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self._host, self._port),
                                        timeout=self.config.timeout_ms / 1000.0)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _post(self, request: bytes) -> tuple[int, bytes]:
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None and not conn.send(request):
                conn.close()  # closed by the server while idle: once more on a new one
                conn = None
            if conn is None:
                conn = self._connect()
                if not conn.send(request):
                    raise ProtocolError("connection closed before a reply")
            status, data, reusable = conn.read_reply()
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if reusable:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, data

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        body = json.dumps({
            "model": req.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }).encode("utf-8")
        key = self._api_key()
        auth = b"Authorization: Bearer %s\r\n" % key.encode("ascii") if key else b""
        request = b"%sContent-Length: %d\r\nContent-Type: application/json\r\n%s\r\n%s" % (
            self._head, len(body), auth, body)

        policy = self.config.retry
        start = time.monotonic()
        for attempt in range(policy.max_attempts):
            if attempt:
                time.sleep(policy.base_backoff_ms * (2 ** (attempt - 1)) / 1000.0)
            try:
                status, data = self._post(request)
            except TimeoutError:  # socket.timeout is an alias since Python 3.10
                last_err = BackendTimeout("request timed out (attempt %d)" % (attempt + 1))
                continue
            except (OSError, ProtocolError) as e:
                last_err = BackendError("%s: %s" % (type(e).__name__, e))
                continue
            if status in (401, 403):
                raise AuthError("HTTP %d from %s" % (status, self.config.base_url))
            if status in self.RETRYABLE_STATUS:
                last_err = RateLimitedExhausted(
                    "HTTP %d after %d attempts" % (status, attempt + 1)
                )
                continue
            if status != 200:
                raise BackendError("HTTP %d: %s" % (
                    status, data[:500].decode("utf-8", "replace")))
            return self._parse(data, start)
        raise last_err  # RetryPolicy makes at least one attempt

    def _parse(self, data: bytes, start) -> GenerationResponse:
        try:
            doc = json.loads(data)
            text = doc["choices"][0]["message"]["content"]
            usage = doc.get("usage") or {}
            prompt_tokens = _token_count(usage, "prompt_tokens")
            completion_tokens = _token_count(usage, "completion_tokens")
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
            raise MalformedResponse("cannot parse completion: %s" % e)
        if not isinstance(text, str):
            raise MalformedResponse("completion content is %s, not a string"
                                    % type(text).__name__)
        if not usage:
            log.warning("response missing usage fields; counting zero tokens")
        out = GenerationResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=(time.monotonic() - start) * 1000.0,
        )
        self.usage.add(out)
        return out


_MATCH_KEYS = ("hash", "contains", "index")


def _check_match(i: int, match: dict) -> None:
    """Reject a mock script `match` that is not empty or exactly one of
    {"hash": str}, {"contains": str} or {"index": int >= 0}, so a typo never
    falls back to FIFO."""
    unknown = sorted(set(match) - set(_MATCH_KEYS))
    if unknown:
        raise ValueError("mock script entry %d: unknown \"match\" key %s; use one of %s"
                         % (i, ", ".join(unknown), ", ".join(_MATCH_KEYS)))
    if len(match) > 1:
        raise ValueError("mock script entry %d: \"match\" has %s; use only one"
                         % (i, " and ".join(sorted(match))))
    for key, value in match.items():
        if key == "index":
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError("mock script entry %d: \"index\" must be a "
                                 "non-negative integer" % i)
        elif not isinstance(value, str):
            raise ValueError("mock script entry %d: \"%s\" must be a string" % (i, key))


class MockBackend(Backend):
    """Deterministic scripted backend.

    Script entries are {"match": {...}, "response": "..."} where match is one
    of {"hash": <sha256 of canonical messages>}, {"contains": <substring of
    the last message>}, or {"index": n} / {} (ordered fallback, consumed
    FIFO; n is a non-negative integer the backend does not read). Hash and
    contains entries are reusable; fallback entries are consumed once each.
    When fallback entries run out the last one is replayed so long runs stay
    deterministic, so ScriptExhausted is raised only for a request that
    matches no hash or contains entry when the script has no fallback entry.
    A script of any other shape raises ValueError, as does a `match` with an
    unknown key, with more than one key or with a value of the wrong type.
    It serves a batch one request at a time, in order, so `max_parallel`,
    which sets the racing cuts (see engine.first_rung), defaults to 1.
    """

    def __init__(self, script: Sequence[dict] = (), max_parallel: int = 1):
        self.usage = UsageCounter()
        self.max_parallel = max_parallel
        self._lock = threading.Lock()
        self._by_hash: dict[str, str] = {}
        self._contains: list[tuple[str, str]] = []
        self._fifo: list[str] = []
        self._fifo_pos = 0
        if not isinstance(script, (list, tuple)):
            raise ValueError("mock script must be a list of entries, not %s"
                             % type(script).__name__)
        for i, entry in enumerate(script):
            if not isinstance(entry, dict):
                raise ValueError("mock script entry %d is not an object" % i)
            match = entry.get("match", {}) or {}
            if not isinstance(match, dict):
                raise ValueError("mock script entry %d: \"match\" is not an object" % i)
            response = entry.get("response")
            if not isinstance(response, str):
                raise ValueError("mock script entry %d: \"response\" must be a string" % i)
            _check_match(i, match)
            if "hash" in match:
                self._by_hash[match["hash"]] = response
            elif "contains" in match:
                self._contains.append((match["contains"], response))
            else:
                self._fifo.append(response)

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def _lookup(self, req: GenerationRequest) -> str:
        h = req.content_hash()
        if h in self._by_hash:
            return self._by_hash[h]
        last_text = req.messages[-1][1]
        for needle, response in self._contains:
            if needle in last_text:
                return response
        with self._lock:
            if self._fifo_pos < len(self._fifo):
                resp = self._fifo[self._fifo_pos]
                self._fifo_pos += 1
                return resp
            if self._fifo:
                return self._fifo[-1]
        raise ScriptExhausted("no script entry matches request %s" % h[:12])

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        text = self._lookup(req)
        out = GenerationResponse(
            text=text,
            prompt_tokens=sum(len(c.split()) for _, c in req.messages),
            completion_tokens=len(text.split()),
            latency_ms=0.0,
        )
        self.usage.add(out)
        return out

    def generate_batch(self, reqs: Sequence[GenerationRequest]) -> list[BatchItem]:
        # Serial, in input order: FIFO consumption must not depend on thread
        # scheduling.
        return [self._attempt(req) for req in reqs]
