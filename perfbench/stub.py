"""Loopback OpenAI-compatible stub for the HTTP workload.

Run as a child process: `python3 perfbench/stub.py --workload W --seed N`.
It rebuilds the workload's oracles from the seed, one per training run
(requests name theirs as the model), listens on 127.0.0.1 on a
free port, prints `PORT <n>` and serves until its stdin closes, so it also
ends when the parent dies. Routes:

* POST .../chat/completions: the oracle's reply with `usage` fields;
* GET /stats: requests answered and seconds spent in the oracle;
* POST /reset: forget request history and zero the stats;
* POST /probe: run the reference loop of speed.py and report its seconds.
"""

from __future__ import annotations

import argparse
import json
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def make_handler(oracles: dict):
    from oracle import count_tokens
    from speed import reference_loop

    stats = {"requests": 0, "oracle_s": 0.0}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so clients may reuse connections

        def _send(self, doc):
            body = json.dumps(doc).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            with lock:
                self._send(dict(stats))

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/probe":
                self._send({"seconds": reference_loop()})
                return
            if self.path == "/reset":
                for oracle in oracles.values():
                    oracle.reset()
                with lock:
                    stats.update(requests=0, oracle_s=0.0)
                self._send({"ok": True})
                return
            body = json.loads(raw)
            messages = body["messages"]
            t0 = time.perf_counter()
            text = oracles[body["model"]].answer(messages[-1]["content"])
            spent = time.perf_counter() - t0
            with lock:
                stats["requests"] += 1
                stats["oracle_s"] += spent
            prompt_tokens = sum(count_tokens(m["content"]) for m in messages)
            completion_tokens = count_tokens(text)
            self._send({
                "object": "chat.completion",
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": prompt_tokens,
                          "completion_tokens": completion_tokens,
                          "total_tokens": prompt_tokens + completion_tokens},
            })

        def handle(self):
            super().handle()
            if not self.raw_requestline:
                # The client closed first. Closing with a reset instead of a
                # FIN leaves no TIME_WAIT socket on the client's port, so the
                # thousands of connections of one run do not use up the
                # ephemeral ports and slow the connects of the next run.
                self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                           struct.pack("ii", 1, 0))
                self.server.reset_on_close.add(self.connection)

        def log_message(self, *args):
            pass

    return Handler


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, *args):
        super().__init__(*args)
        self.reset_on_close = set()

    def shutdown_request(self, request):
        if request in self.reset_on_close:
            self.reset_on_close.discard(request)
            self.close_request(request)  # SO_LINGER 0: close sends the reset
        else:
            super().shutdown_request(request)


def serve(workload: str, seed: int) -> None:
    from workloads import WORKLOADS, sub_seeds

    specs = [WORKLOADS[workload](s) for s in sub_seeds(workload, seed)]
    oracles = {spec.cfg.model: spec.oracle() for spec in specs}
    server = _Server(("127.0.0.1", 0), make_handler(oracles))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print("PORT %d" % server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the parent closed our stdin or died
    finally:
        server.shutdown()
        server.server_close()
        thread.join(STOP_TIMEOUT_S)


class Stub:
    """Parent-side handle: starts the stub process and always stops it."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError("HTTP stub did not start (got %r)" % line)
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise
        self.base_url = "http://127.0.0.1:%d/v1" % self.port

    def _call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(
            "http://127.0.0.1:%d%s" % (self.port, path),
            data=b"{}" if post else None, method="POST" if post else "GET",
        )
        with urllib.request.urlopen(req, timeout=STOP_TIMEOUT_S) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", post=True)

    def probe(self) -> float:
        """Seconds a round trip to the stub takes in which it runs the
        reference loop: the kind of work, in both processes and the network
        stack between them, that a request of the HTTP workload does."""
        t0 = time.perf_counter()
        self._call("/probe", post=True)
        return time.perf_counter() - t0

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    serve(args.workload, args.seed)


if __name__ == "__main__":
    main()
