"""In-process OpenAI-compatible completions server for sampler tests.

Tracks the high-water mark of concurrent in-flight requests and supports
scripted failures via a `behavior` callable that returns, per request, one of
"ok", "fail" (HTTP 500), "408" or "429" (those two are sent with the
server's `retry_after` as the Retry-After header, "0" by default).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockCompletionServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, latency: float = 0.02, behavior=None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.latency = latency
        self.behavior = behavior or (lambda request_no, body: "ok")
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.request_count = 0
        self.seen_auth: list[str | None] = []
        self.retry_after = "0"

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_POST(self):
        server: MockCompletionServer = self.server
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        with server.lock:
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
            server.request_count += 1
            request_no = server.request_count
            server.seen_auth.append(self.headers.get("Authorization"))
        try:
            time.sleep(server.latency)
            action = server.behavior(request_no, body)
            if self.path != "/v1/completions":
                self._respond(404, {"error": "not found"})
            elif action == "fail":
                self._respond(500, {"error": "injected failure"})
            elif action in ("408", "429"):
                self._respond(
                    int(action), {"error": "try later"}, {"Retry-After": server.retry_after}
                )
            else:
                prompt = body.get("prompt", "")
                first_line = prompt.splitlines()[0] if prompt else ""
                self._respond(
                    200,
                    {
                        "choices": [
                            {
                                "text": f"thinking... \\boxed{{{first_line}}}",
                                "finish_reason": "stop",
                            }
                        ]
                    },
                )
        finally:
            with server.lock:
                server.in_flight -= 1

    def _respond(self, status: int, payload: dict, headers: dict | None = None):
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@contextmanager
def run_server(latency: float = 0.02, behavior=None):
    server = MockCompletionServer(latency=latency, behavior=behavior)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
