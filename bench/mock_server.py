"""The benchmark's completion server, run as its own process.

    python3 bench/mock_server.py --seed N

It extends the test suite's MockCompletionServer so that it behaves like a
real OpenAI-compatible server: HTTP/1.1 keep-alive, TCP_NODELAY (headers and
body leave without a Nagle/delayed-ACK stall), no added latency, completions
from the seeded generator keyed by the prompt's first line and the
per-prompt request ordinal, and HTTP 500 on the generator's deterministic
fault schedule.

It counts from outside the program: completion requests, the connections
that carried them, the in-flight high-water mark, busy time (summed
per-request handling time) and when the first request arrived, on the
system-wide monotonic clock. Control endpoints, not counted:

    POST /bench/reset   zero the counters and per-prompt ordinals
    GET  /bench/stats   the counters as JSON

It prints its port on stdout, serves until stdin closes, then exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

from mockserver import MockCompletionServer, _Handler  # noqa: E402

import workloads  # noqa: E402


class BenchServer(MockCompletionServer):
    def __init__(self, seed: int):
        super().__init__(latency=0.0)
        self.RequestHandlerClass = _BenchHandler
        self.seed = seed
        self.filler = workloads.Filler(seed)
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.ordinals: dict[str, int] = {}
            self.request_count = 0
            self.max_in_flight = 0
            self.connections = 0
            self.busy_s = 0.0
            self.first_request_at: float | None = None

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.request_count,
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
                "busy_s": self.busy_s,
                "first_request_at": self.first_request_at,
            }


class _BenchHandler(_Handler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    counted = False  # whether this connection has carried a completion request

    def do_GET(self):
        if self.path == "/bench/stats":
            self._respond(200, self.server.stats())
        else:
            self._respond(404, {"error": "not found"})

    def do_POST(self):
        server: BenchServer = self.server
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        if self.path == "/bench/reset":
            server.reset()
            self._respond(200, {})
            return
        if self.path != "/v1/completions":
            self._respond(404, {"error": "not found"})
            return
        arrived = time.monotonic()
        prompt = json.loads(raw).get("prompt", "")
        problem = prompt.splitlines()[0] if prompt else ""
        with server.lock:
            if server.first_request_at is None:
                server.first_request_at = arrived
            if not self.counted:
                self.counted = True
                server.connections += 1
            server.request_count += 1
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
            ordinal = server.ordinals.get(problem, 0)
            server.ordinals[problem] = ordinal + 1
        try:
            if workloads.collect_fails(server.seed, problem, ordinal):
                status, payload = 500, {"error": "scheduled failure"}
            else:
                text = workloads.collect_text(server.filler, server.seed, problem, ordinal)
                status, payload = 200, {"choices": [{"text": text, "finish_reason": "stop"}]}
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data[:-1])
        finally:
            # The request stops counting before its last byte leaves: the client
            # cannot send its next request before that, so the in-flight count
            # never includes a finished request.
            with server.lock:
                server.in_flight -= 1
                server.busy_s += time.monotonic() - arrived
        self.wfile.write(data[-1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = BenchServer(args.seed)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # the parent closes stdin to stop the server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


if __name__ == "__main__":
    main()
