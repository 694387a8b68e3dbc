"""Sampling client: gather n completions per task from an OpenAI-compatible endpoint.

Each sample is one POST to <endpoint>/v1/completions (n=1 per request keeps
every completion auditable). min(max_concurrency, requests) worker threads
take requests from one shared queue, which bounds in-flight requests; each
keeps one keep-alive connection for the whole run and hands every outcome to
the calling thread, the only writer of the store, which appends one task at
a time with samples in index order.

Failed requests retry with exponential backoff: connection errors, malformed
bodies (choices[0].text not a string, or finish_reason neither a string nor
null), HTTP 5xx, 408 and 429 retry (a whole-second Retry-After lengthens the
wait), other 4xx fail at once. A task whose request budget runs out is
recorded in a failures sidecar and the run continues. Resume is idempotent:
(task, sample_index) pairs already in the store are skipped, so rerunning
after a crash or partial failure fills exactly the gaps.

The transport is a small HTTP/1.1 client on the socket and ssl modules. Each
request leaves in one write. Responses are framed as RFC 9112 says: 1xx
responses are skipped, chunked Transfer-Encoding wins over Content-Length,
and with neither the body runs to the close. The connection ends there, or on
Connection: close, or HTTP/1.0 without keep-alive. A line over 65,536 bytes,
over 100 headers, a malformed status line or chunk size, or a short body is a
transport error. It reads no proxy settings (HTTP_PROXY, HTTPS_PROXY,
NO_PROXY), no CA bundle variable (REQUESTS_CA_BUNDLE) and no credentials
embedded in the URL; HTTPS verifies certificates and host names through
ssl.create_default_context().
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import ssl
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from queue import SimpleQueue
from urllib.parse import SplitResult, urlsplit

from .records import RecordStore, SamplingTask, iter_records, write_whole
from .verifier import Sample

API_KEY_ENV = "RLREADY_API_KEY"
REASONING_PROMPT_SUFFIX = (
    "Let's think step by step and output the final answer within \\boxed{}."
)
FAILURES_SIDECAR = "failures.jsonl"
# the values a SamplingJob field annotated with each type accepts
_ACCEPTED = {"str": str, "int": int, "float": (int, float)}
# statuses that may heal on retry, besides every 5xx
_RETRY_STATUSES = (408, 429)
# http.client's limits on a response line and on the headers of one response
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: [^\r\n]*)?\r?\n")
_CHUNK_LINE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
_BLANK = (b"\r\n", b"\n")


def _valid_endpoint(url: str) -> bool:
    # a request line holds no whitespace or control characters, and its
    # target ASCII only
    if re.search(r"[\x00-\x20\x7f]", url):
        return False
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a port that is not a number in range
    except ValueError:
        return False
    target_ascii = (parts.path + parts.query).isascii()
    return parts.scheme in ("http", "https") and bool(parts.hostname) and target_ascii


@dataclass(frozen=True)
class SamplingJob:
    endpoint_url: str
    model_name: str
    tasks: tuple[SamplingTask, ...]
    n: int
    temperature: float = 1.0
    prompt_suffix: str = REASONING_PROMPT_SUFFIX
    max_concurrency: int = 4
    max_tokens: int = 8192
    checkpoint_id: str = ""  # empty means: use model_name
    max_retries: int = 3
    retry_backoff: float = 0.5
    request_timeout: float = 120.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            accepted = _ACCEPTED.get(f.type)
            # bool is an int subclass, but true is never a count or a temperature
            if accepted and (isinstance(value, bool) or not isinstance(value, accepted)):
                raise ValueError(f"{f.name!r} must be {f.type}, got {value!r}")
        if not _valid_endpoint(self.endpoint_url):
            raise ValueError(
                f"endpoint_url must be an http:// or https:// URL with a host, "
                f"got {self.endpoint_url!r}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ValueError(f"retry_backoff must be finite and >= 0, got {self.retry_backoff}")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ValueError(f"request_timeout must be finite and > 0, got {self.request_timeout}")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen = set()
        for task in self.tasks:
            key = (task.benchmark_id, task.task_id)
            if key in seen:
                raise ValueError(f"duplicate task {key!r} in job")
            seen.add(key)

    @property
    def effective_checkpoint_id(self) -> str:
        return self.checkpoint_id or self.model_name

    def request_template(self) -> dict:
        """The frozen request shape, recorded in the store manifest."""
        return {
            "url": self.endpoint_url.rstrip("/") + "/v1/completions",
            "body": {
                "model": self.model_name,
                "prompt": "<problem>\n" + self.prompt_suffix,
                "temperature": self.temperature,
                "max_tokens": self.max_tokens,
                "n": 1,
            },
        }


class SamplingIncomplete(RuntimeError):
    """Some tasks failed after retries; details in the failures sidecar."""

    def __init__(self, message: str, failures_path: Path):
        super().__init__(message)
        self.failures_path = failures_path


@dataclass
class _TaskState:
    pending: int
    results: list[Sample] = field(default_factory=list)
    error: str | None = None


class _BadResponse(Exception):
    """A response that breaks HTTP/1.1 framing or the limits on its size."""


class _Connection:
    """A worker's keep-alive HTTP/1.1 connection to the endpoint, opened on first use."""

    def __init__(self, endpoint: SplitResult, timeout: float):
        self.host = endpoint.hostname
        self.port = endpoint.port or (443 if endpoint.scheme == "https" else 80)
        self.context = ssl.create_default_context() if endpoint.scheme == "https" else None
        self.timeout = timeout  # for the connect and for each read
        self.sock = self.reader = None

    def open(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.context is not None:
                sock = self.context.wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None

    def post(self, request: bytes) -> tuple[int, bytes, str]:
        """Send one request in one write; returns (status, body, Retry-After or "").

        A server may close an idle keep-alive connection just as a request
        goes out, so that no status line comes back; that request is sent
        once more on a new connection.
        """
        reused = self.sock is not None
        if not reused:
            self.open()
        try:
            self.sock.sendall(request)
            line = self._line()
        except (ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            line = b""
        if not line and reused:
            self.close()
            return self.post(request)
        match = _STATUS_LINE.fullmatch(line)
        while match and match[2].startswith(b"1"):  # 1xx responses are interim
            self._headers()
            match = _STATUS_LINE.fullmatch(line := self._line())
        if not match:
            raise _BadResponse(f"malformed status line {line[:80]!r}")
        status, headers = int(match[2]), self._headers()
        encoding, length = headers.get(b"transfer-encoding"), headers.get(b"content-length")
        until_close = False
        if encoding is not None:  # it wins over Content-Length (RFC 9112 6.3)
            until_close = encoding.rsplit(b",", 1)[-1].strip().lower() != b"chunked"
            body = self.reader.read() if until_close else self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise _BadResponse(f"malformed Content-Length {length[:80]!r}")
            body = self._read(int(length))
        else:
            until_close, body = True, self.reader.read()
        tokens = {t.strip() for t in headers.get(b"connection", b"").lower().split(b",")}
        if until_close or b"close" in tokens or (match[1] == b"0" and b"keep-alive" not in tokens):
            self.close()
        return status, body, headers.get(b"retry-after", b"").decode("latin-1")

    def _line(self) -> bytes:
        line = self.reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadResponse(f"response line longer than {_MAX_LINE} bytes")
        return line

    def _headers(self) -> dict[bytes, bytes]:
        """The header block: lowercased names, the values of a repeated name joined by commas."""
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            if (line := self._line()) in _BLANK:
                return headers
            name, colon, value = line.partition(b":")
            if not colon:
                raise _BadResponse(f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            headers[name] = headers[name] + b", " + value if name in headers else value
        raise _BadResponse(f"more than {_MAX_HEADERS} headers")

    def _read(self, size: int) -> bytes:
        data = self.reader.read(size)
        if len(data) < size:
            raise _BadResponse(f"body ended after {len(data)} of {size} bytes")
        return data

    def _chunked(self) -> bytes:
        chunks = []
        while (match := _CHUNK_LINE.fullmatch(line := self._line())) and int(match[1], 16):
            chunks.append(self._read(int(match[1], 16) + 2)[:-2])  # the data, then CRLF
        if not match:
            raise _BadResponse(f"malformed chunk size line {line[:80]!r}")
        while self._line() not in (*_BLANK, b""):  # trailer fields are skipped
            pass
        return b"".join(chunks)


def _request_head(endpoint: SplitResult, api_key: str | None) -> bytes:
    """The request line and headers every completion request shares, up to Content-Length.

    Host is written as http.client writes it: no user-info, an IPv6 literal
    in brackets, the port only when it is not the scheme's default.
    """
    host = endpoint.hostname.encode("idna").decode("ascii")
    if ":" in host:
        host = f"[{host}]"
    if endpoint.port not in (None, 443 if endpoint.scheme == "https" else 80):
        host = f"{host}:{endpoint.port}"
    target = endpoint.path + (f"?{endpoint.query}" if endpoint.query else "")
    head = f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
    auth = f"Authorization: Bearer {api_key}\r\n" if api_key else ""
    return f"{head}Content-Type: application/json\r\n{auth}".encode("ascii")


def _fetch_one(
    conn: _Connection, job: SamplingJob, head: bytes, template_body: dict, task: SamplingTask
) -> tuple[str, str | None]:
    """One completion request with retry; returns (text, finish_reason).

    The body is the recorded request template's, with the task's prompt.
    Posts through conn, the calling worker thread's own keep-alive
    connection. A transport error closes it; the next request reopens it.
    """
    payload = dict(template_body, prompt=task.problem + "\n" + job.prompt_suffix)
    body = json.dumps(payload).encode()
    request = b"%sContent-Length: %d\r\n\r\n%s" % (head, len(body), body)
    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(job.max_retries + 1):
        if attempt:
            time.sleep(max(job.retry_backoff * 2 ** (attempt - 1), retry_after))
            retry_after = 0.0
        try:
            status, data, retry_after_header = conn.post(request)
        except (OSError, _BadResponse) as exc:  # transport errors
            conn.close()
            last_error = exc
            continue
        if status >= 400:
            error = RuntimeError(f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}")
            if status < 500 and status not in _RETRY_STATUSES:
                raise error  # other client errors do not heal on retry
            last_error = error
            if retry_after_header and retry_after_header.strip().isdecimal():
                retry_after = float(retry_after_header)
            continue
        try:
            choice = json.loads(data)["choices"][0]
            text, finish = choice["text"], choice.get("finish_reason")
            if not isinstance(text, str) or not isinstance(finish, (str, type(None))):
                raise TypeError(f"malformed choice: text {type(text).__name__}, "
                                f"finish_reason {type(finish).__name__}")
            try:  # a JSON escape can give a lone surrogate, which the store cannot write
                text.encode()
                (finish or "").encode()
            except UnicodeEncodeError as exc:
                raise ValueError(f"malformed choice: not UTF-8 ({exc.reason})") from None
            return text, finish
        except (ValueError, LookupError, TypeError, AttributeError) as exc:  # malformed bodies
            last_error = exc
    raise RuntimeError(f"retries exhausted: {last_error}")


def sample_completions(job: SamplingJob, store: RecordStore) -> int:
    """Run the sampling job against the store; returns new samples written.

    Skips (task, sample_index) pairs already present for the job's checkpoint,
    so a rerun after a crash appends exactly the missing samples.
    """
    api_key = os.environ.get(API_KEY_ENV)
    if api_key and re.search(r"[^\x20-\x7e]", api_key):
        # a line break would end the header early; the value is a secret, left out
        raise ValueError(f"{API_KEY_ENV} must hold printable ASCII characters only")
    checkpoint = job.effective_checkpoint_id
    # the resume index holds keys only: the texts stream past unkept
    samples_path = store.path("samples")
    existing: set[tuple[str, str, int]] = {
        (s.benchmark_id, s.task_id, s.sample_index)
        for s in (iter_records("samples", samples_path) if samples_path.exists() else ())
        if s.checkpoint_id == checkpoint
    }
    template = job.request_template()
    url = urlsplit(template["url"])
    head = _request_head(url, api_key)

    states: dict[tuple[str, str], _TaskState] = {}
    units: list[tuple[SamplingTask, int]] = []
    for task in job.tasks:
        missing = [
            i
            for i in range(job.n)
            if (task.benchmark_id, task.task_id, i) not in existing
        ]
        if missing:
            states[(task.benchmark_id, task.task_id)] = _TaskState(len(missing))
            units.extend((task, i) for i in missing)

    store.set_metadata("request_template", template)
    written = 0
    failures: list[dict] = []
    todo = deque(units)
    done: SimpleQueue = SimpleQueue()

    def work(conn: _Connection) -> None:
        # a worker thread: it fetches units until none is left and hands every
        # outcome, an exception too, to the calling thread
        try:
            while True:
                try:
                    task, index = todo.popleft()
                except IndexError:
                    return
                try:
                    done.put((task, index, _fetch_one(conn, job, head, template["body"], task)))
                except BaseException as exc:
                    done.put((task, index, exc))
        finally:
            conn.close()

    workers: list[threading.Thread] = []
    try:
        for _ in range(min(job.max_concurrency, len(units))):
            worker = threading.Thread(target=work, args=(_Connection(url, job.request_timeout),))
            worker.start()
            workers.append(worker)
        for _ in units:
            task, index, outcome = done.get()
            key = (task.benchmark_id, task.task_id)
            state = states[key]
            if isinstance(outcome, Exception):
                state.error = str(outcome)
            elif isinstance(outcome, BaseException):
                raise outcome  # a worker's KeyboardInterrupt or SystemExit
            else:
                state.results.append(
                    Sample(checkpoint, task.benchmark_id, task.task_id, index, *outcome)
                )
            state.pending -= 1
            if state.pending == 0:
                # task finished: single-writer append in index order
                del states[key]
                state.results.sort(key=lambda s: s.sample_index)
                written += store.append("samples", state.results)
                if state.error is not None:
                    failures.append({"task_id": task.task_id, "benchmark": task.benchmark_id,
                                     "error": state.error})
    finally:
        # a failed coordinator (a store error, Ctrl-C) sends no new request:
        # the workers end after the ones in flight
        todo.clear()
        for worker in workers:
            worker.join()

    failures_path = store.root / FAILURES_SIDECAR
    if failures:
        failures.sort(key=lambda f: (f["benchmark"], f["task_id"]))
        lines = (json.dumps(entry, ensure_ascii=False) + "\n" for entry in failures)
        write_whole(failures_path, lines)
        raise SamplingIncomplete(
            f"{len(failures)} task(s) incomplete after retries "
            f"({written} samples written); see {failures_path}",
            failures_path=failures_path,
        )
    if failures_path.exists():
        failures_path.unlink()  # previous run's sidecar is now stale
    return written
