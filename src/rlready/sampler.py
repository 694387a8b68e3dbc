"""Sampling client: gather n completions per task from an OpenAI-compatible endpoint.

Each sample is one POST to <endpoint>/v1/completions (n=1 per request keeps
every completion auditable). Requests run on a thread pool of size
max_concurrency, which bounds in-flight requests; each worker thread keeps
one keep-alive http.client connection for the whole run. The coordinating
thread takes completions as they finish (concurrent.futures.as_completed, so
O(1) per completion however many are pending) and is the only writer of the
store, one task at a time with samples in index order.

Failed requests retry with exponential backoff: connection errors, malformed
bodies, HTTP 5xx, 408 and 429 retry (a whole-second Retry-After lengthens the
wait), other 4xx fail at once. A task whose request budget runs out is
recorded in a failures sidecar and the run continues. Resume is idempotent:
(task, sample_index) pairs already in the store are skipped, so rerunning
after a crash or partial failure fills exactly the gaps.

The transport is the standard library's: it reads no proxy settings
(HTTP_PROXY, HTTPS_PROXY, NO_PROXY), no CA bundle variable
(REQUESTS_CA_BUNDLE) and no credentials embedded in the URL; HTTPS verifies
certificates and host names through ssl.create_default_context().
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path
from urllib.parse import SplitResult, urlsplit

from .records import RecordStore, SamplingTask
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


def _valid_endpoint(url: str) -> bool:
    # http.client refuses whitespace and control characters in a request line
    if re.search(r"[\x00-\x20\x7f]", url):
        return False
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


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
    task: SamplingTask
    pending: int
    results: list[Sample] = field(default_factory=list)
    error: str | None = None


def _connection(endpoint: SplitResult, timeout: float) -> http.client.HTTPConnection:
    if endpoint.scheme == "https":
        return http.client.HTTPSConnection(
            endpoint.hostname, endpoint.port, timeout=timeout,
            context=ssl.create_default_context(),
        )
    return http.client.HTTPConnection(endpoint.hostname, endpoint.port, timeout=timeout)


def _post(
    conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict
) -> tuple[int, bytes, str | None]:
    """POST once; returns (status, response body, Retry-After header).

    A server may close an idle keep-alive connection just as a request goes
    out; that request is sent once more on a new connection.
    """
    reused = conn.sock is not None
    try:
        conn.request("POST", target, body=body, headers=headers)
        resp = conn.getresponse()
    except (ConnectionResetError, BrokenPipeError):
        if not reused:
            raise
        conn.close()
        conn.request("POST", target, body=body, headers=headers)
        resp = conn.getresponse()
    return resp.status, resp.read(), resp.getheader("Retry-After")


def _fetch_one(
    local: threading.local,
    job: SamplingJob,
    target: str,
    headers: dict,
    task: SamplingTask,
    index: int,
) -> tuple[int, str, str | None]:
    """One completion request with retry; returns (index, text, finish_reason).

    Posts through local.conn, the calling worker thread's own keep-alive
    connection. Only a transport error closes it; the next request reopens it.
    """
    prompt = task.problem + "\n" + job.prompt_suffix
    payload = {
        "model": job.model_name,
        "prompt": prompt,
        "temperature": job.temperature,
        "max_tokens": job.max_tokens,
        "n": 1,
    }
    body = json.dumps(payload).encode()
    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(job.max_retries + 1):
        if attempt:
            time.sleep(max(job.retry_backoff * 2 ** (attempt - 1), retry_after))
            retry_after = 0.0
        try:
            status, data, retry_after_header = _post(local.conn, target, body, headers)
        except (OSError, http.client.HTTPException) as exc:  # transport errors
            local.conn.close()
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
            return index, choice["text"], choice.get("finish_reason")
        except (ValueError, LookupError, TypeError, AttributeError) as exc:  # malformed bodies
            last_error = exc
    raise RuntimeError(f"retries exhausted: {last_error}")


def sample_completions(job: SamplingJob, store: RecordStore) -> int:
    """Run the sampling job against the store; returns new samples written.

    Skips (task, sample_index) pairs already present for the job's checkpoint,
    so a rerun after a crash appends exactly the missing samples.
    """
    checkpoint = job.effective_checkpoint_id
    existing: set[tuple[str, str, int]] = {
        (s.benchmark_id, s.task_id, s.sample_index)
        for s in store.load("samples")
        if s.checkpoint_id == checkpoint
    }
    template = job.request_template()
    url = urlsplit(template["url"])
    target = url.path + (f"?{url.query}" if url.query else "")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    states: dict[tuple[str, str], _TaskState] = {}
    units: list[tuple[SamplingTask, int]] = []
    for task in job.tasks:
        missing = [
            i
            for i in range(job.n)
            if (task.benchmark_id, task.task_id, i) not in existing
        ]
        if missing:
            states[(task.benchmark_id, task.task_id)] = _TaskState(task, len(missing))
            units.extend((task, i) for i in missing)

    store.set_metadata("request_template", template)
    written = 0
    failures: list[dict] = []
    # one keep-alive connection per worker thread; the connections close
    # after the pool has joined its workers
    local = threading.local()
    connections = ExitStack()

    def open_connection() -> None:
        local.conn = _connection(url, job.request_timeout)
        connections.callback(local.conn.close)

    with connections, ThreadPoolExecutor(
        max_workers=job.max_concurrency, initializer=open_connection
    ) as pool:
        future_unit = {
            pool.submit(_fetch_one, local, job, target, headers, task, index): (task, index)
            for task, index in units
        }
        try:
            for future in as_completed(future_unit):
                task, index = future_unit.pop(future)  # the result is freed once stored
                key = (task.benchmark_id, task.task_id)
                state = states[key]
                try:
                    idx, text, finish = future.result()
                    state.results.append(
                        Sample(
                            checkpoint_id=checkpoint,
                            benchmark_id=task.benchmark_id,
                            task_id=task.task_id,
                            sample_index=idx,
                            text=text,
                            finish_reason=finish,
                        )
                    )
                except Exception as exc:
                    state.error = str(exc)
                state.pending -= 1
                if state.pending == 0:
                    # task finished: single-writer append in index order
                    del states[key]
                    state.results.sort(key=lambda s: s.sample_index)
                    written += store.append("samples", state.results)
                    if state.error is not None:
                        failures.append(
                            {
                                "task_id": task.task_id,
                                "benchmark": task.benchmark_id,
                                "error": state.error,
                            }
                        )
        except BaseException:
            # a failed coordinator (a store error, Ctrl-C) cancels the requests
            # not yet sent instead of waiting for every one of them on the way out
            pool.shutdown(cancel_futures=True)
            raise

    failures_path = store.root / FAILURES_SIDECAR
    if failures:
        failures.sort(key=lambda f: (f["benchmark"], f["task_id"]))
        with open(failures_path, "w", encoding="utf-8") as fh:
            for entry in failures:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        raise SamplingIncomplete(
            f"{len(failures)} task(s) incomplete after retries "
            f"({written} samples written); see {failures_path}",
            failures_path=failures_path,
        )
    if failures_path.exists():
        failures_path.unlink()  # previous run's sidecar is now stale
    return written
