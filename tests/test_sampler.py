import gc
import json
import socket
import ssl
import threading
import time
import tracemalloc
from urllib.parse import urlsplit

import pytest

from mockserver import _Handler, run_server
from rlready import sampler
from rlready.records import RecordStore, load
from rlready.sampler import (
    SamplingIncomplete,
    SamplingJob,
    SamplingTask,
    _Connection,
    _request_head,
    sample_completions,
)
from rlready.verifier import Sample


def make_job(url, n_tasks=2, n=3, **overrides):
    tasks = tuple(
        SamplingTask(task_id=f"t{i}", problem=f"problem {i}", benchmark_id="bench")
        for i in range(n_tasks)
    )
    defaults = dict(
        endpoint_url=url,
        model_name="test-model",
        tasks=tasks,
        n=n,
        max_concurrency=2,
        max_retries=2,
        retry_backoff=0.01,
        request_timeout=10.0,
    )
    defaults.update(overrides)
    return SamplingJob(**defaults)


class KeepAliveHandler(_Handler):
    """HTTP/1.1 handler that counts the sockets the server accepts."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.sockets += 1


class DroppingHandler(KeepAliveHandler):
    """Closes every connection after one response without announcing it."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class ScriptedHandler(KeepAliveHandler):
    """Writes each response as the server's `script(status, body)` frames it.

    `script` returns the raw bytes to send and whether to close the
    connection after them.
    """

    def _respond(self, status, payload, headers=None):
        raw, close = self.server.script(status, json.dumps(payload).encode())
        self.wfile.write(raw)
        self.close_connection = close


def response(body, *headers, status=200, version=b"1.1"):
    """A raw response: status line, header lines, blank line, body."""
    return b"HTTP/%s %d X\r\n%s\r\n%s" % (
        version, status, b"".join(h + b"\r\n" for h in headers), body
    )


@pytest.fixture
def client_sockets(monkeypatch):
    """The sockets the sampler opens, and every write it makes on them."""
    opened, writes = [], []
    connect, sendall = socket.create_connection, socket.socket.sendall

    def counting_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    def counting_sendall(sock, data, *args):
        if any(sock is s for s in opened):
            writes.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(sampler.socket, "create_connection", counting_connect)
    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    return opened, writes


def serve_with(server, handler):
    server.RequestHandlerClass = handler
    server.sockets = 0
    return server


def stored_keys(store, checkpoint="test-model"):
    return {
        (s.task_id, s.sample_index)
        for s in load("samples", store.path("samples"))
        if s.checkpoint_id == checkpoint
    }


def non_daemon_threads() -> int:
    return sum(not t.daemon for t in threading.enumerate())


class TestSampleCompletions:
    def test_counting_contract(self, tmp_path):
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            written = sample_completions(make_job(server.url), store)
        assert written == 6
        assert stored_keys(store) == {(f"t{i}", j) for i in range(2) for j in range(3)}

    def test_prompt_carries_suffix_and_problem(self, tmp_path):
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=1, n=1, prompt_suffix="SUFFIX")
            sample_completions(job, store)
        (sample,) = load("samples", store.path("samples"))
        # the mock echoes the first prompt line back inside the box
        assert "problem 0" in sample.text
        assert sample.finish_reason == "stop"

    def test_retry_recovers_from_transient_failure(self, tmp_path):
        # first request fails once; budget of 2 retries absorbs it
        with run_server(behavior=lambda no, body: "fail" if no == 1 else "ok") as server:
            store = RecordStore(tmp_path / "store")
            written = sample_completions(make_job(server.url), store)
            assert server.request_count == 7  # 6 successes + 1 injected failure
        assert written == 6

    def test_resume_appends_only_missing(self, tmp_path):
        store_root = tmp_path / "store"
        with run_server() as server:
            job = make_job(server.url)
            store = RecordStore(store_root)
            sample_completions(job, store)
            before = server.request_count
            # simulate a partial earlier run: drop the samples file back to 4 lines
        with run_server() as server:
            job = make_job(server.url)
            full = load("samples", RecordStore(store_root).path("samples"))
            partial_root = tmp_path / "partial"
            partial = RecordStore(partial_root)
            partial.append("samples", full[:4])
            written = sample_completions(job, partial)
            assert written == 2
            assert server.request_count == 2
        assert stored_keys(partial) == {(f"t{i}", j) for i in range(2) for j in range(3)}
        assert before == 6

    def test_rerun_after_success_is_noop(self, tmp_path):
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url)
            assert sample_completions(job, store) == 6
            assert sample_completions(job, store) == 0
            assert server.request_count == 6

    def test_concurrency_never_exceeds_bound(self, tmp_path):
        with run_server(latency=0.03) as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=5, n=4, max_concurrency=2)
            written = sample_completions(job, store)
            assert written == 20
            assert server.max_in_flight <= 2
            assert server.max_in_flight == 2  # the bound is actually exercised
        store.verify()

    def test_one_connection_per_worker_thread(self, tmp_path, client_sockets):
        # the sockets the client opens are the ones the server accepts, at most
        # one per worker, and each is closed when the run returns
        opened, _ = client_sockets
        with run_server() as server:
            serve_with(server, KeepAliveHandler)
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=5, n=4, max_concurrency=2)
            assert sample_completions(job, store) == 20
            assert server.request_count == 20
            assert server.sockets == len(opened)
        assert 1 <= len(opened) <= 2
        assert all(sock.fileno() == -1 for sock in opened)

    def test_keep_alive_reuses_one_socket_per_worker(self, tmp_path):
        # every fifth request is a 500 whose body is read: it keeps the connection
        behavior = lambda no, body: "fail" if no % 5 == 0 else "ok"  # noqa: E731
        with run_server(behavior=behavior) as server:
            serve_with(server, KeepAliveHandler)
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=5, n=4, max_concurrency=2)
            assert sample_completions(job, store) == 20
            assert server.request_count > 20
            assert server.sockets <= 2

    def test_connection_dropped_by_server_is_reopened(self, tmp_path):
        # a keep-alive connection the server closed is not a failed attempt
        with run_server() as server:
            serve_with(server, DroppingHandler)
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=5, n=4, max_retries=0)
            assert sample_completions(job, store) == 20
            assert server.request_count == 20
        store.verify()

    @pytest.mark.parametrize("status", ["408", "429"])
    def test_timeout_and_rate_limit_are_retried(self, tmp_path, status):
        with run_server(behavior=lambda no, body: status if no == 1 else "ok") as server:
            store = RecordStore(tmp_path / "store")
            written = sample_completions(make_job(server.url), store)
            assert server.request_count == 7
        assert written == 6
        assert stored_keys(store) == {(f"t{i}", j) for i in range(2) for j in range(3)}

    def test_retry_after_lengthens_the_backoff(self, tmp_path):
        with run_server(behavior=lambda no, body: "429" if no == 1 else "ok") as server:
            server.retry_after = "1"
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=1, n=1, retry_backoff=0.001)
            start = time.monotonic()
            assert sample_completions(job, store) == 1
            assert time.monotonic() - start >= 1.0

    def test_other_client_errors_fail_at_once(self, tmp_path):
        # the mock answers 404 outside /v1/completions
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url + "/missing", n_tasks=1, n=1, max_retries=2)
            with pytest.raises(SamplingIncomplete) as exc:
                sample_completions(job, store)
            assert server.request_count == 1
        assert "HTTP 404" in exc.value.failures_path.read_text()

    def test_https_verifies_certificate_and_host(self, monkeypatch):
        # the TLS context requires a valid certificate for the URL's host name,
        # which the handshake is given as server_hostname
        conn = _Connection(urlsplit("https://example.com:8443/v1/completions"), timeout=5.0)
        assert conn.context.verify_mode == ssl.CERT_REQUIRED
        assert conn.context.check_hostname
        connected, hostnames = [], []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            connect = socket.create_connection

            def local_connect(address, timeout):
                connected.append((address, timeout))
                return connect(listener.getsockname(), timeout)

            def wrap_socket(sock, server_hostname):
                hostnames.append(server_hostname)
                return sock

            monkeypatch.setattr(sampler.socket, "create_connection", local_connect)
            monkeypatch.setattr(conn.context, "wrap_socket", wrap_socket)
            conn.open()
            conn.close()
        assert connected == [(("example.com", 8443), 5.0)]
        assert hostnames == ["example.com"]

    def test_exhausted_retries_records_sidecar_and_continues(self, tmp_path):
        # requests for task t0 always fail; t1 succeeds
        def behavior(no, body):
            return "fail" if "problem 0" in body.get("prompt", "") else "ok"

        with run_server(behavior=behavior) as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, max_retries=1)
            with pytest.raises(SamplingIncomplete) as exc:
                sample_completions(job, store)
        sidecar = exc.value.failures_path
        assert sidecar.exists()
        content = sidecar.read_text()
        assert "t0" in content and "t1" not in content
        # the healthy task was still written in full
        assert {k for k in stored_keys(store) if k[0] == "t1"} == {("t1", j) for j in range(3)}

    def test_heal_and_resume_after_failures(self, tmp_path):
        def behavior(no, body):
            return "fail" if "problem 0" in body.get("prompt", "") else "ok"

        store = RecordStore(tmp_path / "store")
        with run_server(behavior=behavior) as server:
            with pytest.raises(SamplingIncomplete):
                sample_completions(make_job(server.url, max_retries=0), store)
        with run_server() as server:  # healthy now
            written = sample_completions(make_job(server.url), store)
        assert written == 3  # only t0's samples were missing
        assert stored_keys(store) == {(f"t{i}", j) for i in range(2) for j in range(3)}
        assert not (store.root / "failures.jsonl").exists()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_coordinator_stops_sending_requests(self, tmp_path, monkeypatch, error):
        served_at_failure = []

        def failing_append(self, kind, records):
            served_at_failure.append(server.request_count)
            raise error("simulated store failure")

        monkeypatch.setattr(RecordStore, "append", failing_append)
        with run_server() as server:
            job = make_job(server.url, n_tasks=20, n=4, max_concurrency=2)
            with pytest.raises(error):
                sample_completions(job, RecordStore(tmp_path / "store"))
            # only the requests already in flight may still be served
            assert server.request_count - served_at_failure[0] <= job.max_concurrency + 2
        assert served_at_failure[0] < 20 * 4

    def test_a_worker_relays_what_is_not_an_exception(self, tmp_path, monkeypatch):
        fetch = sampler._fetch_one

        def interrupted(conn, job, head, body, task):
            if task.task_id == "t1":
                raise KeyboardInterrupt("in a worker")
            return fetch(conn, job, head, body, task)

        monkeypatch.setattr(sampler, "_fetch_one", interrupted)
        with run_server() as server:
            # the server's handler threads are daemons that end on their own
            # time after the client closes; a worker is not a daemon
            threads = non_daemon_threads()
            job = make_job(server.url, n_tasks=3, n=2)
            with pytest.raises(KeyboardInterrupt, match="in a worker"):
                sample_completions(job, RecordStore(tmp_path / "store"))
            assert non_daemon_threads() == threads  # every worker was joined

    def test_crash_mid_run_resumes_exactly_once(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        real_append = RecordStore.append
        calls = {"count": 0}

        def crashing_append(self, kind, records):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt("simulated crash")
            return real_append(self, kind, records)

        monkeypatch.setattr(RecordStore, "append", crashing_append)
        with run_server() as server:
            job = make_job(server.url, n_tasks=3, n=2)
            with pytest.raises(KeyboardInterrupt):
                sample_completions(job, store)
        monkeypatch.setattr(RecordStore, "append", real_append)
        surviving = stored_keys(store)
        assert len(surviving) == 2  # exactly one task's worth got durably written
        with run_server() as server:
            written = sample_completions(make_job(server.url, n_tasks=3, n=2), store)
        assert written == 4
        keys = [
            (s.task_id, s.sample_index)
            for s in load("samples", store.path("samples"))  # load enforces key uniqueness
        ]
        assert sorted(keys) == [(f"t{i}", j) for i in range(3) for j in range(2)]

    def test_bearer_token_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RLREADY_API_KEY", "sk-secret")
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            sample_completions(make_job(server.url, n_tasks=1, n=1), store)
            assert server.seen_auth == ["Bearer sk-secret"]

    def test_no_token_no_header(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLREADY_API_KEY", raising=False)
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            sample_completions(make_job(server.url, n_tasks=1, n=1), store)
            assert server.seen_auth == [None]

    def test_request_template_frozen_in_manifest(self, tmp_path):
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            sample_completions(make_job(server.url, n_tasks=1, n=1), store)
        template = store.metadata["request_template"]
        assert template["body"]["n"] == 1
        assert template["body"]["temperature"] == 1.0
        assert template["url"].endswith("/v1/completions")

    def test_every_body_sent_is_the_recorded_template(self, tmp_path):
        bodies = []

        def record(request_no, body):
            bodies.append(body)
            return "fail" if request_no == 2 else "ok"  # a retried body too

        with run_server(behavior=record) as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=2, n=2, prompt_suffix="SUFFIX",
                           temperature=0.7, max_tokens=123)
            sample_completions(job, store)
        template = store.metadata["request_template"]["body"]
        sent = [dict(template, prompt=f"problem {i}\nSUFFIX") for i in range(2)]
        assert len(bodies) == 5  # 4 samples and 1 retry
        assert all(body in sent for body in bodies)
        assert [list(body) for body in bodies] == [list(template)] * 5  # key order too

    def test_unreachable_endpoint(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        job = make_job(
            "http://127.0.0.1:9", n_tasks=1, n=1, max_retries=0, request_timeout=0.5
        )
        with pytest.raises(SamplingIncomplete):
            sample_completions(job, store)

    def test_resume_index_holds_keys_not_texts(self, tmp_path):
        # 100 tasks x 20 samples of about 4 KB, all present: nothing is requested,
        # and the index of what is there must not hold the texts
        job = make_job("http://127.0.0.1:9", n_tasks=100, n=20)
        store = RecordStore(tmp_path / "store")
        for task in job.tasks:
            text = f"{task.task_id} " * 1300
            store.append("samples", [
                Sample("test-model", task.benchmark_id, task.task_id, i, text) for i in range(job.n)
            ])
        size = store.path("samples").stat().st_size
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert sample_completions(job, store) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < size / 4, (peak, size)
        # a key whose id strings are shared with the other keys takes about
        # 108 bytes, one with its own copies 214; the rest of the peak is the
        # reader's hash per key and a line in flight
        assert peak < 300 * job.n * len(job.tasks), peak


    @pytest.mark.parametrize(
        "choice",
        [{"text": None, "finish_reason": 7}, {"text": 5}, {"text": ["a"]},
         {"text": "ok", "finish_reason": 7}, {"text": "ok", "finish_reason": {}}],
    )
    def test_a_choice_of_the_wrong_type_is_retried_and_never_stored(self, tmp_path, choice):
        def script(status, body):
            if b"problem 0" in body:
                body = json.dumps({"choices": [choice]}).encode()
            return response(body, b"Content-Length: %d" % len(body)), False

        store = RecordStore(tmp_path / "store")
        with run_server() as server:
            server.script = script
            serve_with(server, ScriptedHandler)
            with pytest.raises(SamplingIncomplete) as exc:
                sample_completions(make_job(server.url, max_retries=1), store)
            assert server.request_count == 3 * 2 + 3  # t0's samples were tried twice
        assert "malformed choice" in exc.value.failures_path.read_text()
        store.verify()
        assert stored_keys(store) == {("t1", j) for j in range(3)}
        with run_server() as server:  # healthy now
            assert sample_completions(make_job(server.url), store) == 3
        assert stored_keys(store) == {(f"t{i}", j) for i in range(2) for j in range(3)}

    @pytest.mark.parametrize(
        "key", ["sk-secret\r\nX-Injected: 1", "sk-secret\n", "sk-\tsecret", "sk-secret\x7f",
                "sk-secret\x1b", "sk-sécret"],
    )
    def test_api_key_that_is_not_printable_ascii_is_refused_before_any_request(
        self, tmp_path, monkeypatch, key
    ):
        monkeypatch.setenv("RLREADY_API_KEY", key)
        store = RecordStore(tmp_path / "store")
        with run_server() as server:
            with pytest.raises(ValueError, match="RLREADY_API_KEY") as exc:
                sample_completions(make_job(server.url), store)
            assert server.request_count == 0
        assert "secret" not in str(exc.value)
        assert not (store.root / "failures.jsonl").exists()
        assert not store.path("samples").exists()

    @pytest.mark.parametrize(
        "frame,sockets",
        [("chunked", 1), ("interim_1xx", 1), ("http10_keep_alive", 1), ("http10_to_close", 6), ("http11_to_close", 6),
         ("http10_length", 6), ("connection_close", 6)],
    )
    def test_each_framing_is_read(self, tmp_path, client_sockets, frame, sockets):
        # the server closes only a body that runs to the close: the client
        # itself must end a connection that HTTP/1.0 or Connection: close ends
        def script(status, body):
            length = b"Content-Length: %d" % len(body)
            if frame == "chunked":
                # chunk extension and trailer; Transfer-Encoding wins over a
                # Content-Length that does not hold
                chunked = b"4;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: 1\r\n\r\n" % (
                    body[:4], len(body) - 4, body[4:])
                return response(chunked, b"Transfer-Encoding: chunked", b"Content-Length: 3"), False
            if frame == "interim_1xx":
                interim = response(b"", b"Link: </x>", status=103)
                return response(b"", status=100) + interim + response(body, length), False
            if frame == "http10_keep_alive":
                return response(body, length, b"Connection: Keep-Alive", version=b"1.0"), False
            if frame.endswith("_to_close"):
                version = b"1.0" if frame == "http10_to_close" else b"1.1"
                return response(body, b"Content-Type: application/json", version=version), True
            if frame == "http10_length":
                return response(body, length, version=b"1.0"), False
            return response(body, length, b"Connection: close"), False

        with run_server() as server:
            server.script = script
            serve_with(server, ScriptedHandler)
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, max_retries=0, max_concurrency=1)
            assert sample_completions(job, store) == 6
            assert server.request_count == len(client_sockets[1]) == 6  # no write in vain
            assert server.sockets == sockets
        texts = {(s.task_id, s.text, s.finish_reason) for s in load("samples", store.path("samples"))}
        assert texts == {(f"t{i}", f"thinking... \\boxed{{problem {i}}}", "stop") for i in range(2)}

    @pytest.mark.parametrize(
        "bad,error",
        [pytest.param(response(b"{}", b"Content-Length: 1000"),
                      "body ended after 2 of 1000 bytes", id="short_body"),
         pytest.param(b"garbage\r\n\r\n", "malformed status line", id="garbage_status"),
         pytest.param(b"HTTP/1.1 2000 OK\r\n\r\n", "malformed status line", id="status_2000"),
         pytest.param(response(b"", b"X-Big: " + b"a" * 70000),
                      "response line longer than 65536 bytes", id="long_header_line"),
         pytest.param(response(b"", *[b"X-H%d: 1" % i for i in range(101)]),
                      "more than 100 headers", id="101_headers"),
         pytest.param(response(b"zz\r\n", b"Transfer-Encoding: chunked"),
                      "malformed chunk size", id="bad_chunk_size"),
         pytest.param(response(b"{}", b"Content-Length: -2"),
                      "malformed Content-Length", id="negative_length"),
         pytest.param(response(b"{}", b"no colon"), "malformed header line", id="no_colon")],
    )
    def test_a_broken_response_is_a_failed_attempt(self, tmp_path, bad, error):
        # the first two responses are broken: the request is tried twice, then
        # recorded as failed; the third response is whole
        def script(status, body):
            with server.lock:
                served.append(status)
                if len(served) <= 2:
                    return bad, True
            return response(body, b"Content-Length: %d" % len(body)), False

        served = []
        with run_server() as server:
            server.script = script
            serve_with(server, ScriptedHandler)
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=2, n=1, max_retries=1, max_concurrency=1)
            with pytest.raises(SamplingIncomplete) as exc:
                sample_completions(job, store)
            assert server.request_count == 3
        assert error in exc.value.failures_path.read_text()
        assert stored_keys(store) == {("t1", 0)}

    def test_one_write_per_request_with_the_host_of_the_url(self, tmp_path, client_sockets):
        # user-info in the URL never reaches the request
        _, requests = client_sockets
        with run_server(behavior=lambda no, body: "fail" if no == 2 else "ok") as server:
            serve_with(server, KeepAliveHandler)
            host, port = server.server_address
            store = RecordStore(tmp_path / "store")
            job = make_job(f"http://user:pw@{host}:{port}", n_tasks=2, n=2)
            assert sample_completions(job, store) == 4
            assert server.request_count == len(requests) == 5
        for request in requests:
            head, body = request.split(b"\r\n\r\n", 1)
            lines = head.split(b"\r\n")
            assert lines[:2] == [b"POST /v1/completions HTTP/1.1", b"Host: 127.0.0.1:%d" % port]
            assert b"Content-Length: %d" % len(body) in lines
            assert json.loads(body)["model"] == "test-model"
            assert b"user" not in head and b"pw" not in head


@pytest.mark.parametrize(
    "url,host",
    [("http://[::1]:8080/v1", "[::1]:8080"), ("http://[::1]/v1", "[::1]"),
     ("https://[2001:db8::1]:443/v1", "[2001:db8::1]"), ("http://example.com:80/v1", "example.com"),
     ("http://example.com/v1", "example.com"), ("https://example.com:443/v1", "example.com"),
     ("https://example.com:80/v1", "example.com:80"),
     ("http://u:p@Example.COM:8000/v1", "example.com:8000")],
)
def test_host_header_is_written_as_http_client_writes_it(url, host):
    lines = _request_head(urlsplit(url), None).split(b"\r\n")
    assert lines[:2] == [b"POST /v1 HTTP/1.1", b"Host: " + host.encode()]


class TestSamplingJobValidation:
    def test_bounds(self):
        task = SamplingTask("t", "p", "b")
        with pytest.raises(ValueError, match="n must be >= 1"):
            make_job("http://x", n=0)
        with pytest.raises(ValueError, match="temperature"):
            SamplingJob("http://x", "m", (task,), n=1, temperature=-1)
        with pytest.raises(ValueError, match="max_concurrency"):
            SamplingJob("http://x", "m", (task,), n=1, max_concurrency=0)

    @pytest.mark.parametrize(
        "field,value",
        [("n", "4"), ("n", True), ("endpoint_url", 5), ("temperature", "hot"),
         ("temperature", float("nan")), ("temperature", float("inf")),
         ("retry_backoff", -0.1), ("request_timeout", 0), ("request_timeout", float("nan")),
         ("endpoint_url", "localhost:8000"), ("endpoint_url", "ftp://x"),
         ("endpoint_url", "http://"), ("endpoint_url", "http://x:port"),
         ("endpoint_url", "http://x/a b"), ("endpoint_url", "http://x/caf\u00e9")],
    )
    def test_wrong_type_or_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_job("http://x", **{field: value})

    @pytest.mark.parametrize(
        "url", ["http://x", "https://x.example:8443/api/", "http://127.0.0.1:9", "http://[::1]:80",
                "http://b\u00fccher.example"]
    )
    def test_http_urls_with_a_host_accepted(self, url):
        assert make_job(url).endpoint_url == url

    def test_int_accepted_for_float_fields(self):
        job = make_job("http://x", temperature=0, retry_backoff=0, request_timeout=30)
        assert (job.temperature, job.retry_backoff, job.request_timeout) == (0, 0, 30)

    def test_duplicate_tasks_rejected(self):
        task = SamplingTask("t", "p", "b")
        with pytest.raises(ValueError, match="duplicate task"):
            SamplingJob("http://x", "m", (task, task), n=1)

    def test_checkpoint_defaults_to_model(self):
        job = make_job("http://x")
        assert job.effective_checkpoint_id == "test-model"
        job2 = make_job("http://x", checkpoint_id="ckpt-7")
        assert job2.effective_checkpoint_id == "ckpt-7"
