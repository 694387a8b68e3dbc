import http.client
import ssl
import time
from urllib.parse import urlsplit

import pytest

from mockserver import _Handler, run_server
from rlready.records import RecordStore
from rlready.sampler import (
    SamplingIncomplete,
    SamplingJob,
    SamplingTask,
    _connection,
    sample_completions,
)


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


def serve_with(server, handler):
    server.RequestHandlerClass = handler
    server.sockets = 0
    return server


def stored_keys(store, checkpoint="test-model"):
    return {
        (s.task_id, s.sample_index)
        for s in store.load("samples")
        if s.checkpoint_id == checkpoint
    }


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
        (sample,) = store.load("samples")
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
            full = RecordStore(store_root).load("samples")
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

    def test_one_connection_per_worker_thread(self, tmp_path, monkeypatch):
        opened, closed = [], []

        class CountingConnection(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(http.client, "HTTPConnection", CountingConnection)
        with run_server() as server:
            store = RecordStore(tmp_path / "store")
            job = make_job(server.url, n_tasks=5, n=4, max_concurrency=2)
            assert sample_completions(job, store) == 20
            assert server.request_count == 20
        assert 1 <= len(opened) <= 2
        assert set(closed) == set(opened)

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

    def test_https_verifies_certificate_and_host(self):
        conn = _connection(urlsplit("https://example.com:8443"), timeout=5.0)
        assert isinstance(conn, http.client.HTTPSConnection)
        assert (conn.host, conn.port, conn.timeout) == ("example.com", 8443, 5.0)
        assert conn._context.verify_mode == ssl.CERT_REQUIRED
        assert conn._context.check_hostname

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
            for s in store.load("samples")  # load() enforces key uniqueness
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

    def test_unreachable_endpoint(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        job = make_job(
            "http://127.0.0.1:9", n_tasks=1, n=1, max_retries=0, request_timeout=0.5
        )
        with pytest.raises(SamplingIncomplete):
            sample_completions(job, store)


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
         ("endpoint_url", "http://x/a b")],
    )
    def test_wrong_type_or_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_job("http://x", **{field: value})

    @pytest.mark.parametrize(
        "url", ["http://x", "https://x.example:8443/api/", "http://127.0.0.1:9", "http://[::1]:80"]
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
