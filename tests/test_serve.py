"""The HTTP serving layer: protocol, admission, rate limiting, and the
in-process server (docs/SERVING.md)."""

import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.api import topk_search
from repro.exceptions import QueryError, ReproError
from repro.index.storage import Database
from repro.obs import (MetricsCollector, SpanTracer, derive_trace_id,
                       parse_prometheus, validate_report, validate_spans)
from repro.resilience import parse_faults
from repro.serve import (ApiError, AdmissionController, NullRateLimiter,
                         ProtocolError, RateLimiter, ServeConfig,
                         classify_query_error, error_response,
                         outcome_payload, parse_batch_request,
                         parse_head, parse_search_request, search_body,
                         start_in_thread)
from repro.core.result import encode_answer
from repro.service import QueryService


# -- protocol -----------------------------------------------------------------


class TestParseHead:
    def test_request_line_and_headers(self):
        head = (b"POST /search?format=json&x HTTP/1.1\r\n"
                b"Content-Length: 12\r\n"
                b"X-Client-Id: alice\r\n\r\n")
        request = parse_head(head, client="1.2.3.4:5")
        assert request.method == "POST"
        assert request.path == "/search"
        assert request.query == {"format": "json", "x": ""}
        assert request.headers["content-length"] == "12"
        assert request.headers["x-client-id"] == "alice"
        assert request.client == "1.2.3.4:5"
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        head = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert not parse_head(head).keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError, match="request line"):
            parse_head(b"NONSENSE\r\n\r\n")
        with pytest.raises(ProtocolError, match="request line"):
            parse_head(b"GET /x SPDY/99\r\n\r\n")

    def test_malformed_header_line(self):
        with pytest.raises(ProtocolError, match="header line"):
            parse_head(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_body_json_errors_are_structured(self):
        request = parse_head(b"POST /search HTTP/1.1\r\n\r\n")
        with pytest.raises(ApiError) as caught:
            request.json()
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        request.body = b"not json"
        with pytest.raises(ApiError, match="not valid JSON"):
            request.json()
        request.body = b"[1, 2]"
        with pytest.raises(ApiError, match="JSON object"):
            request.json()


class TestSearchRequest:
    def test_defaults(self):
        params = parse_search_request({"keywords": ["a", "b"]})
        assert params.keywords == ["a", "b"]
        assert params.k == 10
        assert params.algorithm == "eager"
        assert params.semantics == "slca"
        assert params.deadline_ms is None
        assert not params.spans

    def test_keyword_string_splits(self):
        assert parse_search_request(
            {"keywords": "a b"}).keywords == ["a", "b"]

    def test_unknown_field_is_named(self):
        with pytest.raises(ApiError) as caught:
            parse_search_request({"keywords": ["a"], "bogus": 1})
        assert caught.value.code == "bad_request"
        assert caught.value.field == "bogus"

    def test_missing_keywords(self):
        with pytest.raises(ApiError) as caught:
            parse_search_request({})
        assert caught.value.field == "keywords"

    @pytest.mark.parametrize("payload,field", [
        ({"keywords": []}, "keywords"),
        ({"keywords": [1]}, "keywords"),
        ({"keywords": ["a"], "k": "ten"}, "k"),
        ({"keywords": ["a"], "k": True}, "k"),
        ({"keywords": ["a"], "algorithm": "magic"}, "algorithm"),
        ({"keywords": ["a"], "semantics": "both"}, "semantics"),
        ({"keywords": ["a"], "deadline_ms": -5}, "deadline_ms"),
        ({"keywords": ["a"], "deadline_ms": "soon"}, "deadline_ms"),
        ({"keywords": ["a"], "spans": "yes"}, "spans"),
    ])
    def test_invalid_fields_are_attributed(self, payload, field):
        with pytest.raises(ApiError) as caught:
            parse_search_request(payload)
        assert caught.value.status == 400
        assert caught.value.field == field


class TestBatchRequest:
    def test_mixed_query_shapes(self):
        params = parse_batch_request(
            {"queries": [["a", "b"], "c d"], "executor": "serial"})
        assert params.queries == [["a", "b"], ["c", "d"]]
        assert params.executor == "serial"
        assert params.workers is None

    @pytest.mark.parametrize("payload,field", [
        ({}, "queries"),
        ({"queries": []}, "queries"),
        ({"queries": "not-a-list"}, "queries"),
        ({"queries": [["a"]], "executor": "gpu"}, "executor"),
        ({"queries": [["a"]], "workers": 0}, "workers"),
    ])
    def test_invalid_fields(self, payload, field):
        with pytest.raises(ApiError) as caught:
            parse_batch_request(payload)
        assert caught.value.field == field


class TestQueryErrorMapping:
    def test_k_errors_map_to_k(self):
        assert classify_query_error(
            QueryError("k must be positive, got 0")) == "k"

    def test_keyword_errors_map_to_keywords(self):
        assert classify_query_error(
            QueryError("duplicate query keyword 'A'")) == "keywords"

    def test_retry_after_header_rounds_up(self):
        raw = error_response(ApiError(429, "overloaded", "full",
                                      retry_after=0.3))
        head = raw.split(b"\r\n\r\n", 1)[0].decode()
        assert "Retry-After: 1" in head


# -- admission ----------------------------------------------------------------


class TestAdmission:
    def test_cap_and_release(self):
        admission = AdmissionController(2)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()
        admission.release()
        assert admission.try_acquire()
        stats = admission.stats()
        assert stats["rejected"] == 1
        assert stats["admitted"] == 3
        assert stats["peak_inflight"] == 2

    def test_drain_refuses_new_work(self):
        admission = AdmissionController(2)
        assert admission.try_acquire()
        admission.begin_drain()
        assert not admission.try_acquire()
        assert admission.stats()["refused_draining"] == 1
        assert admission.inflight() == 1  # the admitted one keeps its slot

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController(1).release()

    def test_wait_idle(self):
        admission = AdmissionController(1)
        assert admission.wait_idle(timeout_s=0.1)
        admission.try_acquire()
        assert not admission.wait_idle(timeout_s=0.05, poll_s=0.01)
        timer = threading.Timer(0.05, admission.release)
        timer.start()
        assert admission.wait_idle(timeout_s=2.0, poll_s=0.01)
        timer.cancel()

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


# -- rate limiting ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateLimiter:
    def test_burst_then_limited(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=2, clock=clock)
        assert limiter.check("alice") is None
        assert limiter.check("alice") is None
        delay = limiter.check("alice")
        assert delay == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=1, clock=clock)
        assert limiter.check("a") is None
        assert limiter.check("a") == pytest.approx(0.5)
        clock.now = 0.5
        assert limiter.check("a") is None

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.check("a") is None
        assert limiter.check("b") is None
        assert limiter.check("a") is not None

    def test_lru_eviction_is_bounded(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=2,
                              clock=clock)
        for client in ("a", "b", "c"):
            limiter.check(client)
        stats = limiter.stats()
        assert stats["clients"] == 2
        assert stats["evicted"] == 1
        # "a" was evicted; a fresh bucket admits it again.
        assert limiter.check("a") is None

    def test_null_limiter_admits_everything(self):
        limiter = NullRateLimiter()
        assert all(limiter.check("x") is None for _ in range(100))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=1, max_clients=0)


# -- the in-process server ----------------------------------------------------


class ServerClient:
    """Tiny keep-alive test client over http.client."""

    def __init__(self, port):
        self.port = port

    def request(self, method, path, payload=None, headers=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            body = json.dumps(payload).encode() \
                if payload is not None else None
            connection.request(method, path, body=body,
                               headers=headers or {})
            response = connection.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw and (
                response.getheader("Content-Type", "")
                .startswith("application/json")) else raw
            return response.status, parsed, {
                name.lower(): value
                for name, value in response.getheaders()}
        finally:
            connection.close()

    def post(self, path, payload, headers=None):
        return self.request("POST", path, payload, headers)

    def get(self, path):
        return self.request("GET", path)


@pytest.fixture()
def server(figure1_db):
    collector = MetricsCollector()
    service = QueryService(figure1_db, collector=collector)
    handle = start_in_thread(
        service, ServeConfig(max_inflight=4),
        collector=collector)
    yield {"handle": handle, "service": service,
           "db": figure1_db, "collector": collector,
           "client": ServerClient(handle.port)}
    assert handle.stop() == 0


class TestServerEndpoints:
    def test_search_is_bit_identical_to_topk_search(self, server):
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1", "k2"], "k": 5})
        assert status == 200
        local = topk_search(server["db"], ["k1", "k2"], 5)
        assert [(r["code"], r["probability"])
                for r in body["results"]] == \
            [(str(r.code), r.probability) for r in local.results]
        assert body["partial"] is False
        assert body["termination_reason"] == "complete"
        assert body["service_state"]["epoch"] == 1
        assert "trace_id" in body

    def test_search_maps_query_errors_to_structured_400(self, server):
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1"], "k": 0})
        assert status == 400
        assert body["error"]["code"] == "invalid_query"
        assert body["error"]["field"] == "k"
        assert "k must be positive" in body["error"]["message"]

    def test_duplicate_keyword_400(self, server):
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1", "K1"], "k": 3})
        assert status == 400
        assert body["error"]["code"] == "invalid_query"
        assert body["error"]["field"] == "keywords"

    def test_unknown_field_400(self, server):
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1"], "bogus": 1})
        assert status == 400
        assert body["error"]["field"] == "bogus"

    def test_malformed_json_400(self, server):
        client = server["client"]
        connection = http.client.HTTPConnection("127.0.0.1",
                                                client.port, timeout=30)
        try:
            connection.request("POST", "/search", body=b"{nope")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad_request"
        finally:
            connection.close()

    def test_unknown_path_404(self, server):
        status, body, _ = server["client"].get("/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405(self, server):
        status, body, _ = server["client"].post("/health", {})
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_health_shape(self, server):
        status, body, _ = server["client"].get("/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] == 1
        assert body["breaker"]["state"] == "closed"
        assert body["admission"]["max_inflight"] == 4
        assert body["reload_in_flight"] is False

    def test_batch_aligns_with_single_searches(self, server):
        queries = [["k1"], ["k1", "k2"], ["k2"]]
        status, body, _ = server["client"].post(
            "/batch", {"queries": queries, "k": 4,
                       "executor": "serial"})
        assert status == 200
        assert body["stats"] == {"queries": 3, "partial": 0,
                                 "errors": 0, "executor": "serial",
                                 "workers": 1}
        for query, outcome in zip(queries, body["outcomes"]):
            local = topk_search(server["db"], query, 4)
            assert [(r["code"], r["probability"])
                    for r in outcome["results"]] == \
                [(str(r.code), r.probability) for r in local.results]

    def test_serial_batches_report_one_worker(self, figure1_db,
                                              tmp_path):
        """A serial batch asked for two workers runs one at a time;
        the document service, the corpus service and /batch over
        either all say so."""
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(11), tmp_path / "corpus", shards=2)
        queries = [["k1"], ["k1", "k2"]]
        for service in (QueryService(figure1_db),
                        CorpusService(str(tmp_path / "corpus"))):
            stats = service.batch_search(queries, workers=2).stats
            assert (stats["executor"], stats["workers"]) == \
                ("serial", 1), type(service).__name__
            handle = start_in_thread(service, ServeConfig())
            try:
                status, body, _ = ServerClient(handle.port).post(
                    "/batch", {"queries": queries, "workers": 2})
            finally:
                handle.stop()
            assert status == 200
            assert (body["stats"]["executor"],
                    body["stats"]["workers"]) == ("serial", 1)

    def test_metrics_prometheus_scrape(self, server):
        # Prime at least one request so timer quantiles exist.
        server["client"].post("/search", {"keywords": ["k1"]})
        status, raw, headers = server["client"].get("/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        samples = parse_prometheus(raw.decode())
        assert samples["repro_serve_admission_max_inflight"] == 4
        assert any(name.startswith("repro_serve_generation_info{")
                   for name in samples)
        assert any('quantile="0.99"' in name for name in samples)

    def test_metrics_json_is_valid_v2_report(self, server):
        status, body, _ = server["client"].get("/metrics?format=json")
        assert status == 200
        report = validate_report(body)
        assert report["schema"] == "repro.metrics/v2"
        assert "admission" in report["stats"]["serve"]

    def test_reload_of_adhoc_source_is_structured_500(self, server):
        status, body, _ = server["client"].post("/reload", {})
        assert status == 500
        assert body["error"]["code"] == "reload_failed"
        # The old generation keeps serving.
        status, _, _ = server["client"].post(
            "/search", {"keywords": ["k1"]})
        assert status == 200

    def test_reload_conflict_while_in_flight(self, server):
        server["handle"].server._reload_inflight = True
        try:
            status, body, _ = server["client"].post("/reload", {})
            assert status == 409
            assert body["error"]["code"] == "reload_in_flight"
        finally:
            server["handle"].server._reload_inflight = False

    def test_served_query_produces_cli_equivalent_span_tree(self, server):
        from repro.obs import SpanTracer
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1", "k2"], "k": 3,
                        "spans": True})
        assert status == 200
        served = {span["name"] for span in body["spans"]}
        tracer = SpanTracer(trace_id="cli")
        server["service"].search(["k1", "k2"], 3, tracer=tracer)
        cli = {span.name for span in tracer.finished}
        # The served tree is the CLI tree under one http.request root.
        assert cli <= served
        assert "http.request" in served
        assert "query" in served

    def test_responses_count_into_metrics(self, server):
        before = server["collector"].counter("serve.requests")
        server["client"].get("/health")
        assert server["collector"].counter("serve.requests") == \
            before + 1


class TestOverloadAndRateLimit:
    def test_overload_returns_429_with_retry_after(self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(
            service, ServeConfig(max_inflight=1),
            faults=parse_faults("slow_query:delay_ms=300"))
        client = ServerClient(handle.port)
        results = []

        def one():
            results.append(client.post("/search",
                                       {"keywords": ["k1"]}))

        threads = [threading.Thread(target=one) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = sorted(status for status, _, _ in results)
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        assert set(statuses) <= {200, 429}
        for status, body, headers in results:
            if status == 429:
                assert body["error"]["code"] == "overloaded"
                assert int(headers["retry-after"]) >= 1
        # Shedding the burst leaves the server healthy: the next
        # search is admitted and answered.
        assert client.post("/search", {"keywords": ["k1"]})[0] == 200
        assert handle.stop() == 0

    def test_rate_limit_keyed_by_trusted_header(self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(
            service, ServeConfig(max_inflight=4, rate=0.001, burst=2,
                                 trust_client_header=True))
        client = ServerClient(handle.port)
        try:
            alice = {"X-Client-Id": "alice"}
            bob = {"X-Client-Id": "bob"}
            assert client.post("/search", {"keywords": ["k1"]},
                               alice)[0] == 200
            assert client.post("/search", {"keywords": ["k1"]},
                               alice)[0] == 200
            status, body, headers = client.post(
                "/search", {"keywords": ["k1"]}, alice)
            assert status == 429
            assert body["error"]["code"] == "rate_limited"
            assert "retry-after" in headers
            # A different client id is a different bucket.
            assert client.post("/search", {"keywords": ["k1"]},
                               bob)[0] == 200
        finally:
            assert handle.stop() == 0

    def test_header_is_ignored_without_trust(self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(
            service, ServeConfig(max_inflight=4, rate=0.001, burst=2))
        client = ServerClient(handle.port)
        try:
            # By default identity is the peer address, so rotating
            # client ids cannot dodge the bucket or churn the LRU.
            for index, expected in enumerate((200, 200, 429)):
                status, _, _ = client.post(
                    "/search", {"keywords": ["k1"]},
                    {"X-Client-Id": f"sock-puppet-{index}"})
                assert status == expected
            assert handle.server._ratelimit.stats()["clients"] == 1
        finally:
            assert handle.stop() == 0


class TestInProcessDrain:
    def test_drain_completes_inflight_and_refuses_new(self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(
            service, ServeConfig(max_inflight=2),
            faults=parse_faults("slow_query:delay_ms=400"))
        client = ServerClient(handle.port)
        slow_result = {}

        def slow():
            slow_result["response"] = client.post(
                "/search", {"keywords": ["k1"]})

        thread = threading.Thread(target=slow)
        thread.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if handle.server._admission.inflight() > 0:
                break
            time.sleep(0.01)
        assert handle.server._admission.inflight() > 0
        handle.server.request_stop()
        thread.join(timeout=10)
        status, body, headers = slow_result["response"]
        assert status == 200
        assert body["service_state"]["epoch"] == 1
        # A response written during drain tells the client to close.
        assert headers["connection"] == "close"
        # The listener is gone: a new connection must be refused.
        with pytest.raises(OSError):
            http.client.HTTPConnection(
                "127.0.0.1", client.port, timeout=2).request(
                "GET", "/health")
        assert handle.stop() == 0

    def test_idle_keep_alive_connection_does_not_block_drain(
            self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(service, ServeConfig(max_inflight=2))
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10)
        try:
            connection.request("GET", "/health")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Connection") == "keep-alive"
            # The connection stays open and idle; drain must close it
            # rather than wait out the 30s drain timeout (or, on
            # Python >= 3.12.1, hang in Server.wait_closed forever).
            started = time.time()
            assert handle.stop(timeout_s=5.0) == 0
            assert time.time() - started < 5.0
        finally:
            connection.close()

    def test_stragglers_are_cancelled_at_drain_timeout(
            self, figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(
            service, ServeConfig(max_inflight=2, drain_timeout_s=0.3),
            faults=parse_faults("slow_query:delay_ms=3000"))
        client = ServerClient(handle.port)
        slow_result = {}

        def slow():
            try:
                slow_result["response"] = client.post(
                    "/search", {"keywords": ["k1"]})
            except OSError as error:
                slow_result["error"] = error

        thread = threading.Thread(target=slow)
        thread.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if handle.server._admission.inflight() > 0:
                break
            time.sleep(0.01)
        assert handle.server._admission.inflight() > 0
        started = time.time()
        # The 3s query outlives the 0.3s drain budget: its connection
        # is cancelled and the server still exits 0, promptly.
        assert handle.stop(timeout_s=10.0) == 0
        assert time.time() - started < 2.5
        thread.join(timeout=10)
        assert "response" in slow_result or "error" in slow_result


class TestStartInThread:
    def test_port_conflict_surfaces_as_error(self, figure1_db):
        service = QueryService(figure1_db)
        first = start_in_thread(service, ServeConfig())
        try:
            with pytest.raises(ReproError, match="failed to start"):
                start_in_thread(service,
                                ServeConfig(port=first.port))
        finally:
            assert first.stop() == 0


# -- rate-limit peer keying (the IPv6 satellite bugfix) -----------------------


class RecordingLimiter:
    """A rate limiter that admits everything and remembers the keys."""

    def __init__(self):
        self.keys = []

    def check(self, client):
        self.keys.append(client)
        return None

    def stats(self):
        return {"buckets": 0}


class TestRateLimitPeerKeying:
    """Buckets must key on the host element of the socket address
    tuple, never on string-parsing the display address — splitting
    ``[::1]:51000`` at its last colon would shear an IPv6 peer into
    one bucket per source port."""

    def make_server(self, figure1_db):
        from repro.serve import ServeServer
        service = QueryService(figure1_db)
        limiter = RecordingLimiter()
        server = ServeServer(service, ServeConfig(rate=100.0),
                             ratelimiter=limiter)
        return server, limiter

    def admit(self, server, client, client_host, headers=b""):
        request = parse_head(b"POST /search HTTP/1.1\r\n" + headers
                             + b"\r\n",
                             client=client, client_host=client_host)
        server._admit(request)
        server._admission.release()

    def test_ipv6_ports_share_one_bucket(self, figure1_db):
        server, limiter = self.make_server(figure1_db)
        self.admit(server, "[::1]:51000", "::1")
        self.admit(server, "[::1]:51001", "::1")
        assert limiter.keys == ["::1", "::1"]

    def test_ipv4_mapped_peer_keys_whole_address(self, figure1_db):
        server, limiter = self.make_server(figure1_db)
        self.admit(server, "[::ffff:127.0.0.1]:4242",
                   "::ffff:127.0.0.1")
        assert limiter.keys == ["::ffff:127.0.0.1"]

    def test_ipv4_peer_keys_on_host_not_port(self, figure1_db):
        server, limiter = self.make_server(figure1_db)
        self.admit(server, "1.2.3.4:5678", "1.2.3.4")
        self.admit(server, "1.2.3.4:5679", "1.2.3.4")
        assert limiter.keys == ["1.2.3.4", "1.2.3.4"]

    def test_missing_host_falls_back_to_display_string(
            self, figure1_db):
        server, limiter = self.make_server(figure1_db)
        self.admit(server, "unknown", "")
        assert limiter.keys == ["unknown"]

    def test_trusted_header_still_wins(self, figure1_db):
        from repro.serve import ServeServer
        service = QueryService(figure1_db)
        limiter = RecordingLimiter()
        server = ServeServer(
            service, ServeConfig(rate=100.0,
                                 trust_client_header=True),
            ratelimiter=limiter)
        request = parse_head(b"POST /search HTTP/1.1\r\n"
                             b"X-Client-Id: alice\r\n\r\n",
                             client="[::1]:51000", client_host="::1")
        server._admit(request)
        server._admission.release()
        assert limiter.keys == ["alice"]


# -- draining Retry-After + deadline stamping (replication PR satellites) -----


class TestDrainingRetryAfter:
    def test_draining_503_carries_retry_after(self, figure1_db):
        # Satellite bugfix: a request caught by the drain must get
        # the same back-off signal a 429 carries.  (New connections
        # are dropped at accept during drain; the 503 is for requests
        # already in flight when drain begins, so the deterministic
        # probe is the admission layer itself.)
        from repro.serve import ServeServer
        server = ServeServer(QueryService(figure1_db), ServeConfig())
        server._admission.begin_drain()
        request = parse_head(b"POST /search HTTP/1.1\r\n\r\n",
                             client="1.2.3.4:5678",
                             client_host="1.2.3.4")
        with pytest.raises(ApiError) as caught:
            server._admit(request)
        error = caught.value
        assert error.status == 503
        assert error.code == "draining"
        head = error_response(error).split(b"\r\n\r\n", 1)[0].decode()
        assert "Retry-After: 1" in head


class TestDeadlineStamping:
    def test_deadline_ms_is_stamped_and_produces_honest_partials(
            self, server):
        # The server stamps one absolute Deadline at admission; a
        # budget this small expires inside the engine, which must
        # surface as an honest partial — never a 5xx.
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1", "k2"], "deadline_ms": 1e-4})
        assert status == 200
        assert body["partial"] is True
        assert body["termination_reason"] == "deadline"

    def test_generous_deadline_changes_nothing(self, server):
        status, body, _ = server["client"].post(
            "/search", {"keywords": ["k1", "k2"],
                        "deadline_ms": 60000})
        assert status == 200
        assert body["partial"] is False


# -- opt-in span trees and always-on layer timers -----------------------------

#: The span tree of one ``spans: true`` /search per scenario, as the
#: parent of the opt-in-tracing change served it.  Regenerate with
#: ``PYTHONPATH=src python -m tests.test_serve --write`` only for an
#: intended change to the served span tree.
SPAN_TREES = Path(__file__).parent / "data" / "served_span_trees.json"

#: (scenario, source kind, corpus executor, request body) of every
#: pinned ``spans: true`` search.
SPAN_SCENARIOS = (
    ("document-eager", "document", None,
     {"keywords": ["k1", "k2"], "k": 3}),
    ("document-prstack", "document", None,
     {"keywords": ["k1", "k2"], "k": 3, "algorithm": "prstack"}),
    ("corpus-serial", "corpus", "serial",
     {"keywords": ["k1", "k2"], "k": 3}),
    ("corpus-process", "corpus", "process",
     {"keywords": ["k1", "k2"], "k": 3}),
)

#: The global merge of each answered corpus visit, and each process
#: submit.
MERGE_PATH = "http.request/corpus.search/corpus.merge"
SUBMIT_PATH = "http.request/corpus.search/corpus.shard/corpus.submit"

#: The always-on per-request layers on /metrics.
LAYERS = ("parse", "queue", "service", "encode", "unattributed")


def span_paths(spans):
    """Each span as the names on its path from the root, joined by
    ``/``: the tree's names and parentage without ids or timings."""
    by_id = {span["span_id"]: span for span in spans}

    def path(span):
        names = []
        while span is not None:
            names.append(span["name"])
            span = by_id.get(span["parent_id"])
        return "/".join(reversed(names))

    return sorted(path(span) for span in spans)


def served_spans(service, body):
    """One ``spans: true`` /search on a fresh server over ``service``."""
    handle = start_in_thread(service, ServeConfig())
    try:
        status, answer, _ = ServerClient(handle.port).post(
            "/search", dict(body, spans=True))
    finally:
        handle.stop()
    assert status == 200, answer
    return validate_spans(answer["spans"])


def served_span_trees():
    """Every scenario's span paths, each from cold caches."""
    from repro.corpus import CorpusService, build_corpus
    from tests.conftest import build_figure1_doc
    from tests.test_corpus import random_corpus
    trees = {}
    with tempfile.TemporaryDirectory() as workdir:
        directory = f"{workdir}/corpus"
        build_corpus(random_corpus(11), directory, shards=3)
        for name, kind, executor, body in SPAN_SCENARIOS:
            service = QueryService(Database.from_document(
                build_figure1_doc())) if kind == "document" \
                else CorpusService(directory, executor=executor)
            trees[name] = span_paths(served_spans(service, body))
    return trees


class CountingTracers:
    """Counts every :class:`SpanTracer` constructed while installed."""

    def __init__(self, monkeypatch):
        self.built = 0
        original = SpanTracer.__init__

        def counting(tracer, *args, **kwargs):
            self.built += 1
            original(tracer, *args, **kwargs)

        monkeypatch.setattr(SpanTracer, "__init__", counting)


class TestOptInTracing:
    def test_untraced_search_and_batch_build_no_span_tracer(
            self, server, monkeypatch):
        tracers = CountingTracers(monkeypatch)
        client = server["client"]
        status, body, _ = client.post("/search",
                                      {"keywords": ["k1", "k2"]})
        assert status == 200 and "spans" not in body
        status, body, _ = client.post(
            "/batch", {"queries": [["k1"], ["k2"]],
                       "executor": "serial"})
        assert status == 200
        assert tracers.built == 0
        status, body, _ = client.post(
            "/search", {"keywords": ["k1", "k2"], "spans": True})
        assert status == 200 and body["spans"]
        assert tracers.built == 1

    def test_untraced_responses_carry_the_derived_trace_id(self, server):
        client = server["client"]
        _, search, _ = client.post("/search",
                                   {"keywords": ["k1", "k2"], "k": 5})
        assert search["trace_id"] == derive_trace_id(
            "serve", 1, "k1 k2", 5, "eager", "slca")
        _, batch, _ = client.post("/batch", {"queries": [["k1"]],
                                             "k": 4})
        assert batch["trace_id"] == derive_trace_id(
            "serve.batch", 2, 4, "eager", "slca", "k1")
        _, traced, _ = client.post("/search",
                                   {"keywords": ["k1", "k2"], "k": 5,
                                    "spans": True})
        assert traced["trace_id"] == derive_trace_id(
            "serve", 3, "k1 k2", 5, "eager", "slca")
        assert {span["trace_id"] for span in traced["spans"]} == \
            {traced["trace_id"]}

    def test_span_trees_match_the_pinned_trees(self):
        pinned = json.loads(SPAN_TREES.read_text(encoding="utf-8"))
        trees = served_span_trees()
        assert sorted(trees) == sorted(pinned)
        for name, kind, executor, _ in SPAN_SCENARIOS:
            paths = trees[name]
            assert paths == pinned[name], name
            visits = paths.count("http.request/corpus.search/"
                                 "corpus.shard")
            if kind == "document":
                assert MERGE_PATH not in paths, name
                continue
            # One global merge per answered visit; one submit per
            # process visit (none failed, none hedged).
            assert visits and paths.count(MERGE_PATH) == visits, name
            assert paths.count(SUBMIT_PATH) == \
                (visits if executor == "process" else 0), name


class TestLayerTimers:
    def layer_summaries(self, server, requests):
        client = server["client"]
        for position in range(requests):
            status, _, _ = client.post(
                "/search", {"keywords": ["k1", "k2"],
                            "k": 1 + position % 5})
            assert status == 200
        status, _, _ = client.post("/batch",
                                   {"queries": [["k1"], ["k2"]]})
        assert status == 200
        # An error answer folds no layers.
        status, _, _ = client.post("/search", {"keywords": ["k1"],
                                               "k": 0})
        assert status == 400
        histograms = server["collector"].snapshot()["histograms"]
        return histograms

    def test_layers_sum_to_the_request_time(self, server):
        histograms = self.layer_summaries(server, 6)
        request = histograms["serve.request_ms"]
        assert request["count"] == 7
        total = 0.0
        for layer in LAYERS:
            summary = histograms[f"serve.layer.{layer}_ms"]
            assert summary["count"] == 7, layer
            assert summary["min"] >= 0.0 or layer == "unattributed"
            total += summary["sum"]
        assert total == pytest.approx(request["sum"], rel=1e-6,
                                      abs=1e-3)

    def test_layers_and_engine_counters_reach_metrics(self, server):
        self.layer_summaries(server, 3)
        status, raw, _ = server["client"].get("/metrics")
        assert status == 200
        samples = parse_prometheus(raw.decode())
        for layer in LAYERS:
            assert samples[f"repro_serve_layer_{layer}_ms_count"] == 4
            assert f'repro_serve_layer_{layer}_ms{{quantile="0.5"}}' \
                in samples
        assert samples["repro_serve_request_ms_count"] == 4
        # Untraced searches still feed the engine counters.
        assert any(name.startswith(("repro_engine_", "repro_eager_"))
                   for name in samples)



# -- result-cache replays answered on the event loop -------------------------


def on_executor(name):
    """Whether a thread name is one of the server's worker threads
    (``ThreadPoolExecutor`` names them ``<prefix>_<n>``; the loop
    thread :func:`start_in_thread` runs is ``repro-serve`` itself)."""
    return name.startswith("repro-serve_")


def recording(service_class):
    """``service_class`` with every ``search`` noting its thread."""

    class Recording(service_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.threads = []

        def search(self, *args, **kwargs):
            self.threads.append(threading.current_thread().name)
            return super().search(*args, **kwargs)

    return Recording


#: A fault injector that is armed (so the server takes its executor
#: path for every search) but never strikes the queries used here.
INERT_FAULTS = "slow_query:terms=zzz,delay_ms=1"


def serve_requests(service, bodies, faults=None, collector=None):
    """POST every body to /search on a fresh server over ``service``;
    returns the responses and the server's collector."""
    collector = collector if collector is not None else MetricsCollector()
    handle = start_in_thread(
        service, ServeConfig(max_inflight=4), collector=collector,
        faults=parse_faults(faults) if faults else None)
    try:
        client = ServerClient(handle.port)
        responses = [client.post("/search", body) for body in bodies]
    finally:
        assert handle.stop() == 0
    for status, body, _ in responses:
        assert status == 200, body
    return [body for _, body, _ in responses], collector


def without(body, *fields):
    return {key: value for key, value in body.items()
            if key not in fields}


class TestLoopReplays:
    QUERY = {"keywords": ["k1", "k2"], "k": 3}

    def test_repeat_is_answered_without_an_executor_thread(
            self, figure1_db):
        service = recording(QueryService)(figure1_db)
        (first, repeat), collector = serve_requests(
            service, [self.QUERY, self.QUERY])
        computed, replayed = service.threads
        assert on_executor(computed)
        assert not on_executor(replayed)
        assert collector.counter("serve.replays_on_loop") == 1
        # Same answer; only the timing and the per-request id differ.
        assert without(repeat, "elapsed_ms", "trace_id") == \
            without(first, "elapsed_ms", "trace_id")

    def test_loop_replay_bytes_match_the_executor_path(self, figure1_db):
        on_loop, _ = serve_requests(QueryService(figure1_db),
                                    [self.QUERY, self.QUERY])
        hopped, collector = serve_requests(
            QueryService(figure1_db), [self.QUERY, self.QUERY],
            faults=INERT_FAULTS)
        assert collector.counter("serve.replays_on_loop") == 0
        assert without(on_loop[1], "elapsed_ms") == \
            without(hopped[1], "elapsed_ms")

    def test_armed_slow_query_still_delays_a_repeat(self, figure1_db):
        service = recording(QueryService)(figure1_db)
        collector = MetricsCollector()
        handle = start_in_thread(
            service, ServeConfig(max_inflight=2), collector=collector,
            faults=parse_faults("slow_query:delay_ms=300"))
        try:
            client = ServerClient(handle.port)
            assert client.post("/search", self.QUERY)[0] == 200
            started = time.perf_counter()
            assert client.post("/search", self.QUERY)[0] == 200
            assert time.perf_counter() - started >= 0.3
        finally:
            assert handle.stop() == 0
        assert all(on_executor(name) for name in service.threads)
        assert collector.counter("serve.replays_on_loop") == 0
        # The repeat was still a result-cache replay, on a worker.
        assert service.cache_stats()["results"]["hits"] == 1

    def test_deadline_requests_never_replay(self, figure1_db):
        service = recording(QueryService)(figure1_db)
        body = dict(self.QUERY, deadline_ms=60000)
        _, collector = serve_requests(service, [body, body])
        assert len(service.threads) == 2
        assert all(on_executor(name) for name in service.threads)
        assert collector.counter("serve.replays_on_loop") == 0
        results = service.cache_stats()["results"]
        assert results["hits"] == results["misses"] == 0

    def test_sanitized_server_never_replays(self, figure1_db,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        service = recording(QueryService)(figure1_db)
        _, collector = serve_requests(service, [self.QUERY, self.QUERY])
        assert all(on_executor(name) for name in service.threads)
        assert collector.counter("serve.replays_on_loop") == 0
        assert service.cache_stats()["results"]["hits"] == 0

    def test_hits_misses_and_queries_count_once(self, figure1_db):
        collector = MetricsCollector()
        service = QueryService(figure1_db, collector=collector)
        distinct = [{"keywords": ["k1", "k2"], "k": k} for k in (1, 2, 3)]
        repeats = [distinct[0], distinct[2], distinct[0]]
        bodies = distinct + repeats
        serve_requests(service, bodies, collector=collector)
        requests, replays = len(bodies), len(repeats)
        assert collector.counter("service.cache.results.hits") == replays
        assert collector.counter("service.cache.results.misses") == \
            requests - replays
        assert collector.counter("service.queries") == requests
        assert collector.counter("serve.replays_on_loop") == replays
        results = service.cache_stats()["results"]
        assert (results["hits"], results["misses"]) == \
            (replays, requests - replays)

    def test_traced_replay_has_the_same_span_tree_on_either_thread(
            self, figure1_db):
        traced = dict(self.QUERY, spans=True)
        on_loop, _ = serve_requests(QueryService(figure1_db),
                                    [self.QUERY, traced])
        hopped, _ = serve_requests(QueryService(figure1_db),
                                   [self.QUERY, traced],
                                   faults=INERT_FAULTS)
        loop_spans = validate_spans(on_loop[1]["spans"])
        assert span_paths(loop_spans) == \
            span_paths(validate_spans(hopped[1]["spans"]))
        assert span_paths(loop_spans) == ["http.request",
                                          "http.request/query"]
        query, = [span for span in loop_spans if span["name"] == "query"]
        assert query["attrs"]["cache"] == "result_cache"

    def test_corpus_server_never_answers_on_the_loop(self, tmp_path):
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(11), tmp_path / "corpus", shards=2)
        service = recording(CorpusService)(str(tmp_path / "corpus"),
                                           executor="serial")
        first, collector = serve_requests(service,
                                          [self.QUERY, self.QUERY])
        assert len(service.threads) == 2
        assert all(on_executor(name) for name in service.threads)
        assert collector.counter("serve.replays_on_loop") == 0
        assert first[0]["results"] == first[1]["results"]

# -- /search bodies: one builder, byte-identical to the old encoding ---------


def post_raw(port, body):
    """POST ``body`` to /search; returns the raw response body bytes."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/search",
                           body=json.dumps(body).encode())
        response = connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw
    finally:
        connection.close()


def old_encoding(outcome, raw):
    """What the server sent before /search bodies were spliced:
    ``json.dumps`` of the outcome's payload with sorted keys and
    compact separators, with the per-request ``elapsed_ms``,
    ``trace_id`` and ``spans`` read back from the served body."""
    served = json.loads(raw)
    payload = outcome_payload(outcome, spans=served.get("spans"))
    payload["elapsed_ms"] = served["elapsed_ms"]
    payload["trace_id"] = served["trace_id"]
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class SplicedAnswers:
    """Records the cached answer each /search body was spliced from."""

    def __init__(self, monkeypatch):
        import repro.serve.server as server_module
        self.encoded = []
        original = server_module.search_body

        def recording(outcome, *args):
            self.encoded.append(args[-1])
            return original(outcome, *args)

        monkeypatch.setattr(server_module, "search_body", recording)


#: A p-document whose labels and keywords are not ASCII, with answer
#: probabilities whose shortest repr runs to 17 digits.
UNICODE_PXML = (
    "<bibliothèque><livre>café crème<ind>"
    "<titre prob=\"0.1\">café</titre></ind></livre>"
    "<ind><revue prob=\"0.1\"><mux><numéro prob=\"0.7\">café crème"
    "</numéro></mux></revue></ind>"
    "<ind><thèse prob=\"1e-9\">café ☃ crème</thèse></ind>"
    "</bibliothèque>")


class TestSearchBodyBytes:
    QUERY = {"keywords": ["k1", "k2"], "k": 3}

    def test_computed_and_replayed_bodies_match_the_old_encoding(
            self, figure1_db, monkeypatch):
        spliced = SplicedAnswers(monkeypatch)
        service = QueryService(figure1_db)
        handle = start_in_thread(service, ServeConfig())
        try:
            computed = post_raw(handle.port, self.QUERY)
            replayed = post_raw(handle.port, self.QUERY)
        finally:
            assert handle.stop() == 0
        local = service.search(["k1", "k2"], 3)
        assert computed == old_encoding(local, computed)
        assert replayed == old_encoding(local, replayed)
        # The computed body splices the bytes its new cache entry
        # holds, which every replay shares.
        assert spliced.encoded[0] is not None
        assert spliced.encoded[1] is spliced.encoded[0]

    def test_spans_on_a_hit_sort_between_state_and_reason(self,
                                                          figure1_db):
        service = QueryService(figure1_db)
        handle = start_in_thread(service, ServeConfig())
        try:
            post_raw(handle.port, self.QUERY)
            traced = post_raw(handle.port, dict(self.QUERY, spans=True))
        finally:
            assert handle.stop() == 0
        assert service.cache_stats()["results"]["hits"] == 1
        assert traced == old_encoding(service.search(["k1", "k2"], 3),
                                      traced)
        assert traced.index(b'"service_state":') \
            < traced.index(b'"spans":') \
            < traced.index(b'"termination_reason":')

    def test_replays_before_and_after_a_reload(self, figure1_db,
                                               tmp_path):
        from repro.index.storage import save_database
        save_database(figure1_db, tmp_path / "db")
        service = QueryService(str(tmp_path / "db"))
        handle = start_in_thread(service, ServeConfig())
        try:
            before = [post_raw(handle.port, self.QUERY)
                      for _ in range(2)]
            old = service.search(["k1", "k2"], 3)
            save_database(figure1_db, tmp_path / "db")
            ServerClient(handle.port).post("/reload", {})
            after = [post_raw(handle.port, self.QUERY)
                     for _ in range(2)]
            new = service.search(["k1", "k2"], 3)
        finally:
            assert handle.stop() == 0
        assert new.stats["service_state"] != old.stats["service_state"]
        assert new.stats["service_state"]["epoch"] == 2
        for raw in before:
            assert raw == old_encoding(old, raw)
        for raw in after:
            assert raw == old_encoding(new, raw)

    def test_unicode_labels_and_long_probabilities(self, tmp_path):
        from repro import parse_pxml
        service = QueryService(Database.from_document(
            parse_pxml(UNICODE_PXML)))
        query = {"keywords": ["café", "crème"], "k": 5}
        handle = start_in_thread(service, ServeConfig())
        try:
            bodies = [post_raw(handle.port, query) for _ in range(2)]
        finally:
            assert handle.stop() == 0
        local = service.search(["café", "crème"], 5)
        labels = {result.label for result in local.results}
        assert any(not label.isascii() for label in labels)
        assert any(len(repr(result.probability)) >= 17
                   for result in local.results)
        for raw in bodies:
            assert raw.isascii() and b"\\u00e8" in raw
            assert raw == old_encoding(local, raw)

    def test_a_corpus_body_matches_the_old_encoding(self, tmp_path):
        from repro.corpus import CorpusService, build_corpus
        from tests.test_corpus import random_corpus
        build_corpus(random_corpus(11), tmp_path / "corpus", shards=2)
        service = CorpusService(str(tmp_path / "corpus"),
                                executor="serial")
        handle = start_in_thread(service, ServeConfig())
        try:
            bodies = [post_raw(handle.port, self.QUERY)
                      for _ in range(2)]
        finally:
            assert handle.stop() == 0
        local = service.search(["k1", "k2"], 3)
        assert "corpus" in local.stats
        for raw in bodies:
            assert raw.startswith(b'{"corpus":')
            assert raw == old_encoding(local, raw)

    def test_deadline_and_partial_answers_are_never_spliced(
            self, figure1_db, monkeypatch):
        from repro.resilience.deadline import Deadline
        spliced = SplicedAnswers(monkeypatch)
        service = QueryService(figure1_db)
        cut = service.search(["k1", "k2"], 3, deadline=Deadline(
            max_steps=0))
        assert cut.partial
        # A partial answer is never cached, so nothing can replay it.
        assert service.lookup(["k1", "k2"], 3).encoded is None
        handle = start_in_thread(service, ServeConfig())
        try:
            post_raw(handle.port, self.QUERY)
            timed = post_raw(handle.port,
                             dict(self.QUERY, deadline_ms=60000))
        finally:
            assert handle.stop() == 0
        cached, uncached = spliced.encoded
        assert cached is not None and uncached is None
        assert timed == old_encoding(service.search(["k1", "k2"], 3),
                                     timed)


class TestSearchBody:
    """:func:`search_body` against the ``json.dumps`` reference."""

    @pytest.mark.parametrize("probability", [
        1.0, 0.5, 0.1 + 0.2, 1 / 3, 1e-9, 2.5e-300, 5e-324,
        0.30000000000000004 * 0.7])
    @pytest.mark.parametrize("label", ["k1", "café ☃",
                                       'quote " \\ tab\t \x00'])
    def test_fields_encode_like_json_dumps(self, probability, label):
        from repro.core.result import SLCAResult, SearchOutcome
        from repro.encoding.dewey import DeweyCode
        outcome = SearchOutcome(
            results=[SLCAResult(DeweyCode.parse("1.2.1"), probability,
                                label=label),
                     SLCAResult(DeweyCode.parse("1.I3.1"),
                                probability / 3, label=label)],
            stats={"service_state": {"generation": "g00000002",
                                     "epoch": 2}})
        spans = [{"name": "http.request", "attrs": {"b": 1, "a": "é"}}]
        for elapsed, trace, spanned in ((0.12345, "0af", None),
                                        (3, "t\u00e9", spans),
                                        (None, None, None)):
            payload = outcome_payload(outcome, elapsed, spans=spanned)
            if trace is not None:
                payload["trace_id"] = trace
            want = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            assert search_body(outcome, elapsed, trace, spanned) == want
            assert search_body(outcome, elapsed, trace, spanned,
                               encode_answer(outcome)) == want

    def test_partial_and_corpus_fields(self):
        from repro.core.result import SearchOutcome
        outcome = SearchOutcome(
            stats={"service_state": None,
                   "corpus": {"shards": 2, "detail": [{"z": 1, "a": 2}]}},
            partial=True, termination_reason="deadline")
        payload = outcome_payload(outcome, 1.5)
        payload["trace_id"] = "abc"
        assert search_body(outcome, 1.5, "abc") == json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_serve --write")
    SPAN_TREES.write_text(json.dumps(served_span_trees(), indent=1,
                                     sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {SPAN_TREES}")
