"""Unit: HTTP protocol helpers and the load client's request mapping."""

import pytest

from repro.errors import (
    AccessDenied,
    AdministrationError,
    RetryExhausted,
    UnknownRoleError,
    UnknownUserError,
)
from repro.serve.http import (
    HttpError,
    _error_status,
    parse_request_head,
    response_bytes,
)
from repro.testing.load import _op_request, percentile
from repro.workloads import ServiceOp


class TestParseRequestHead:
    def test_parses_method_target_headers(self):
        head = (b"POST /v1/check HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: 12\r\n"
                b"X-Mixed-Case: Kept\r\n\r\n")
        method, target, headers = parse_request_head(head)
        assert method == "POST"
        assert target == "/v1/check"
        assert headers["content-length"] == "12"
        assert headers["x-mixed-case"] == "Kept"

    def test_lowercases_method(self):
        method, _, _ = parse_request_head(b"get / HTTP/1.1\r\n\r\n")
        assert method == "GET"

    @pytest.mark.parametrize("head", [
        b"GET /\r\n\r\n",                      # no version
        b"GET / HTTP/2\r\n\r\n",               # wrong version family
        b"GET / HTTP/1.1 extra\r\n\r\n",       # 4 request-line parts
        b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",  # no colon
    ])
    def test_malformed_heads_are_400(self, head):
        with pytest.raises(HttpError) as err:
            parse_request_head(head)
        assert err.value.status == 400


class TestResponseBytes:
    def test_json_response_shape(self):
        raw = response_bytes(200, {"allowed": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert b'"allowed": true' in body

    def test_text_response_is_prometheus_content_type(self):
        raw = response_bytes(200, "# HELP x\n")
        assert b"Content-Type: text/plain" in raw

    def test_close_flag(self):
        assert b"Connection: close" in response_bytes(
            200, {}, close=True)

    def test_error_statuses_have_reasons(self):
        assert b"HTTP/1.1 404 Not Found" in response_bytes(404, {})
        assert b"HTTP/1.1 503 Service Unavailable" in response_bytes(
            503, {})


class TestErrorStatus:
    def test_unknown_entities_are_404(self):
        assert _error_status(UnknownUserError("u")) == 404
        assert _error_status(UnknownRoleError("r")) == 404
        assert _error_status(
            AdministrationError("unknown shard 'x'")) == 404

    def test_other_admin_errors_are_400(self):
        assert _error_status(AdministrationError("cannot route")) == 400

    def test_fail_closed_conditions_are_403(self):
        assert _error_status(AccessDenied("no")) == 403
        assert _error_status(
            RetryExhausted(3, OSError("home down"))) == 403


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.07) == 7  # 0.07 * 100 is 7.000...1
        assert percentile([1, 2, 3, 4, 5], 0.50) == 3
        # p99 of 51..99 samples is the largest, not the second-largest
        for n in (51, 75, 99):
            assert percentile(list(range(1, n + 1)), 0.99) == n

    def test_single_sample(self):
        assert percentile([42.0], 0.99) == 42.0


class TestOpRequest:
    def test_check_maps_to_post(self):
        method, target, body = _op_request(ServiceOp("check", {
            "user": "u@s", "operation": "op0", "object": "obj"}))
        assert (method, target) == ("POST", "/v1/check")
        assert body["user"] == "u@s"

    def test_explain_builds_query_string(self):
        _, target, body = _op_request(ServiceOp("explain", {
            "user": "u", "operation": "op0", "object": "obj"}))
        assert target.startswith("/v1/explain?")
        assert "user=u" in target
        assert body is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _op_request(ServiceOp("teleport", {}))
