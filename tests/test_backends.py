import http.client
import io
import json
import urllib.error

import pytest

from revent import backends
from revent.backends import (
    ChatRequest,
    HttpChatBackend,
    OracleBackend,
    ReplayBackend,
    make_backend,
)
from revent.errors import BackendError, ConfigurationError
from revent.model import ArgumentMention, Document, EventMention, Span


def test_chat_request_needs_user_message():
    with pytest.raises(ValueError):
        ChatRequest(messages=(("system", "hi"),))
    with pytest.raises(ValueError):
        ChatRequest(messages=(("robot", "hi"),))
    ChatRequest.user("hello")


def test_chat_request_rejects_unknown_role_beside_a_user_message():
    with pytest.raises(ValueError, match="robot"):
        ChatRequest(messages=(("user", "hi"), ("robot", "hi")))


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *args):
        return False


def test_http_backend_wire_body(monkeypatch):
    captured = {}

    def fake_urlopen(req, timeout):
        captured["url"] = req.full_url
        captured["body"] = json.loads(req.data.decode("utf-8"))
        captured["headers"] = dict(req.header_items())
        return _FakeResponse(json.dumps({"content": "pong"}).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("REVENT_API_KEY", "sekrit")
    backend = HttpChatBackend("https://llm.example/chat", model="m1")
    reply = backend.complete(
        ChatRequest.user("ping", temperature=0.9, max_output_tokens=64)
    )
    assert reply == "pong"
    assert captured["body"] == {
        "model": "m1",
        "messages": [{"role": "user", "content": "ping"}],
        "temperature": 0.9,
        "max_tokens": 64,
    }
    assert captured["headers"].get("Authorization") == "Bearer sekrit"


def test_http_backend_sends_length_penalty_when_set(monkeypatch):
    captured = {}

    def fake_urlopen(req, timeout):
        captured["body"] = json.loads(req.data.decode("utf-8"))
        return _FakeResponse(json.dumps({"content": "ok"}).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    HttpChatBackend("https://llm.example/chat").complete(
        ChatRequest.user("p", length_penalty=1.05)
    )
    assert captured["body"]["length_penalty"] == 1.05


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(backends, "_BACKOFF_S", 0.0)


def test_http_backend_retries_then_raises(monkeypatch, no_backoff):
    calls = []

    def fake_urlopen(req, timeout):
        calls.append(1)
        raise OSError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    backend = HttpChatBackend("https://down.example")
    with pytest.raises(BackendError, match="3 attempts"):
        backend.complete(ChatRequest.user("p"))
    assert len(calls) == 3


def test_http_backend_retry_schedule(monkeypatch):
    timeouts, sleeps = [], []

    def fake_urlopen(req, timeout):
        timeouts.append(timeout)
        raise OSError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", sleeps.append)
    with pytest.raises(BackendError, match="3 attempts"):
        HttpChatBackend("https://down.example").complete(ChatRequest.user("p"))
    assert timeouts == [120.0, 120.0, 120.0]
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("code, retry_after, expected", [
    pytest.param(429, "7", [7.0, 7.0], id="429-seconds"),
    pytest.param(503, "7", [7.0, 7.0], id="503-seconds"),
    pytest.param(429, "9999", [30.0, 30.0], id="capped"),
    pytest.param(429, "9" * 5_000, [30.0, 30.0], id="capped-long"),
    pytest.param(429, "0", [0.5, 1.0], id="shorter-than-backoff"),
    pytest.param(503, "Wed, 21 Oct 2015 07:28:00 GMT", [0.5, 1.0], id="http-date"),
    pytest.param(429, "soon", [0.5, 1.0], id="garbage"),
    pytest.param(429, "-5", [0.5, 1.0], id="negative"),
    pytest.param(429, "\u00b2", [0.5, 1.0], id="non-ascii-digit"),
    pytest.param(500, "7", [0.5, 1.0], id="other-status"),
])
def test_http_backend_honours_a_capped_retry_after(monkeypatch, code, retry_after, expected):
    sleeps = []

    def fake_urlopen(req, timeout):
        raise urllib.error.HTTPError(
            req.full_url, code, "status", {"Retry-After": retry_after}, io.BytesIO(b"")
        )

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", sleeps.append)
    with pytest.raises(BackendError, match="3 attempts"):
        HttpChatBackend("https://busy.example").complete(ChatRequest.user("p"))
    assert sleeps == expected


def test_http_backend_forgets_a_retry_after_once_it_has_waited(monkeypatch):
    sleeps, replies = [], iter([
        urllib.error.HTTPError("u", 429, "status", {"Retry-After": "7"}, io.BytesIO(b"")),
        OSError("connection reset"),
        OSError("connection reset"),
    ])

    def fake_urlopen(req, timeout):
        raise next(replies)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", sleeps.append)
    with pytest.raises(BackendError, match="3 attempts"):
        HttpChatBackend("https://busy.example").complete(ChatRequest.user("p"))
    assert sleeps == [7.0, 1.0]


@pytest.mark.parametrize("body", [
    pytest.param(b'["x"]', id="list"),
    pytest.param(b'"x"', id="string"),
    pytest.param(b'{"content": "\xff"}', id="not-utf-8"),
    pytest.param(b"1" * 5_000, id="long-integer"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-nesting"),
    pytest.param(b'{"content": null}', id="null-content"),
    pytest.param(b'{"content": 5}', id="integer-content"),
    pytest.param(b'{"text": "x"}', id="no-content"),
])
def test_http_backend_retries_replies_without_string_content(monkeypatch, no_backoff, body):
    calls = []

    def fake_urlopen(req, timeout):
        calls.append(1)
        return _FakeResponse(body)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    with pytest.raises(BackendError, match="3 attempts"):
        HttpChatBackend("https://llm.example/chat").complete(ChatRequest.user("p"))
    assert len(calls) == 3


class _TruncatedResponse(_FakeResponse):
    def read(self, *args):
        raise http.client.IncompleteRead(b'{"cont', 10)


def _bad_status_line(req, timeout):
    raise http.client.BadStatusLine("HTTQ/9 ???")


@pytest.mark.parametrize("urlopen", [
    pytest.param(_bad_status_line, id="bad-status-line"),
    pytest.param(lambda req, timeout: _TruncatedResponse(), id="incomplete-read"),
])
def test_http_backend_retries_malformed_http(monkeypatch, no_backoff, urlopen):
    calls = []

    def fake_urlopen(req, timeout):
        calls.append(1)
        return urlopen(req, timeout)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    with pytest.raises(BackendError, match="3 attempts"):
        HttpChatBackend("https://llm.example/chat").complete(ChatRequest.user("p"))
    assert len(calls) == 3


def _http_error_urlopen(code, calls):
    def fake_urlopen(req, timeout):
        calls.append(code)
        raise urllib.error.HTTPError(req.full_url, code, "status", {}, io.BytesIO(b""))

    return fake_urlopen


@pytest.mark.parametrize("code", [400, 401, 403, 404, 422])
def test_http_backend_does_not_retry_client_errors(monkeypatch, code):
    calls = []
    monkeypatch.setattr("urllib.request.urlopen", _http_error_urlopen(code, calls))
    backend = HttpChatBackend("https://llm.example/chat")
    with pytest.raises(BackendError, match=f"HTTP {code}"):
        backend.complete(ChatRequest.user("p"))
    assert len(calls) == 1


@pytest.mark.parametrize("code", [408, 429, 500, 503])
def test_http_backend_retries_transient_statuses(monkeypatch, no_backoff, code):
    calls = []
    monkeypatch.setattr("urllib.request.urlopen", _http_error_urlopen(code, calls))
    backend = HttpChatBackend("https://llm.example/chat")
    with pytest.raises(BackendError, match="3 attempts"):
        backend.complete(ChatRequest.user("p"))
    assert len(calls) == 3


def test_replay_backend_routes_on_metadata(replay_fixture):
    backend = ReplayBackend(replay_fixture)
    reply = backend.complete(
        ChatRequest.user("p", metadata={"doc_id": "nisman", "channel": "agent:1"})
    )
    assert "Events" in reply
    with pytest.raises(BackendError, match="no scripted reply"):
        backend.complete(
            ChatRequest.user("p", metadata={"doc_id": "nisman", "channel": "agent:99"})
        )


def _gold_doc():
    text = "officials raid the camp near Karm"
    raid = Span("raid", text.index("raid"), text.index("raid") + 4)
    officials = ArgumentMention(Span("officials", 0, 9), "Agent")
    return Document("g", text, (EventMention(raid, "Conflict:Attack", (officials,)),))


def test_oracle_backend_agent_channel_returns_gold():
    doc = _gold_doc()
    backend = OracleBackend([doc])
    reply = backend.complete(
        ChatRequest.user("p", metadata={"doc_id": "g", "channel": "agent:1"})
    )
    from revent.ingest import parse_agent_output

    events = parse_agent_output(reply, doc)
    assert {e.trigger.text for e in events} == {"raid"}
    assert [(a.span.text, a.role) for a in events[0].arguments] == [("officials", "Agent")]


def test_oracle_backend_trigger_verdicts():
    backend = OracleBackend([_gold_doc()])
    reply = backend.complete(
        ChatRequest.user(
            "p",
            metadata={
                "doc_id": "g",
                "channel": "reflection:triggers",
                "candidates": json.dumps(["raid", "camp"]),
            },
        )
    )
    from revent.reflection import parse_trigger_response

    verdict = parse_trigger_response(reply, ["raid", "camp"])
    assert verdict.is_trigger("raid") is True
    assert verdict.is_trigger("camp") is False


def test_oracle_backend_argument_verdicts():
    backend = OracleBackend([_gold_doc()])
    reply = backend.complete(
        ChatRequest.user(
            "p",
            metadata={
                "doc_id": "g",
                "channel": "reflection:arguments:10-14-Conflict:Attack",
                "candidates": json.dumps([["officials", "Agent"], ["camp", "Place"]]),
                "trigger_text": "raid",
                "trigger_type": "Conflict:Attack",
            },
        )
    )
    from revent.reflection import parse_argument_response

    verdict = parse_argument_response(reply, [("officials", "Agent"), ("camp", "Place")])
    assert verdict.entries == (("officials", "Agent", True), ("camp", "Place", False))


@pytest.mark.parametrize("metadata, match", [
    pytest.param({"doc_id": "nowhere", "channel": "agent:1"}, "no gold events", id="unknown-doc"),
    pytest.param({"doc_id": "g", "channel": "carrier:pigeon"}, "cannot answer channel", id="unknown-channel"),
])
def test_oracle_backend_rejects_what_it_cannot_answer(metadata, match):
    backend = OracleBackend([_gold_doc()])
    with pytest.raises(BackendError, match=match):
        backend.complete(ChatRequest.user("p", metadata=metadata))


def test_make_backend_descriptors(tmp_path):
    assert isinstance(make_backend("https://x.example"), HttpChatBackend)
    fixture = tmp_path / "replay.json"
    fixture.write_text("{}", encoding="utf-8")
    assert isinstance(make_backend(f"replay:{fixture}"), ReplayBackend)
    assert isinstance(make_backend("oracle", corpus=[_gold_doc()]), OracleBackend)
    with pytest.raises(ConfigurationError):
        make_backend("oracle")
    with pytest.raises(ConfigurationError):
        make_backend("carrier-pigeon")
