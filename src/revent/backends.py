"""Chat backends: live HTTP, file replay, and gold-oracle test double.

The wire contract is a POST of ``{model, messages, temperature, max_tokens}``
returning ``{"content": str}`` (``length_penalty`` is added to the body only
when set). Requests additionally carry a local ``metadata`` mapping - doc_id
and a channel such as ``agent:3`` or ``reflection:triggers`` - which the HTTP
backend ignores but the replay and oracle backends use for routing. All
backends are safe to call from multiple threads.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Protocol

from .errors import BackendError, ConfigurationError, OrchestrationError, ReplyParseError, short_repr
from .fencing import (
    render_argument_verdicts,
    render_classification_map,
    render_events_answer,
)
from .ingest import _json_object, read_json_document
from .model import Document, gold_argument_verdicts, gold_trigger_verdicts

__all__ = [
    "ChatRequest",
    "ChatBackend",
    "HttpChatBackend",
    "ReplayBackend",
    "OracleBackend",
    "make_backend",
    "ask",
]

_ROLES = frozenset({"system", "user", "assistant"})

# Client errors worth another attempt: request timeout and rate limiting.
_RETRIED_4XX = frozenset({408, 429})

# The retry schedule of HttpChatBackend (see its docstring).
_TIMEOUT_S = 120.0
_MAX_ATTEMPTS = 3
_BACKOFF_S = 0.5

# Statuses whose Retry-After header is honoured, and the longest wait it may ask for.
_RETRY_AFTER_CODES = frozenset({429, 503})
_MAX_RETRY_AFTER_S = 30.0

CHANNEL_KEY = "channel"
DOC_KEY = "doc_id"


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request."""

    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.0
    max_output_tokens: int = 1024
    length_penalty: float | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not any(role == "user" for role, _ in self.messages):
            raise ValueError("a chat request needs at least one user message")
        for role, _ in self.messages:
            if role not in _ROLES:
                raise ValueError(f"unknown message role {role!r}")

    @classmethod
    def user(cls, prompt: str, **kwargs) -> "ChatRequest":
        return cls(messages=(("user", prompt),), **kwargs)


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> str:
        """Return the assistant reply text for one request."""
        ...


class HttpChatBackend:
    """Talks to a chat-completion HTTP endpoint.

    Credentials come from the environment (default variable REVENT_API_KEY)
    and are sent as a bearer token when present. Connection errors, malformed
    HTTP (a bad status line, a truncated body), replies that are not a JSON
    object with a string "content", and HTTP 408, 429 and 5xx are retried:
    3 attempts of up to 120 s each, sleeping 0.5 s before the second and
    1.0 s before the third, before raising BackendError; any other 4xx
    raises it at once. After a 429 or 503 whose Retry-After header is a
    number of seconds, the next sleep is at least that long, capped at 30 s.
    """

    def __init__(self, url: str, model: str = "default", api_key_env: str = "REVENT_API_KEY"):
        self.url = url
        self.model = model
        self.api_key_env = api_key_env

    def complete(self, request: ChatRequest) -> str:
        import http.client
        import urllib.error
        import urllib.request

        body: dict = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        if request.length_penalty is not None:
            body["length_penalty"] = request.length_penalty
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                time.sleep(max(_BACKOFF_S * 2 ** (attempt - 1), retry_after))
            retry_after = 0.0
            req = urllib.request.Request(self.url, data=data, headers=headers)
            try:
                with urllib.request.urlopen(req, timeout=_TIMEOUT_S) as resp:
                    content = _json_object(resp.read().decode("utf-8"), "the reply")["content"]
                if not isinstance(content, str):
                    raise ValueError(f"reply content is not a string: {short_repr(content)}")
                return content
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500 and exc.code not in _RETRIED_4XX:
                    raise BackendError(
                        f"chat endpoint {self.url} refused the request: HTTP {exc.code} {exc.reason}"
                    ) from exc
                last_error = exc
                retry_after = _retry_after_s(exc)
            except (http.client.HTTPException, urllib.error.URLError, OSError, ValueError, KeyError) as exc:
                last_error = exc
        raise BackendError(
            f"chat endpoint {self.url} failed after {_MAX_ATTEMPTS} attempts: {last_error}"
        )


def _retry_after_s(exc) -> float:
    """The wait a 429 or 503 asks for in delta-seconds, at most
    ``_MAX_RETRY_AFTER_S``; 0 for any other status, no header, an HTTP-date
    or a malformed value."""
    value = ((exc.headers or {}).get("Retry-After") or "").strip()
    if exc.code not in _RETRY_AFTER_CODES or not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), _MAX_RETRY_AFTER_S)


class ReplayBackend:
    """Replays scripted replies from a JSON fixture.

    The fixture maps doc_id -> channel -> reply text, where the channel is
    the request metadata's routing string (``agent:1``,
    ``reflection:triggers``, ``reflection:arguments:<trigger>``). Missing
    entries raise BackendError so a fixture gap never passes silently; a
    fixture file of any other shape is a ConfigurationError.
    """

    def __init__(self, replies: Mapping[str, Mapping[str, str]]):
        self._replies = {doc: dict(chans) for doc, chans in replies.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        def decode(replies: dict) -> "ReplayBackend":
            if not all(isinstance(r, str) for chans in replies.values() for r in chans.values()):
                raise TypeError("every reply must be a string under a doc_id and a channel")
            return cls(replies)

        return read_json_document(path, decode)

    def complete(self, request: ChatRequest) -> str:
        doc_id = request.metadata.get(DOC_KEY)
        channel = request.metadata.get(CHANNEL_KEY)
        try:
            return self._replies[doc_id][channel]
        except KeyError:
            raise BackendError(
                f"no scripted reply for doc_id={doc_id!r} channel={channel!r}"
            )


class OracleBackend:
    """Answers every request from gold annotations (test double).

    Agent channels get the document's gold events; reflection channels get
    the verdicts of ``model.gold_trigger_verdicts`` and
    ``model.gold_argument_verdicts``, the lookup the oracle reflector uses.
    Upper-bounds reflection quality so aggregation can be tested in
    isolation.
    """

    def __init__(self, corpus: list[Document]):
        self._docs = {doc.doc_id: doc for doc in corpus}

    def complete(self, request: ChatRequest) -> str:
        doc_id = request.metadata.get(DOC_KEY)
        channel = request.metadata.get(CHANNEL_KEY, "")
        doc = self._docs.get(doc_id or "")
        if doc is None or doc.gold_events is None:
            raise BackendError(f"oracle backend has no gold events for doc {doc_id!r}")
        gold = doc.gold_events
        if channel.startswith("agent:"):
            return render_events_answer(gold)
        candidates = json.loads(request.metadata.get("candidates", "[]"))
        if channel == "reflection:triggers":
            verdicts = gold_trigger_verdicts(gold, candidates)
            return render_classification_map({
                c: "Trigger" if ok else "Non-Trigger" for c, ok in zip(candidates, verdicts)
            })
        if channel.startswith("reflection:arguments"):
            trig_text = request.metadata.get("trigger_text")
            trig_type = request.metadata.get("trigger_type")
            verdicts = gold_argument_verdicts(gold, trig_text, trig_type, candidates)
            return render_argument_verdicts(
                [(text, role, ok) for (text, role), ok in zip(candidates, verdicts)]
            )
        raise BackendError(f"oracle backend cannot answer channel {channel!r}")


def make_backend(descriptor: str, corpus: list[Document] | None = None) -> ChatBackend:
    """Build a backend from a CLI descriptor: url | replay:PATH | oracle."""
    if descriptor.startswith(("http://", "https://")):
        return HttpChatBackend(descriptor)
    if descriptor.startswith("replay:"):
        return ReplayBackend.from_file(descriptor.split(":", 1)[1])
    if descriptor == "oracle":
        if corpus is None:
            raise ConfigurationError("oracle backend needs a corpus with gold events")
        return OracleBackend(corpus)
    raise ConfigurationError(
        f"unrecognized backend descriptor {descriptor!r} "
        "(expected a http(s) URL, replay:PATH, or oracle)"
    )


def ask(backend: ChatBackend, prompt: str, parse: Callable, retries: int, give_up: Callable,
        label: str, note: Callable = lambda attempt, reply, error: None, **request):
    """Ask up to ``1 + retries`` times with ``ChatRequest.user(prompt, **request)``;
    return ``parse`` of the first reply that parses, else ``give_up(last reply)``.
    ``note(attempt, reply, error)`` sees each reply and its ReplyParseError or None.
    A BackendError raises OrchestrationError ``"{label}: {error}"``."""
    chat = ChatRequest.user(prompt, **request)
    reply = ""
    for attempt in range(1 + retries):
        try:
            reply = backend.complete(chat)
        except BackendError as exc:
            raise OrchestrationError(f"{label}: {exc}") from exc
        try:
            value = parse(reply)
        except ReplyParseError as exc:
            note(attempt, reply, exc)
            continue
        note(attempt, reply, None)
        return value
    return give_up(reply)
