"""Fenced-block extraction and the structured answer codec.

Model replies and instruction answers wrap their payload in triple
backticks, with a single top-level key: ``Key = <json value>``. This module
owns that little grammar so prompt rendering, answer generation, and reply
parsing stay in exact round-trip agreement.
"""

from __future__ import annotations

import ast
import json
import re

from .errors import ReplyParseError, short_repr

_FENCE_RE = re.compile(r"```(?:[a-zA-Z0-9_-]+\n)?(.*?)```", re.DOTALL)

# ``json.dumps(value, ensure_ascii=False)`` without building an encoder per
# call; the encoder holds only its settings, so threads may share it.
compact_json = json.JSONEncoder(ensure_ascii=False).encode


def extract_fenced_block(raw: str) -> str:
    """Return the body of the first triple-backtick fence in ``raw``.

    Surrounding prose is ignored. Raises ReplyParseError when no fence is
    present.
    """
    match = _FENCE_RE.search(raw)
    if match is None:
        raise ReplyParseError("no triple-backtick fence found in reply")
    return match.group(1).strip()


def render_fence(body: str) -> str:
    return f"```\n{body}\n```"


def render_answer(key: str, value) -> str:
    """Serialize ``Key = <value>`` inside a fence, value as compact JSON."""
    return render_fence(f"{key} = {compact_json(value)}")


def parse_answer(raw: str, expected_key: str) -> object:
    """Parse a fenced ``Key = <value>`` answer whose key is ``expected_key``
    back to its value.

    The value is decoded as JSON first; Python literal syntax (single
    quotes, True/False) is accepted as a fallback so near-miss model output
    still parses. Raises ReplyParseError on a missing fence, a malformed
    body, or any other key.
    """
    body = extract_fenced_block(raw)
    eq = body.find("=")
    if eq < 0:
        raise ReplyParseError(f"fenced body has no 'Key =' assignment: {short_repr(body)}")
    key = body[:eq].strip()
    if key != expected_key:
        raise ReplyParseError(f"expected top-level key {expected_key!r}, got {short_repr(key)}")
    payload = body[eq + 1:].strip()
    # Besides JSONDecodeError, json.loads raises ValueError on an integer
    # too long to convert and RecursionError on deep nesting; literal_eval
    # raises TypeError on an unhashable key and MemoryError or
    # RecursionError on deep nesting. All of them are a malformed reply.
    try:
        value = json.loads(payload)
    except (ValueError, RecursionError):
        try:
            value = ast.literal_eval(payload)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            raise ReplyParseError(f"unparseable answer payload: {short_repr(payload)}") from None
    return value


def events_to_payload(events) -> list[dict]:
    """EventMentions -> the offset-free answer payload agents emit."""
    return [
        {
            "trigger": e.trigger.text,
            "type": e.event_type,
            "arguments": [{"text": a.span.text, "role": a.role} for a in e.arguments],
        }
        for e in events
    ]


def render_events_answer(events) -> str:
    return render_answer("Events", events_to_payload(events))


def render_classification_map(verdicts: dict[str, str]) -> str:
    """Fenced ClassificationMap answer used for trigger verification."""
    return render_answer("ClassificationMap", verdicts)


def render_argument_verdicts(items) -> str:
    """Fenced argument-verification answer: (text, role, is_correct) triples."""
    payload = [
        {"text": text, "role": role, "is_correct": bool(ok)} for text, role, ok in items
    ]
    return render_fence(compact_json(payload))
