"""Structured reflection on ambiguous predictions.

``resolve`` is the one reflection driver; a reflector only supplies its
judges. Ambiguous triggers are verified with one batched prompt per
document asking for a Trigger / Non-Trigger verdict per distinct candidate
phrase. Arguments are then verified with one prompt per surviving trigger
id, asking for an is_correct flag per (text, role) candidate,
order-preserving; candidates that share a trigger id are asked about the
union of their pending arguments once. So no channel is asked twice for a
document, and a replay fixture of one reply per (document, channel) can
hold any run. Reflection only prunes or confirms - it never invents
predictions.

Parse failures are retried up to the configured limit, then fall back to
keeping every queried candidate: a failed prune must not silently delete
recall. Fallbacks are recorded in the audit log, which only collects
entries; the CLI writes them out as audit.jsonl.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from string import Template
from typing import Callable

from .backends import ChatBackend, ask
from .ensemble import temperature_in_range
from .errors import ConfigurationError, ContractError, ReplyParseError, short_repr
from .fencing import compact_json, extract_fenced_block, parse_answer
from .ingest import is_finite_number
from .model import ArgumentKey, ArgumentMention, Document, EventMention, TriggerId, trigger_id

__all__ = [
    "ReflectionConfig",
    "TriggerVerdict",
    "ArgumentVerdict",
    "ReflectionItem",
    "ReflectionResult",
    "AuditLog",
    "build_trigger_prompt",
    "build_argument_prompt",
    "parse_trigger_response",
    "parse_argument_response",
    "resolve",
    "reflect",
]

TRIGGER_LABEL = "Trigger"
NON_TRIGGER_LABEL = "Non-Trigger"

_TRIGGER_TEMPLATE = Template("""You previously identified the following candidate triggers:

$candidates

Your task is to decide for each whether it truly signals an event trigger.

Generation Rules:
1. Classify each phrase as either 'Trigger' or 'Non-Trigger'.
2. Output strictly in the required format-no extra text.

Output Format (strict):
- Wrap the answer in triple backticks (```)
- Write: ClassificationMap = {"phrase1": "Trigger", "phrase2": "Non-Trigger", ...}

Example:
```ClassificationMap = {"therapy": "Trigger", "increase dose": "Non-Trigger"}```

Passage:
$passage

Candidates:
$candidates

Q: For each candidate above, decide whether it is a 'Trigger' or 'Non-Trigger'.""")

_ARGUMENT_TEMPLATE = Template("""You are an argument validator.
Given a single trigger and its candidate arguments, decide which arguments are valid.

Generation Rules:
1. An argument is valid only if the passage supports its role for this trigger.
2. Preserve the input order-do not add, remove, or reorder.
3. Output exactly three fields per argument: `text`, `role`, `is_correct`.
4. Wrap the entire response in triple backticks (```).

Passage:
"$passage"

Trigger:
"$trigger" (type: "$event_type")

Candidate Arguments to verify:
$candidates

Q: For each candidate above, set `is_correct` to `true` or `false`.""")


@dataclass(frozen=True)
class ReflectionConfig:
    temperature: float = 0.1
    max_output_tokens: int = 4096
    length_penalty: float = 1.05
    retry_limit: int = 1

    def __post_init__(self):
        for name, least in (("retry_limit", 0), ("max_output_tokens", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigurationError(f"{name} must be an integer >= {least}, got {short_repr(value)}")
        if not (is_finite_number(self.temperature) and temperature_in_range(self.temperature)):
            raise ConfigurationError(
                f"temperature must be non-negative and finite, got {short_repr(self.temperature)}"
            )
        if not is_finite_number(self.length_penalty):
            raise ConfigurationError(f"length_penalty must be a finite number, got {short_repr(self.length_penalty)}")


@dataclass(frozen=True)
class TriggerVerdict:
    """One Trigger / Non-Trigger verdict per queried candidate phrase."""

    verdicts: tuple[tuple[str, str], ...]

    def is_trigger(self, phrase: str) -> bool:
        for candidate, verdict in self.verdicts:
            if candidate == phrase:
                return verdict == TRIGGER_LABEL
        raise KeyError(f"phrase {phrase!r} was not queried")

    def as_dict(self) -> dict[str, str]:
        return dict(self.verdicts)


@dataclass(frozen=True)
class ArgumentVerdict:
    """Ordered (text, role, is_correct) flags, aligned with the query list."""

    entries: tuple[tuple[str, str, bool], ...]


def build_trigger_prompt(doc: Document, candidates: list[str]) -> str:
    """Render the batched trigger-verification prompt for one document."""
    if not candidates:
        raise ContractError("trigger reflection needs at least one candidate")
    return _TRIGGER_TEMPLATE.substitute(candidates=compact_json(candidates), passage=doc.text)


def build_argument_prompt(
    doc: Document, trigger: EventMention, candidates: list[ArgumentMention]
) -> str:
    """Render the per-trigger argument-verification prompt."""
    if not candidates:
        raise ContractError("argument reflection needs at least one candidate")
    doc.check_event(trigger)
    return _ARGUMENT_TEMPLATE.substitute(
        candidates=compact_json([{"text": a.span.text, "role": a.role} for a in candidates]),
        passage=doc.text, trigger=trigger.trigger.text, event_type=trigger.event_type,
    )


def _normalize_verdict(value) -> str:
    if isinstance(value, str):
        collapsed = value.strip().lower().replace("_", "-").replace(" ", "-")
        if collapsed == "trigger":
            return TRIGGER_LABEL
        if collapsed == "non-trigger":
            return NON_TRIGGER_LABEL
    raise ReplyParseError(f"unrecognized trigger verdict {short_repr(value)}")


def parse_trigger_response(raw: str, candidates: list[str]) -> TriggerVerdict:
    """Parse a ClassificationMap reply into per-candidate verdicts.

    Candidates missing from the map are kept as Trigger (the fallback
    decision); phrases in the map that were never queried are ignored.
    """
    payload = parse_answer(raw, "ClassificationMap")
    if not isinstance(payload, dict):
        raise ReplyParseError(f"ClassificationMap is not a mapping: {short_repr(payload)}")
    verdict_map = {str(k): v for k, v in payload.items()}
    return TriggerVerdict(
        verdicts=tuple(
            (phrase, _normalize_verdict(verdict_map.get(phrase, TRIGGER_LABEL)))
            for phrase in candidates
        )
    )


def parse_argument_response(
    raw: str, candidates: list[tuple[str, str]]
) -> ArgumentVerdict:
    """Parse the fenced argument-flag list, enforcing order and length.

    The reply must contain exactly one {text, role, is_correct} object per
    queried candidate, in the same order; anything added, removed, or
    reordered is a parse error.
    """
    body = extract_fenced_block(raw)
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:  # as in fencing.parse_answer
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise ReplyParseError(f"argument reply is not JSON: {reason}") from exc
    if not isinstance(payload, list):
        raise ReplyParseError(f"argument reply is not a list: {short_repr(payload)}")
    if len(payload) != len(candidates):
        raise ReplyParseError(
            f"expected {len(candidates)} argument entries, got {len(payload)}"
        )
    entries: list[tuple[str, str, bool]] = []
    for entry, (text, role) in zip(payload, candidates):
        if not isinstance(entry, dict) or set(entry) != {"text", "role", "is_correct"}:
            raise ReplyParseError(f"malformed argument entry: {short_repr(entry)}")
        if entry["text"] != text or entry["role"] != role:
            raise ReplyParseError(
                f"argument entry {short_repr(entry)} does not match queried candidate "
                f"{short_repr((text, role))} - order must be preserved"
            )
        if not isinstance(entry["is_correct"], bool):
            raise ReplyParseError(f"is_correct is not a boolean: {short_repr(entry)}")
        entries.append((text, role, entry["is_correct"]))
    return ArgumentVerdict(entries=tuple(entries))


class AuditLog:
    """Deterministic JSON-lines record of reflection traffic."""

    def __init__(self):
        self.entries: list[dict] = []

    def record(self, **fields) -> None:
        self.entries.append(dict(sorted(fields.items())))


@dataclass(frozen=True)
class ReflectionItem:
    """One trigger entering reflection, with its argument candidates.

    ``pending_arguments`` need an is_correct verdict, which is only
    requested if the trigger itself survives (confirmed directly, or via a
    Trigger verdict when ``trigger_ambiguous`` is set).
    """

    event: EventMention
    trigger_ambiguous: bool
    pending_arguments: tuple[ArgumentMention, ...] = ()


@dataclass(frozen=True)
class ReflectionResult:
    item: ReflectionItem
    trigger_kept: bool
    confirmed_arguments: tuple[ArgumentMention, ...]


def resolve(
    items: list[ReflectionItem],
    judge_triggers: Callable[[list[str]], list[bool]],
    judge_arguments: Callable[[EventMention, list[ArgumentMention]], list[bool]],
) -> list[ReflectionResult]:
    """Apply one document's reflection verdicts; one result per item, in order.

    ``judge_triggers(phrases)`` returns one is-a-trigger flag per phrase.
    It is asked at most once, with the distinct ambiguous trigger phrases
    in first-seen order. An item survives if its trigger is not ambiguous
    or its phrase was judged a trigger. ``judge_arguments(event, args)``
    returns one is-correct flag per argument. It is asked once per trigger
    id of a surviving item with pending arguments, with the union of those
    items' pending arguments in first-seen order, one per argument key.
    Each result confirms its own item's pending arguments that were judged
    correct. A judge returning the wrong number of flags is a ValueError.
    """
    phrases = list(dict.fromkeys(i.event.trigger.text for i in items if i.trigger_ambiguous))
    is_trigger = dict(zip(phrases, judge_triggers(phrases), strict=True)) if phrases else {}
    kept = [not item.trigger_ambiguous or is_trigger[item.event.trigger.text] for item in items]

    pending: dict[TriggerId, tuple[EventMention, dict[ArgumentKey, ArgumentMention]]] = {}
    for item, keep in zip(items, kept):
        if keep and item.pending_arguments:
            union = pending.setdefault(trigger_id(item.event), (item.event, {}))[1]
            for arg in item.pending_arguments:
                union.setdefault(arg.key, arg)
    confirmed: dict[TriggerId, set[ArgumentKey]] = {}
    for tid, (event, union) in pending.items():
        flags = judge_arguments(event, list(union.values()))
        confirmed[tid] = {key for key, ok in zip(union, flags, strict=True) if ok}

    results = []
    for item, keep in zip(items, kept):
        ok = confirmed[trigger_id(item.event)] if keep and item.pending_arguments else ()
        results.append(ReflectionResult(
            item, keep, tuple(arg for arg in item.pending_arguments if arg.key in ok)
        ))
    return results


def reflect(
    items: list[ReflectionItem],
    doc: Document,
    backend: ChatBackend,
    config: ReflectionConfig,
    audit: AuditLog,
) -> list[ReflectionResult]:
    """Resolve ambiguous triggers and arguments for one document.

    ``resolve`` with judges that prompt ``backend``: at most one trigger
    prompt (covering every ambiguous trigger phrase) and one argument
    prompt per surviving trigger id with pending arguments. An empty input
    returns an empty list with zero backend calls. Reflection never emits
    an event absent from its input. Every exchange is recorded in ``audit``.
    """

    def verify(phase, prompt, candidates, parse, **metadata) -> list[bool]:
        """``parse(reply)``: one flag per candidate, or all True once the
        reply is still unparseable after ``config.retry_limit`` retries."""

        def note(attempt, reply, error, outcome="ok", fallback=False):
            audit.record(
                phase=phase, doc_id=doc.doc_id, attempt=attempt, prompt=prompt, reply=reply,
                outcome=outcome if error is None else f"parse-error: {error}", fallback=fallback,
            )

        def keep_all(reply):
            import logging

            logging.getLogger(__name__).warning(
                "%s for doc %s: unparseable after retries, keeping all candidates", phase, doc.doc_id
            )
            note(config.retry_limit, reply, None, "fallback-keep-all", fallback=True)
            return [True] * len(candidates)

        return ask(
            backend, prompt, parse, config.retry_limit, keep_all, f"{phase} for doc {doc.doc_id!r}",
            note, temperature=config.temperature, max_output_tokens=config.max_output_tokens,
            length_penalty=config.length_penalty,
            metadata=dict(metadata, doc_id=doc.doc_id, candidates=compact_json(candidates)),
        )

    def judge_triggers(phrases: list[str]) -> list[bool]:
        return verify(
            "reflection:triggers", build_trigger_prompt(doc, phrases), phrases,
            lambda raw: [
                verdict == TRIGGER_LABEL
                for _, verdict in parse_trigger_response(raw, phrases).verdicts
            ],
            channel="reflection:triggers",
        )

    def judge_arguments(event: EventMention, args: list[ArgumentMention]) -> list[bool]:
        candidates = [(a.span.text, a.role) for a in args]
        start, end, event_type = trigger_id(event)
        return verify(
            "reflection:arguments", build_argument_prompt(doc, event, args), candidates,
            lambda raw: [ok for _, _, ok in parse_argument_response(raw, candidates).entries],
            channel=f"reflection:arguments:{start}-{end}-{event_type}",
            trigger_text=event.trigger.text, trigger_type=event.event_type,
        )

    return resolve(items, judge_triggers, judge_arguments)
