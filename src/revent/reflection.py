"""Structured reflection on ambiguous predictions.

Ambiguous triggers are verified with one batched prompt per document asking
for a Trigger / Non-Trigger verdict per candidate phrase; ambiguous
arguments are verified with one prompt per trigger asking for an is_correct
flag per (text, role) candidate, order-preserving. Reflection only prunes
or confirms - it never invents predictions. Trigger verification runs
first; arguments are only queried for triggers that survive.

Parse failures are retried up to the configured limit, then fall back to
keeping every queried candidate: a failed prune must not silently delete
recall. Fallbacks are recorded in the audit log, which only collects
entries; the CLI writes them out as audit.jsonl.

``reflect`` returns one ReflectionResult per input item - the trigger
verdict and the confirmed pending arguments - and leaves assembling events
from them to the pipeline.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .backends import ChatBackend, ChatRequest
from .errors import BackendError, ContractError, OrchestrationError, ReplyParseError
from .fencing import extract_fenced_block, parse_answer
from .model import ArgumentMention, Document, EventMention, Span, trigger_id

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
    "reflect",
]

logger = logging.getLogger(__name__)

TRIGGER_LABEL = "Trigger"
NON_TRIGGER_LABEL = "Non-Trigger"

_TRIGGER_TEMPLATE = """You previously identified the following candidate triggers:

<CANDIDATE_TRIGGERS_TO_VERIFY>

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
<FULL_PASSAGE_TEXT>

Candidates:
<TRIGGER_CANDIDATE_LIST>

Q: For each candidate above, decide whether it is a 'Trigger' or 'Non-Trigger'."""

_ARGUMENT_TEMPLATE = """You are an argument validator.
Given a single trigger and its candidate arguments, decide which arguments are valid.

Generation Rules:
1. An argument is valid only if the passage supports its role for this trigger.
2. Preserve the input order-do not add, remove, or reorder.
3. Output exactly three fields per argument: `text`, `role`, `is_correct`.
4. Wrap the entire response in triple backticks (```).

Passage:
"<FULL_PASSAGE_TEXT>"

Trigger:
"<TRIGGER_TEXT>" (type: "<EVENT_TYPE>")

Candidate Arguments to verify:
<CANDIDATE_ARGUMENTS_TO_VERIFY>

Q: For each candidate above, set `is_correct` to `true` or `false`."""


@dataclass(frozen=True)
class ReflectionConfig:
    temperature: float = 0.1
    max_output_tokens: int = 4096
    length_penalty: float = 1.05
    retry_limit: int = 1


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


def build_trigger_prompt(doc: Document, candidates: list[Span]) -> str:
    """Render the batched trigger-verification prompt for one document."""
    if not candidates:
        raise ContractError("trigger reflection needs at least one candidate")
    phrases = json.dumps([span.text for span in candidates], ensure_ascii=False)
    return (
        _TRIGGER_TEMPLATE
        .replace("<CANDIDATE_TRIGGERS_TO_VERIFY>", phrases)
        .replace("<FULL_PASSAGE_TEXT>", doc.text)
        .replace("<TRIGGER_CANDIDATE_LIST>", phrases)
    )


def build_argument_prompt(
    doc: Document, trigger: EventMention, candidates: list[ArgumentMention]
) -> str:
    """Render the per-trigger argument-verification prompt."""
    if not candidates:
        raise ContractError("argument reflection needs at least one candidate")
    doc.check_containment(trigger.trigger)
    rendered = json.dumps(
        [{"text": a.span.text, "role": a.role} for a in candidates],
        ensure_ascii=False,
    )
    return (
        _ARGUMENT_TEMPLATE
        .replace("<FULL_PASSAGE_TEXT>", doc.text)
        .replace("<TRIGGER_TEXT>", trigger.trigger.text)
        .replace("<EVENT_TYPE>", trigger.event_type)
        .replace("<CANDIDATE_ARGUMENTS_TO_VERIFY>", rendered)
    )


def _normalize_verdict(value) -> str:
    if isinstance(value, str):
        collapsed = value.strip().lower().replace("_", "-").replace(" ", "-")
        if collapsed == "trigger":
            return TRIGGER_LABEL
        if collapsed == "non-trigger":
            return NON_TRIGGER_LABEL
    raise ReplyParseError(f"unrecognized trigger verdict {value!r}")


def parse_trigger_response(raw: str, candidates: list[str]) -> TriggerVerdict:
    """Parse a ClassificationMap reply into per-candidate verdicts.

    Candidates missing from the map are kept as Trigger (the fallback
    decision); phrases in the map that were never queried are ignored.
    """
    _, payload = parse_answer(raw, expected_key="ClassificationMap")
    if not isinstance(payload, dict):
        raise ReplyParseError(f"ClassificationMap is not a mapping: {payload!r}", raw=raw)
    verdict_map = {str(k): _normalize_verdict(v) for k, v in payload.items()}
    return TriggerVerdict(
        verdicts=tuple(
            (phrase, verdict_map.get(phrase, TRIGGER_LABEL)) for phrase in candidates
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
        raise ReplyParseError(f"argument reply is not JSON: {reason}", raw=raw) from exc
    if not isinstance(payload, list):
        raise ReplyParseError(f"argument reply is not a list: {payload!r}", raw=raw)
    if len(payload) != len(candidates):
        raise ReplyParseError(
            f"expected {len(candidates)} argument entries, got {len(payload)}", raw=raw
        )
    entries: list[tuple[str, str, bool]] = []
    for entry, (text, role) in zip(payload, candidates):
        if not isinstance(entry, dict) or set(entry) != {"text", "role", "is_correct"}:
            raise ReplyParseError(f"malformed argument entry: {entry!r}", raw=raw)
        if entry["text"] != text or entry["role"] != role:
            raise ReplyParseError(
                f"argument entry {entry!r} does not match queried candidate "
                f"({text!r}, {role!r}) - order must be preserved",
                raw=raw,
            )
        if not isinstance(entry["is_correct"], bool):
            raise ReplyParseError(f"is_correct is not a boolean: {entry!r}", raw=raw)
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

    ``kept_arguments`` survive without querying; ``pending_arguments`` need
    an is_correct verdict, which is only requested if the trigger itself
    survives (confirmed directly, or via a Trigger verdict when
    ``trigger_ambiguous`` is set).
    """

    event: EventMention
    trigger_ambiguous: bool
    kept_arguments: tuple[ArgumentMention, ...] = ()
    pending_arguments: tuple[ArgumentMention, ...] = ()


@dataclass(frozen=True)
class ReflectionResult:
    item: ReflectionItem
    trigger_kept: bool
    confirmed_arguments: tuple[ArgumentMention, ...]


def _ask(
    backend: ChatBackend,
    prompt: str,
    config: ReflectionConfig,
    metadata: dict[str, str],
    parser,
    fallback,
    audit: AuditLog | None,
    phase: str,
    doc_id: str,
):
    request = ChatRequest.user(
        prompt,
        temperature=config.temperature,
        max_output_tokens=config.max_output_tokens,
        length_penalty=config.length_penalty,
        metadata=metadata,
    )
    last_raw = ""
    for attempt in range(1 + config.retry_limit):
        try:
            raw = backend.complete(request)
        except BackendError as exc:
            raise OrchestrationError(f"{phase} for doc {doc_id!r}: {exc}") from exc
        last_raw = raw
        try:
            parsed = parser(raw)
        except ReplyParseError as exc:
            if audit:
                audit.record(
                    phase=phase, doc_id=doc_id, attempt=attempt, prompt=prompt,
                    reply=raw, outcome=f"parse-error: {exc}", fallback=False,
                )
            continue
        if audit:
            audit.record(
                phase=phase, doc_id=doc_id, attempt=attempt, prompt=prompt,
                reply=raw, outcome="ok", fallback=False,
            )
        return parsed
    logger.warning("%s for doc %s: unparseable after retries, keeping all candidates", phase, doc_id)
    if audit:
        audit.record(
            phase=phase, doc_id=doc_id, attempt=config.retry_limit, prompt=prompt,
            reply=last_raw, outcome="fallback-keep-all", fallback=True,
        )
    return fallback


def reflect(
    items: list[ReflectionItem],
    doc: Document,
    backend: ChatBackend,
    config: ReflectionConfig | None = None,
    audit: AuditLog | None = None,
) -> list[ReflectionResult]:
    """Resolve ambiguous triggers and arguments for one document.

    Returns one ReflectionResult per item, in input order. Issues at most
    one trigger prompt (covering every ambiguous trigger phrase) and one
    argument prompt per surviving trigger that has pending arguments. An
    empty input returns an empty list with zero backend calls. Reflection
    never emits an event absent from its input.
    """
    config = config or ReflectionConfig()
    if not items:
        return []

    phrases: list[str] = []
    spans: list = []
    for item in items:
        if item.trigger_ambiguous and item.event.trigger.text not in phrases:
            phrases.append(item.event.trigger.text)
            spans.append(item.event.trigger)

    trigger_verdict: TriggerVerdict | None = None
    if phrases:
        prompt = build_trigger_prompt(doc, spans)
        trigger_verdict = _ask(
            backend,
            prompt,
            config,
            metadata={
                "doc_id": doc.doc_id,
                "channel": "reflection:triggers",
                "candidates": json.dumps(phrases, ensure_ascii=False),
            },
            parser=lambda raw: parse_trigger_response(raw, phrases),
            fallback=TriggerVerdict(tuple((p, TRIGGER_LABEL) for p in phrases)),
            audit=audit,
            phase="reflection:triggers",
            doc_id=doc.doc_id,
        )

    results: list[ReflectionResult] = []
    for item in items:
        kept = True
        if item.trigger_ambiguous:
            assert trigger_verdict is not None
            kept = trigger_verdict.is_trigger(item.event.trigger.text)
        if not kept or not item.pending_arguments:
            results.append(ReflectionResult(item, kept, ()))
            continue

        candidates = [(a.span.text, a.role) for a in item.pending_arguments]
        tid = trigger_id(item.event)
        prompt = build_argument_prompt(doc, item.event, list(item.pending_arguments))
        verdict: ArgumentVerdict = _ask(
            backend,
            prompt,
            config,
            metadata={
                "doc_id": doc.doc_id,
                "channel": f"reflection:arguments:{tid[0]}-{tid[1]}-{tid[2]}",
                "candidates": json.dumps(candidates, ensure_ascii=False),
                "trigger_text": item.event.trigger.text,
                "trigger_type": item.event.event_type,
            },
            parser=lambda raw: parse_argument_response(raw, candidates),
            fallback=ArgumentVerdict(tuple((t, r, True) for t, r in candidates)),
            audit=audit,
            phase="reflection:arguments",
            doc_id=doc.doc_id,
        )
        confirmed = tuple(
            arg
            for arg, (_, _, ok) in zip(item.pending_arguments, verdict.entries)
            if ok
        )
        results.append(ReflectionResult(item, True, confirmed))
    return results
