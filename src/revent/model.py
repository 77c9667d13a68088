"""Domain types and span algebra for event mentions.

Offsets are character-based and half-open: a span covers text[start:end).
All types are immutable after construction; the operations here are pure
functions, so values can be shared freely across threads. ``occurrences``
is the one scan for where a surface string occurs in a text; grounding,
the synthetic distractors and the decomposition sampler all use it.
``gold_trigger_verdicts`` and ``gold_argument_verdicts`` are the one gold
lookup behind the oracle reflector and the oracle backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigurationError, SpanValidationError

__all__ = [
    "Span",
    "Document",
    "ArgumentMention",
    "EventMention",
    "EventKey",
    "TriggerId",
    "span_overlap",
    "occurrences",
    "canonical_key",
    "trigger_id",
    "gold_trigger_verdicts",
    "gold_argument_verdicts",
]

# (start, end, event_type) - identifies a trigger independent of its arguments.
TriggerId = tuple[int, int, str]

# (start, end, role) - canonical identity of one argument mention.
ArgumentKey = tuple[int, int, str]


@dataclass(frozen=True, slots=True)
class Span:
    """A contiguous character range of a source text with its surface string."""

    text: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span range [{self.start}, {self.end})")
        if self.end - self.start != len(self.text):
            raise ValueError(
                f"span length {self.end - self.start} does not match "
                f"surface string of length {len(self.text)} ({self.text!r})"
            )


@dataclass(frozen=True, slots=True)
class ArgumentMention:
    """An argument span labelled with its semantic role."""

    span: Span
    role: str

    def __post_init__(self):
        if not self.role:
            raise ValueError("argument role must be non-empty")

    @property
    def key(self) -> ArgumentKey:
        return (self.span.start, self.span.end, self.role)


@dataclass(frozen=True)
class EventMention:
    """A trigger span, its event type, and the associated arguments.

    Arguments are normalized at construction: the first argument per
    ``ArgumentMention.key`` is kept and the kept ones are ordered by key, so
    equal argument sets compare equal regardless of input order.
    """

    trigger: Span
    event_type: str
    arguments: tuple[ArgumentMention, ...] = ()

    def __post_init__(self):
        first: dict[ArgumentKey, ArgumentMention] = {}
        for arg in self.arguments:
            first.setdefault(arg.key, arg)
        object.__setattr__(self, "arguments", tuple(map(first.get, sorted(first))))


class EventKey(NamedTuple):
    """Canonical identity of an event prediction, and its canonical order.

    Two EventMentions with equal keys are the same prediction: same trigger
    span, same event type, same argument set (span + role, order-free).
    Keys order by trigger start, trigger end, event type, then argument
    keys; being a tuple, a key hashes, compares and sorts in C.
    """

    trigger_start: int
    trigger_end: int
    event_type: str
    argument_keys: tuple[ArgumentKey, ...]

    @property
    def trigger_id(self) -> TriggerId:
        return self[:3]


@dataclass(frozen=True)
class Document:
    """A source passage with an identifier and optional gold annotations."""

    doc_id: str
    text: str
    gold_events: tuple[EventMention, ...] | None = None

    def __post_init__(self):
        if self.gold_events is not None:
            object.__setattr__(self, "gold_events", tuple(self.gold_events))
            for event in self.gold_events:
                self.check_event(event)

    def require_gold(self) -> tuple[EventMention, ...]:
        """The gold events; a document without them is a ConfigurationError."""
        if self.gold_events is None:
            raise ConfigurationError(f"doc {self.doc_id!r} has no gold events")
        return self.gold_events

    def check_event(self, event: EventMention) -> None:
        """Raise unless the trigger and every argument span slice back to
        their surface strings (text[start:end) equals the span's text)."""
        for span in (event.trigger, *(arg.span for arg in event.arguments)):
            if not self.contains(span):
                raise SpanValidationError(
                    f"doc {self.doc_id!r}: span [{span.start}, {span.end}) does not "
                    f"slice to {span.text!r}"
                )

    def contains(self, span: Span) -> bool:
        return (
            span.end <= len(self.text)
            and self.text[span.start:span.end] == span.text
        )


def span_overlap(a: Span, b: Span) -> float:
    """Jaccard overlap of two character ranges: |intersection| / |union|.

    1.0 iff the ranges are identical, 0.0 iff they are disjoint (half-open
    ranges that merely touch are disjoint).
    """
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start)
    return inter / union


def occurrences(text: str, surface: str) -> list[int]:
    """Start offsets of every occurrence of ``surface`` in ``text``, left to
    right, overlapping ones included. An empty surface has none.
    """
    starts: list[int] = []
    if surface:
        idx = text.find(surface)
        while idx >= 0:
            starts.append(idx)
            idx = text.find(surface, idx + 1)
    return starts


def canonical_key(event: EventMention) -> EventKey:
    """Canonical, argument-order-free key for an event prediction.

    Computed on first use and then stored on the event, outside its
    dataclass fields, so equality, hashing and repr do not see it. The key
    is a pure function of the event: threads racing on one event at worst
    compute it twice. (``functools.cached_property`` would serialise them:
    before Python 3.12 it holds one lock for every instance.)
    """
    key = event.__dict__.get("_key")
    if key is None:
        key = event.__dict__["_key"] = EventKey(
            event.trigger.start,
            event.trigger.end,
            event.event_type,
            tuple(arg.key for arg in event.arguments),
        )
    return key


def trigger_id(event: EventMention) -> TriggerId:
    """Trigger-level identity (start, end, event_type) of an event."""
    return (event.trigger.start, event.trigger.end, event.event_type)


def gold_trigger_verdicts(gold, phrases: list[str]) -> list[bool]:
    """Per phrase: is it the surface of some gold trigger?"""
    surfaces = {event.trigger.text for event in gold}
    return [phrase in surfaces for phrase in phrases]


def gold_argument_verdicts(gold, trigger_text: str, event_type: str, candidates) -> list[bool]:
    """Per (text, role) candidate: is it an argument of a gold event with
    this trigger surface and type?"""
    valid = {
        (arg.span.text, arg.role) for event in gold
        if event.trigger.text == trigger_text and event.event_type == event_type
        for arg in event.arguments
    }
    return [(text, role) in valid for text, role in candidates]
