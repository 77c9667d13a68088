"""Loaders for corpora, tagger prediction files, and agent replies.

File formats are UTF-8 JSON lines, one document per line:

corpus record
    {"doc_id": str, "text": str,
     "events": [{"trigger": {"text", "start", "end"}, "type": str,
                 "arguments": [{"text", "start", "end", "role"}]}]}
    "events" may be absent for unannotated documents.

tagger prediction record
    same event schema plus "trigger_confidence" on each event and
    "confidence" on each argument.

All three loaders read through one record reader, so every malformed line
(bad JSON, a lone surrogate escape, which UTF-8 cannot encode, a
non-object, a missing field or a value of the wrong type: an offset that
is not a JSON integer, a confidence that is not a finite JSON
number, a corpus "doc_id" or any "type" or "role" that is not a
non-empty string, a corpus "text" that is not a string) is a
CorpusFormatError naming its line number, and so is a repeated doc_id in
a corpus or final-predictions file; a span that does not slice back to
its surface is a SpanValidationError and an unknown doc_id an
UnknownDocumentError. A configuration file (thresholds, replay
fixture, scenario) holds one JSON object and is read by
read_json_document, so any fault in it is a ConfigurationError naming the
file. Output artifacts are written whole or not at all (open_atomic), and
every JSON report has one format (json_report).

Agent replies are free text containing one fenced block:
    ```Events = [{"trigger": str, "type": str,
                  "arguments": [{"text": str, "role": str}]}]```
Agent output carries no offsets; surfaces are grounded against the document
text here, by a per-document ``Grounding``:
- the k-th trigger mention of a surface within one reply takes that
  surface's occurrence ``k mod n`` in the text (left to right, overlapping
  occurrences included), so repeated triggers walk the occurrences and wrap;
- an argument takes the occurrence of its surface nearest its own trigger's
  start; an equal-distance tie goes to the earlier occurrence;
- a surface that does not occur at all drops its event (for triggers) or
  just itself (for arguments).
Every item's shape is checked whether or not its trigger occurs, so a
malformed reply is malformed against every document; a trigger and an
argument text must be strings, an event type and an argument role non-empty
strings. Grounding an item is a pure
function of (document, trigger surface, k, type, argument set), so one
``Grounding`` indexes each surface's ``model.occurrences`` once and
memoises each grounded event for every reply about that document.
"""

from __future__ import annotations

import json
import math
import os
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .errors import ConfigurationError, CorpusFormatError, ReplyParseError, UnknownDocumentError, short_repr
from .fencing import parse_answer
from .model import ArgumentMention, Document, EventMention, Span, occurrences

__all__ = [
    "Grounding",
    "TaggerPrediction",
    "is_finite_number",
    "load_corpus",
    "load_tagger_predictions",
    "load_final_predictions",
    "parse_agent_output",
    "read_json_document",
    "json_report",
    "open_atomic",
    "write_json_atomic",
    "write_text_atomic",
]


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite JSON number: an int or a float, never a
    bool, a string, NaN, an infinity or an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TaggerPrediction:
    """One tagger event with its softmax-derived confidences.

    ``argument_confidences`` is aligned index-for-index with
    ``event.arguments`` (post-normalization order).
    """

    event: EventMention
    trigger_confidence: float
    argument_confidences: tuple[float, ...] = ()

    def __post_init__(self):
        for value in (self.trigger_confidence, *self.argument_confidences):
            if not 0.0 <= value <= 1.0:
                raise CorpusFormatError(f"confidence {value} outside [0, 1]")
        if len(self.argument_confidences) != len(self.event.arguments):
            raise CorpusFormatError(
                f"{len(self.argument_confidences)} argument confidences for "
                f"{len(self.event.arguments)} arguments"
            )

    def argument_confidence(self, arg: ArgumentMention) -> float:
        for candidate, conf in zip(self.event.arguments, self.argument_confidences):
            if candidate.key == arg.key:
                return conf
        raise KeyError(f"argument {arg.key} not in prediction")


def _span_from_record(rec: dict, what: str) -> Span:
    start, end = rec["start"], rec["end"]
    # bool is a subclass of int, but JSON true/false is no offset.
    if type(start) is not int or type(end) is not int:
        raise CorpusFormatError(f"{what} offsets are not JSON integers: {short_repr(rec)}")
    return Span(rec["text"], start, end)


def _label(rec: dict, field: str) -> str:
    value = rec[field]
    if not isinstance(value, str) or not value:
        raise CorpusFormatError(f"{field} is not a non-empty string: {short_repr(value)}")
    return value


def _event_from_record(rec: dict) -> EventMention:
    trig = _span_from_record(rec["trigger"], "trigger")
    args = tuple(
        ArgumentMention(_span_from_record(a, "argument"), _label(a, "role"))
        for a in rec.get("arguments", ())
    )
    return EventMention(trig, _label(rec, "type"), args)


# A \uD800-\uDFFF escape, the only way JSON text that is valid UTF-8 can
# decode to a string UTF-8 cannot encode: a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _json_object(text: str, what: str) -> dict:
    """``text`` parsed as one JSON object; anything else is a ValueError
    saying why, with ``what`` naming the text. So is a decoded string that
    UTF-8 cannot encode (a lone surrogate escape), which no writer could
    write back; it is looked for only when ``text`` holds a surrogate escape.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise ValueError(f"invalid JSON: {reason}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a JSON {type(value).__name__}, not an object")
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            lone = f"\\u{ord(exc.object[exc.start]):04x}"
            raise ValueError(f"{what} holds a lone surrogate {lone}, which UTF-8 cannot encode") from None
    return value


def _read_records(path: str | Path, decode, corpus: list[Document] | None = None) -> list:
    """Decode every non-blank line of a JSON-lines file; return the values.

    Without ``corpus`` each value is ``decode(record)``. With it, each
    record must name one of its documents by "doc_id" (else
    UnknownDocumentError), and each value is ``(doc, decode(record, doc))``.
    A line that is not UTF-8, malformed JSON, a lone surrogate escape, a
    line that is not a JSON object, or a KeyError, TypeError, ValueError
    or AttributeError raised while decoding becomes CorpusFormatError with
    the line number, and so does a CorpusFormatError that ``decode``
    raises. Other ReventErrors, such as SpanValidationError, pass through
    unchanged.
    """
    by_id = None if corpus is None else {doc.doc_id: doc for doc in corpus}
    values = []
    # Strict decoding fails a whole 8 KB chunk, often before the bad line is
    # reached; surrogateescape turns each bad byte into U+DC00 plus the byte,
    # which only its own line carries.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                rec = _json_object(line, "record")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise CorpusFormatError(f"not UTF-8: byte 0x{byte:02X}", line=lineno) from None
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line=lineno) from exc
            try:
                if by_id is None:
                    value = decode(rec)
                else:
                    doc = by_id.get(rec.get("doc_id"))
                    if doc is None:
                        raise UnknownDocumentError(
                            f"line {lineno}: prediction for unknown doc_id {rec.get('doc_id')!r}"
                        )
                    value = (doc, decode(rec, doc))
            except CorpusFormatError as exc:
                raise CorpusFormatError(str(exc), line=lineno) from exc
            except KeyError as exc:
                raise CorpusFormatError(f"missing field {exc}", line=lineno) from exc
            except (TypeError, ValueError, AttributeError) as exc:
                raise CorpusFormatError(f"malformed record: {exc}", line=lineno) from exc
            values.append(value)
    return values


def read_json_document(path: str | Path, decode):
    """``decode(value)`` for the one JSON object a configuration file holds.

    Bad JSON or UTF-8, a lone surrogate escape, a top level that is not an
    object, or a KeyError, TypeError, ValueError, AttributeError or
    ConfigurationError raised while decoding becomes a ConfigurationError
    naming ``path``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return decode(_json_object(fh.read(), "the top level"))
        except KeyError as exc:
            raise ConfigurationError(f"{path}: missing key {exc}") from exc
        except (ConfigurationError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc


def load_corpus(path: str | Path) -> list[Document]:
    """Load a JSON-lines corpus, validating every gold span against the text.

    Raises CorpusFormatError with the offending line number on a malformed
    record or a repeated doc_id, and SpanValidationError naming the doc_id
    and span when a gold span does not slice back to its surface string.
    """
    seen: set[str] = set()

    def decode(rec: dict) -> Document:
        doc_id, text = _label(rec, "doc_id"), rec["text"]
        if not isinstance(text, str):
            raise CorpusFormatError(f"text is not a string: {short_repr(text)}")
        if doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        gold = tuple(_event_from_record(e) for e in rec["events"]) if "events" in rec else None
        return Document(doc_id, text, gold)

    return _read_records(path, decode)


def load_tagger_predictions(
    path: str | Path, corpus: list[Document]
) -> dict[str, list[TaggerPrediction]]:
    """Load tagger predictions keyed by doc_id, sorted by trigger start.

    Every record's doc_id must exist in ``corpus`` and every span must
    satisfy document containment; every trigger and argument carries a
    confidence, a JSON number (not a bool or a string) in [0, 1].
    """

    def confidence(value) -> float:
        if not is_finite_number(value):
            raise CorpusFormatError(f"confidence must be a finite number, got {value!r}")
        return float(value)

    def decode(rec: dict, doc: Document) -> list[TaggerPrediction]:
        preds = []
        for erec in rec.get("events", ()):
            event = _event_from_record(erec)
            doc.check_event(event)
            # Realign per-argument confidences with normalized order;
            # duplicate argument keys keep the highest confidence.
            conf_by_key: dict[tuple, float] = {}
            for arec in erec.get("arguments", ()):
                span = _span_from_record(arec, "argument")
                key = (span.start, span.end, arec["role"])
                conf = confidence(arec["confidence"])
                conf_by_key[key] = max(conf, conf_by_key.get(key, 0.0))
            preds.append(TaggerPrediction(
                event=event,
                trigger_confidence=confidence(erec["trigger_confidence"]),
                argument_confidences=tuple(conf_by_key[a.key] for a in event.arguments),
            ))
        return preds

    out: dict[str, list[TaggerPrediction]] = {doc.doc_id: [] for doc in corpus}
    for doc, preds in _read_records(path, decode, corpus):
        out[doc.doc_id].extend(preds)
    for preds in out.values():
        preds.sort(key=lambda p: (p.event.trigger.start, p.event.trigger.end))
    return out


def load_final_predictions(
    path: str | Path, corpus: list[Document]
) -> dict[str, list[EventMention]]:
    """Load a pipeline prediction file (corpus event schema, provenance
    fields tolerated and ignored) keyed by doc_id; a repeated doc_id is a
    CorpusFormatError."""
    seen: set[str] = set()

    def decode(rec: dict, doc: Document) -> list[EventMention]:
        if doc.doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        events = [_event_from_record(e) for e in rec.get("events", ())]
        for event in events:
            doc.check_event(event)
        return events

    return {doc.doc_id: events for doc, events in _read_records(path, decode, corpus)}


class Grounding:
    """Occurrence index and grounded-event memo for one document.

    ``spans`` maps a surface to a Span for each of its ``occurrences``,
    sorted by start, overlapping ones included, each found once.
    ``event`` grounds one reply item and memoises the EventMention, keyed on
    (trigger surface, occurrence, type, set of (argument text, role) pairs
    whose text occurs). Argument order and repeats do not change the event,
    so they are not part of the key. Samples of one prompt mostly repeat
    each other's events, and each repeat is a memo hit.

    Every entry is a pure function of the document and its key, so threads
    sharing one Grounding at worst compute an equal value twice: no lock is
    needed.
    """

    def __init__(self, doc: Document):
        self.doc = doc
        self._spans: dict[str, list[Span]] = {}
        self._events: dict[tuple, EventMention] = {}

    def spans(self, surface: str) -> list[Span]:
        found = self._spans.get(surface)
        if found is None:
            width = len(surface)
            found = self._spans[surface] = [
                Span(surface, idx, idx + width) for idx in occurrences(self.doc.text, surface)
            ]
        return found

    def event(
        self, trigger: str, occurrence: int, event_type: str,
        arguments: frozenset[tuple[str, str]],
    ) -> EventMention:
        """The event whose trigger is occurrence ``occurrence`` of
        ``trigger``; each argument text must occur in the text."""
        key = (trigger, occurrence, event_type, arguments)
        event = self._events.get(key)
        if event is None:
            trig = self.spans(trigger)[occurrence]
            args = tuple(
                ArgumentMention(_nearest(self.spans(text), trig.start), role)
                for text, role in arguments
            )
            event = self._events[key] = EventMention(trig, event_type, args)
        return event


_start = attrgetter("start")


def _nearest(spans: list[Span], anchor: int) -> Span:
    """The span starting closest to ``anchor``; a tie goes to the earlier one."""
    i = bisect_left(spans, anchor, key=_start)
    if i == 0:
        return spans[0]
    if i == len(spans):
        return spans[-1]
    before, after = spans[i - 1], spans[i]
    return before if anchor - before.start <= after.start - anchor else after


def parse_agent_output(
    raw: str, doc: Document, grounding: Grounding | None = None
) -> list[EventMention]:
    """Parse one agent reply into grounded EventMentions.

    Extracts the first fenced block, expects ``Events = [...]``, and grounds
    each surface string in ``doc.text``: the k-th mention of a trigger
    surface in this reply takes its occurrence ``k mod n``, and each
    argument the occurrence nearest its trigger (the earlier one on a tie).
    Events whose trigger surface does not occur anywhere in the text are
    dropped (span validation); so are individual non-occurring arguments.
    Raises ReplyParseError when there is no fence, the payload is not the
    expected shape, a trigger or argument text is not a string, or an event
    type or argument role is not a non-empty string, whether or not the
    item's trigger occurs - the caller decides the retry policy.

    ``grounding`` shares one document's occurrence index and event memo
    across replies; by default each call builds a fresh one.
    """
    if grounding is None:
        grounding = Grounding(doc)
    elif grounding.doc is not doc:
        raise ValueError(f"grounding for doc {grounding.doc.doc_id!r} used on {doc.doc_id!r}")
    payload = parse_answer(raw, "Events")
    if not isinstance(payload, list):
        raise ReplyParseError(f"Events payload is not a list: {short_repr(payload)}")

    mentions: dict[str, int] = {}
    events: list[EventMention] = []
    for item in payload:
        # The whole item is checked even when its trigger does not occur,
        # so a malformed reply is malformed against every document.
        if not isinstance(item, dict) or "trigger" not in item or "type" not in item:
            raise ReplyParseError(f"malformed event item: {short_repr(item)}")
        event_type = item["type"]
        if not isinstance(event_type, str) or not event_type:
            raise ReplyParseError(f"event type is not a non-empty string: {short_repr(item)}")
        arguments = item.get("arguments", ())
        if not isinstance(arguments, (list, tuple)):
            raise ReplyParseError(f"arguments is not a list: {short_repr(item)}")
        trigger = item["trigger"]
        if not isinstance(trigger, str):
            raise ReplyParseError(f"trigger is not a string: {short_repr(item)}")
        n = len(grounding.spans(trigger))
        args = []
        for arec in arguments:
            if not isinstance(arec, dict) or "text" not in arec or "role" not in arec:
                raise ReplyParseError(f"malformed argument item: {short_repr(arec)}")
            text, role = arec["text"], arec["role"]
            if not isinstance(text, str):
                raise ReplyParseError(f"argument text is not a string: {short_repr(arec)}")
            if not isinstance(role, str) or not role:
                raise ReplyParseError(
                    f"argument role is not a non-empty string: {short_repr(arec)}"
                )
            if n and grounding.spans(text):
                args.append((text, role))
        if not n:
            continue
        k = mentions.get(trigger, 0)
        mentions[trigger] = k + 1
        events.append(grounding.event(trigger, k % n, event_type, frozenset(args)))
    return events


def json_report(value) -> str:
    """``value`` as indented, key-sorted JSON ending in a newline: the format
    of every JSON report a run writes or prints. A non-finite number raises
    ValueError, so none reaches a report."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_atomic(path: str | Path, value) -> None:
    """``write_text_atomic`` of ``json_report(value)``."""
    write_text_atomic(path, json_report(value))


@contextmanager
def open_atomic(path: str | Path):
    """A text handle on a temp file beside ``path``, renamed over ``path``
    when the block ends; if it raises, the temp file is removed and
    ``path`` is left as it was. The file's mode is 0666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all (``open_atomic``)."""
    with open_atomic(path) as fh:
        fh.write(text)
