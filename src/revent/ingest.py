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

Output artifacts are written whole or not at all (write_text_atomic).

Agent replies are free text containing one fenced block:
    ```Events = [{"trigger": str, "type": str,
                  "arguments": [{"text": str, "role": str}]}]```
Agent output carries no offsets; surfaces are grounded against the document
text here. Repeated identical surfaces resolve to successive occurrences
(left-to-right); a surface that does not occur at all drops its event (for
triggers) or just itself (for arguments).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusFormatError, ReplyParseError, UnknownDocumentError
from .fencing import parse_answer
from .model import ArgumentMention, Document, EventMention, Span, locate_span

__all__ = [
    "TaggerPrediction",
    "load_corpus",
    "load_tagger_predictions",
    "load_final_predictions",
    "parse_agent_output",
    "write_text_atomic",
]


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
    try:
        return Span(rec["text"], int(rec["start"]), int(rec["end"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"malformed {what} span {rec!r}: {exc}") from exc


def _event_from_record(rec: dict) -> EventMention:
    trig = _span_from_record(rec["trigger"], "trigger")
    args = tuple(
        ArgumentMention(_span_from_record(a, "argument"), a["role"])
        for a in rec.get("arguments", ())
    )
    return EventMention(trig, rec["type"], args)


def load_corpus(path: str | Path) -> list[Document]:
    """Load a JSON-lines corpus, validating every gold span against the text.

    Raises CorpusFormatError with the offending line number on malformed
    JSON or a repeated doc_id, and SpanValidationError naming the doc_id and span when a gold
    span does not slice back to its surface string.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            try:
                doc_id, text = rec["doc_id"], rec["text"]
            except KeyError as exc:
                raise CorpusFormatError(f"missing field {exc}", line=lineno) from exc
            if doc_id in seen:
                raise CorpusFormatError(f"duplicate doc_id {doc_id!r}", line=lineno)
            seen.add(doc_id)
            gold = None
            if "events" in rec:
                gold = tuple(_event_from_record(e) for e in rec["events"])
            docs.append(Document(doc_id, text, gold))
    return docs


def load_tagger_predictions(
    path: str | Path, corpus: list[Document]
) -> dict[str, list[TaggerPrediction]]:
    """Load tagger predictions keyed by doc_id, sorted by trigger start.

    Every record's doc_id must exist in ``corpus`` and every span must
    satisfy document containment; confidences must lie in [0, 1].
    """
    by_id = {doc.doc_id: doc for doc in corpus}
    out: dict[str, list[TaggerPrediction]] = {doc.doc_id: [] for doc in corpus}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            doc_id = rec.get("doc_id")
            if doc_id not in by_id:
                raise UnknownDocumentError(
                    f"line {lineno}: prediction for unknown doc_id {doc_id!r}"
                )
            doc = by_id[doc_id]
            for erec in rec.get("events", ()):
                event = _event_from_record(erec)
                doc.check_containment(event.trigger)
                for arg in event.arguments:
                    doc.check_containment(arg.span)
                # Realign per-argument confidences with normalized order;
                # duplicate argument keys keep the highest confidence.
                conf_by_key: dict[tuple, float] = {}
                for arec in erec.get("arguments", ()):
                    span = _span_from_record(arec, "argument")
                    key = (span.start, span.end, arec["role"])
                    conf = float(arec.get("confidence", 1.0))
                    conf_by_key[key] = max(conf, conf_by_key.get(key, 0.0))
                out[doc_id].append(
                    TaggerPrediction(
                        event=event,
                        trigger_confidence=_trigger_conf(erec, lineno),
                        argument_confidences=tuple(
                            conf_by_key[a.key] for a in event.arguments
                        ),
                    )
                )
    for preds in out.values():
        preds.sort(key=lambda p: (p.event.trigger.start, p.event.trigger.end))
    return out


def _trigger_conf(erec: dict, lineno: int) -> float:
    try:
        return float(erec["trigger_confidence"])
    except KeyError as exc:
        raise CorpusFormatError("event missing trigger_confidence", line=lineno) from exc


def load_final_predictions(
    path: str | Path, corpus: list[Document]
) -> dict[str, list[EventMention]]:
    """Load a pipeline prediction file (corpus event schema, provenance
    fields tolerated and ignored) keyed by doc_id."""
    by_id = {doc.doc_id: doc for doc in corpus}
    out: dict[str, list[EventMention]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            doc_id = rec.get("doc_id")
            if doc_id not in by_id:
                raise UnknownDocumentError(
                    f"line {lineno}: prediction for unknown doc_id {doc_id!r}"
                )
            events = [_event_from_record(e) for e in rec.get("events", ())]
            for event in events:
                by_id[doc_id].check_containment(event.trigger)
            out[doc_id] = events
    return out


def parse_agent_output(raw: str, doc: Document) -> list[EventMention]:
    """Parse one agent reply into grounded EventMentions.

    Extracts the first fenced block, expects ``Events = [...]``, and grounds
    each surface string in ``doc.text``. Events whose trigger surface does
    not occur anywhere in the text are dropped (span validation); so are
    individual non-occurring arguments. Raises ReplyParseError (carrying the
    raw text) when there is no fence or the payload is not the expected
    shape - the caller decides the retry policy.
    """
    _, payload = parse_answer(raw, expected_key="Events")
    if not isinstance(payload, list):
        raise ReplyParseError(f"Events payload is not a list: {payload!r}", raw=raw)

    cursor: dict[str, int] = {}

    def ground(surface) -> Span | None:
        if not isinstance(surface, str) or not surface:
            return None
        span = locate_span(doc, surface, cursor.get(surface, 0))
        if span is None and cursor.get(surface, 0) > 0:
            span = locate_span(doc, surface, 0)  # occurrences exhausted: wrap
        if span is not None:
            cursor[surface] = span.start + 1
        return span

    events: list[EventMention] = []
    for item in payload:
        if not isinstance(item, dict) or "trigger" not in item or "type" not in item:
            raise ReplyParseError(f"malformed event item: {item!r}", raw=raw)
        trig = ground(item["trigger"])
        if trig is None:
            continue
        args = []
        for arec in item.get("arguments", ()):
            if not isinstance(arec, dict) or "text" not in arec or "role" not in arec:
                raise ReplyParseError(f"malformed argument item: {arec!r}", raw=raw)
            span = ground(arec["text"])
            if span is None or not arec["role"]:
                continue
            args.append(ArgumentMention(span, arec["role"]))
        events.append(EventMention(trig, str(item["type"]), tuple(args)))
    return events


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
