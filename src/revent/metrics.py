"""Exact-match micro precision/recall/F1 for the four extraction subtasks.

Trigger identification matches on exact character offsets; trigger
classification additionally requires the event type. Argument scores count
an argument only under a correctly classified trigger (switchable to
identification-level gating); argument classification additionally requires
the role. Counts are pooled over all documents (micro averaging) and
duplicate predictions collapse before counting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, UnknownDocumentError
from .model import Document, EventMention

__all__ = ["SubtaskCounts", "Metrics", "score_predictions", "gold_from_corpus"]

SUBTASKS = ("trigger_id", "trigger_cls", "argument_id", "argument_cls")
_HEADERS = {"trigger_id": "Trg-I", "trigger_cls": "Trg-C",
            "argument_id": "Arg-I", "argument_cls": "Arg-C"}


@dataclass(frozen=True)
class SubtaskCounts:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def __add__(self, other: "SubtaskCounts") -> "SubtaskCounts":
        return SubtaskCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def as_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
        }


@dataclass(frozen=True)
class Metrics:
    trigger_id: SubtaskCounts
    trigger_cls: SubtaskCounts
    argument_id: SubtaskCounts
    argument_cls: SubtaskCounts

    def __add__(self, other: "Metrics") -> "Metrics":
        """Pooled counts of two disjoint document sets (micro averaging)."""
        return Metrics(
            self.trigger_id + other.trigger_id,
            self.trigger_cls + other.trigger_cls,
            self.argument_id + other.argument_id,
            self.argument_cls + other.argument_cls,
        )

    def as_dict(self) -> dict:
        return {name: getattr(self, name).as_dict() for name in SUBTASKS}

    def table(self) -> str:
        """Aligned plain-text report, one subtask per column."""
        rows = [("", *(_HEADERS[n] for n in SUBTASKS))]
        for field in ("precision", "recall", "f1"):
            rows.append(
                (field, *(f"{getattr(getattr(self, n), field):.4f}" for n in SUBTASKS))
            )
        rows.append(
            ("tp/fp/fn", *(f"{c.tp}/{c.fp}/{c.fn}"
                           for c in (getattr(self, n) for n in SUBTASKS)))
        )
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        )


def gold_from_corpus(corpus: list[Document]) -> dict[str, list[EventMention]]:
    """Per-doc gold map from an annotated corpus; unannotated docs error."""
    return {doc.doc_id: list(doc.require_gold()) for doc in corpus}


def _counts(pred: set, gold: set) -> tuple[int, int, int]:
    tp = len(pred & gold)
    return tp, len(pred) - tp, len(gold) - tp


def score_predictions(
    preds: dict[str, list[EventMention]],
    gold: dict[str, list[EventMention]],
    gating: str = "trg-c",
) -> Metrics:
    """Micro-averaged exact-match scores over all documents.

    ``gating`` controls which predicted triggers admit their arguments into
    the argument scores: "trg-c" (default) requires the correct event type,
    "trg-i" only the correct span.
    """
    if gating not in ("trg-c", "trg-i"):
        raise ConfigurationError(f"unknown gating mode {gating!r}")
    unknown = set(preds) - set(gold)
    if unknown:
        raise UnknownDocumentError(f"predictions for unknown doc_ids: {sorted(unknown)}")

    totals = {name: SubtaskCounts(0, 0, 0) for name in SUBTASKS}
    for doc_id, gold_events in gold.items():
        pred_events = preds.get(doc_id, [])

        def tuples(events):
            trg_i = {(e.trigger.start, e.trigger.end) for e in events}
            trg_c = {(e.trigger.start, e.trigger.end, e.event_type) for e in events}
            arg_i, arg_c = set(), set()
            for e in events:
                gate = (e.trigger.start, e.trigger.end) + (
                    (e.event_type,) if gating == "trg-c" else ()
                )
                for a in e.arguments:
                    arg_i.add(gate + (a.span.start, a.span.end))
                    arg_c.add(gate + (a.span.start, a.span.end, a.role))
            return {"trigger_id": trg_i, "trigger_cls": trg_c,
                    "argument_id": arg_i, "argument_cls": arg_c}

        p, g = tuples(pred_events), tuples(gold_events)
        for name in SUBTASKS:
            totals[name] += SubtaskCounts(*_counts(p[name], g[name]))

    return Metrics(**totals)
