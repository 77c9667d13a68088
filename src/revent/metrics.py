"""Exact-match micro precision/recall/F1 for the four extraction subtasks.

Trigger identification matches on exact character offsets; trigger
classification additionally requires the event type. Argument scores count
an argument only under a correctly classified trigger (switchable to
identification-level gating); argument classification additionally requires
the role. Counts are pooled over all documents (micro averaging) and
duplicate predictions collapse before counting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigurationError, UnknownDocumentError
from .model import Document, EventMention

__all__ = ["SubtaskCounts", "Metrics", "score_predictions", "gold_from_corpus"]

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

    def counts(self) -> tuple[int, ...]:
        """The flat counts: tp, fp, fn of each subtask, in ``SUBTASKS``
        order. Counts of disjoint document sets pool by summing them column
        by column (micro averaging)."""
        flat: tuple[int, ...] = ()
        for name in SUBTASKS:
            c = getattr(self, name)
            flat += (c.tp, c.fp, c.fn)
        return flat

    @classmethod
    def from_counts(cls, counts) -> "Metrics":
        """The metrics of flat counts laid out as ``counts()`` returns them:
        exactly three per subtask, else a ValueError."""
        c = tuple(counts)
        if len(c) != 3 * len(SUBTASKS):
            raise ValueError(f"expected {3 * len(SUBTASKS)} flat counts, got {len(c)}")
        return cls(*map(SubtaskCounts, c[0::3], c[1::3], c[2::3]))

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


# The subtasks, in the order of Metrics' fields and of its flat counts.
SUBTASKS = tuple(f.name for f in fields(Metrics))


def gold_from_corpus(corpus: list[Document]) -> dict[str, list[EventMention]]:
    """Per-doc gold map from an annotated corpus; unannotated docs error."""
    return {doc.doc_id: list(doc.require_gold()) for doc in corpus}


def _scored_tuples(events: list[EventMention], typed_gate: bool) -> tuple[set, set, set, set]:
    """The events' scored tuples, one set per subtask in ``SUBTASKS`` order.
    An argument is gated by its trigger's span, and also its event type
    when ``typed_gate``."""
    trg_i, trg_c, arg_i, arg_c = set(), set(), set(), set()
    for e in events:
        span = (e.trigger.start, e.trigger.end)
        typed = span + (e.event_type,)
        trg_i.add(span)
        trg_c.add(typed)
        gate = typed if typed_gate else span
        for a in e.arguments:
            arg = gate + (a.span.start, a.span.end)
            arg_i.add(arg)
            arg_c.add(arg + (a.role,))
    return trg_i, trg_c, arg_i, arg_c


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

    typed_gate = gating == "trg-c"
    totals = [0] * (3 * len(SUBTASKS))
    for doc_id, gold_events in gold.items():
        pred = _scored_tuples(preds.get(doc_id, []), typed_gate)
        counts = []
        for p, g in zip(pred, _scored_tuples(gold_events, typed_gate)):
            tp = len(p & g)
            counts += (tp, len(p) - tp, len(g) - tp)
        totals = [t + n for t, n in zip(totals, counts)]

    return Metrics.from_counts(totals)
