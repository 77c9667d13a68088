"""Final assembly of the prediction set with provenance preserved.

Kept events arrive from four paths - consensus, high-confidence tagger-only,
high-confidence ensemble-only, and reflection - in that precedence order,
and are merged under their trigger identifier (start, end, event_type):
the first trigger provenance wins, and on a duplicate argument the first
provenance wins, so identical kept events simply merge. A trigger's
arguments may mix provenances; each argument keeps both its provenance and
the identifier of the trigger it reattaches to. Output is ordered by
trigger position.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import IntegrationError
from .model import ArgumentMention, EventMention, Span, TriggerId

__all__ = ["Provenance", "ProvenancedEvent", "finalize_events"]


class Provenance(Enum):
    AGREED = "agreed"
    HIGH_CONF_TAGGER = "high_conf_tagger"
    HIGH_CONF_SMOA = "high_conf_smoa"
    REFLECTED = "reflected"


@dataclass(frozen=True)
class ProvenancedEvent:
    """An event plus the path each of its pieces took through the pipeline.

    ``argument_provenances`` is aligned index-for-index with
    ``event.arguments``; every argument implicitly carries this event's
    trigger identifier for reattachment.
    """

    event: EventMention
    trigger_provenance: Provenance
    argument_provenances: tuple[Provenance, ...] = ()

    def __post_init__(self):
        if len(self.argument_provenances) != len(self.event.arguments):
            raise IntegrationError(
                f"{len(self.argument_provenances)} argument provenances for "
                f"{len(self.event.arguments)} arguments"
            )

    @classmethod
    def build(
        cls,
        trigger: Span,
        event_type: str,
        trigger_provenance: Provenance,
        arguments: list[tuple[ArgumentMention, Provenance]] = (),
    ) -> "ProvenancedEvent":
        """Construct from unordered (argument, provenance) pairs."""
        unique: dict[tuple, tuple[ArgumentMention, Provenance]] = {}
        for arg, prov in arguments:
            unique.setdefault(arg.key, (arg, prov))
        ordered = sorted(unique.values(), key=lambda pair: pair[0].key)
        return cls(
            event=EventMention(trigger, event_type, tuple(a for a, _ in ordered)),
            trigger_provenance=trigger_provenance,
            argument_provenances=tuple(p for _, p in ordered),
        )

    @property
    def trigger_id(self) -> TriggerId:
        return (self.event.trigger.start, self.event.trigger.end, self.event.event_type)

    def argument_pairs(self) -> list[tuple[ArgumentMention, Provenance]]:
        return list(zip(self.event.arguments, self.argument_provenances))

    def to_record(self) -> dict:
        """JSON-serializable record mirroring the corpus event schema."""
        trig = self.event.trigger
        return {
            "trigger": {"text": trig.text, "start": trig.start, "end": trig.end},
            "type": self.event.event_type,
            "trigger_provenance": self.trigger_provenance.value,
            "arguments": [
                {
                    "text": arg.span.text,
                    "start": arg.span.start,
                    "end": arg.span.end,
                    "role": arg.role,
                    "provenance": prov.value,
                    "trigger_ref": list(self.trigger_id),
                }
                for arg, prov in self.argument_pairs()
            ],
        }


def finalize_events(
    kept: Iterable[tuple[Span, str, Provenance, Iterable[tuple[ArgumentMention, Provenance]]]],
) -> list[ProvenancedEvent]:
    """Merge kept (trigger, event_type, trigger provenance, argument pairs)
    entries, given in path-precedence order, into the final position-sorted
    set, building each final event once."""
    merged: dict[TriggerId, tuple[Span, Provenance, list]] = {}
    for trigger, event_type, provenance, arguments in kept:
        tid = (trigger.start, trigger.end, event_type)
        merged.setdefault(tid, (trigger, provenance, []))[2].extend(arguments)
    return [
        ProvenancedEvent.build(trigger, tid[2], provenance, arguments)
        for tid, (trigger, provenance, arguments) in sorted(merged.items())
    ]
