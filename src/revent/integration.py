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

from .model import ArgumentKey, ArgumentMention, EventMention, Span, TriggerId, trigger_id

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

    @property
    def trigger_id(self) -> TriggerId:
        return trigger_id(self.event)

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
    set, building each final event once (its arguments sorted by EventMention)."""
    merged: dict[TriggerId, tuple[Span, Provenance, dict[ArgumentKey, tuple]]] = {}
    for trigger, event_type, provenance, arguments in kept:
        tid = (trigger.start, trigger.end, event_type)
        unique = merged.setdefault(tid, (trigger, provenance, {}))[2]
        for arg, prov in arguments:
            unique.setdefault(arg.key, (arg, prov))
    final = []
    for tid, (trigger, provenance, unique) in sorted(merged.items()):
        event = EventMention(trigger, tid[2], tuple(arg for arg, _ in unique.values()))
        final.append(ProvenancedEvent(
            event, provenance, tuple(unique[arg.key][1] for arg in event.arguments)
        ))
    return final
