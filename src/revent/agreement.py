"""Consensus detection between ensemble and tagger predictions.

Triggers from the two sources agree when their event types match and their
character spans overlap at or above a threshold (Jaccard); for a matched
trigger pair, arguments agree when roles match and spans overlap. Both
levels use one matcher, greedy by descending overlap and strictly
one-to-one, and both keep the tagger's side of a pair, since boundary
precision is its strength. At threshold 1.0 with identical argument sets
this degenerates to exact whole-event intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .model import ArgumentMention, EventMention, canonical_key, span_overlap

__all__ = [
    "MatchedPair",
    "MatchReport",
    "match_triggers",
    "match_arguments",
    "overlap_in_range",
]

Mention = EventMention | ArgumentMention


@dataclass(frozen=True)
class MatchedPair:
    """One ensemble item aligned to one tagger item (events or arguments).

    ``retained`` is the side carried forward: the tagger's.
    """

    smoa: Mention
    tagger: Mention
    overlap: float

    @property
    def retained(self) -> Mention:
        return self.tagger


@dataclass(frozen=True)
class MatchReport:
    consensus: tuple[MatchedPair, ...]
    smoa_only: tuple[Mention, ...]
    tagger_only: tuple[Mention, ...]


def overlap_in_range(threshold: float) -> bool:
    """Whether ``threshold`` is a usable overlap threshold: in (0, 1]."""
    return 0.0 < threshold <= 1.0


def _match(smoa: list, tagger: list, label: str, span: str, threshold: float) -> MatchReport:
    """Greedy maximum-overlap one-to-one matching on attributes ``label`` and ``span``.

    Candidate pairs need equal labels and span overlap at or above the
    threshold. Ties on overlap break to the earliest tagger span, then the
    earliest ensemble span, then input order. Every input item lands in
    exactly one of the report's three lists.
    """
    if not overlap_in_range(threshold):
        raise ContractError(f"overlap threshold must be in (0, 1], got {threshold}")
    s_items = [(getattr(s, label), getattr(s, span)) for s in smoa]
    t_items = [(getattr(t, label), getattr(t, span)) for t in tagger]

    candidates = []
    for si, (s_label, s_span) in enumerate(s_items):
        for ti, (t_label, t_span) in enumerate(t_items):
            if s_label != t_label:
                continue
            ov = span_overlap(s_span, t_span)
            if ov >= threshold:
                candidates.append((-ov, t_span.start, t_span.end, s_span.start, s_span.end, ti, si))
    candidates.sort()

    matched_s: set[int] = set()
    matched_t: set[int] = set()
    pairs: list[MatchedPair] = []
    for neg_ov, _, _, _, _, ti, si in candidates:
        if si in matched_s or ti in matched_t:
            continue
        matched_s.add(si)
        matched_t.add(ti)
        pairs.append(MatchedPair(smoa=smoa[si], tagger=tagger[ti], overlap=-neg_ov))

    return MatchReport(
        consensus=tuple(pairs),
        smoa_only=tuple(s for i, s in enumerate(smoa) if i not in matched_s),
        tagger_only=tuple(t for i, t in enumerate(tagger) if i not in matched_t),
    )


def match_triggers(
    smoa: list[EventMention],
    tagger: list[EventMention],
    overlap_threshold: float = 0.5,
) -> MatchReport:
    """Match trigger predictions: equal event type, trigger overlap at or
    above the threshold. Cross-type pairs are never consensus regardless
    of overlap. Both lists must be deduplicated on whole-event identity.
    """
    for name, events in (("smoa", smoa), ("tagger", tagger)):
        keys = [canonical_key(e) for e in events]
        if len(set(keys)) != len(keys):
            raise ContractError(f"{name} events are not deduplicated")
    return _match(smoa, tagger, "event_type", "trigger", overlap_threshold)


def match_arguments(pair: MatchedPair, overlap_threshold: float = 0.5) -> MatchReport:
    """Align the arguments of a matched trigger pair: equal role, span
    overlap at or above the threshold. Agreement is partial - a trigger may
    have some arguments in consensus and others not.
    """
    return _match(pair.smoa.arguments, pair.tagger.arguments, "role", "span", overlap_threshold)
