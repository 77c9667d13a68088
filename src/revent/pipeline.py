"""End-to-end per-document pipeline.

For one document: match ensemble predictions against tagger predictions at
the trigger level, filter single-source trigger disagreements by
confidence (ensemble confidence is confidence.smoa_confidence), do the same
per argument under every surviving trigger, send the intermediate-confidence
leftovers to reflection, and hand the surviving candidates, in
path-precedence order (consensus, retained tagger, retained ensemble,
reflected), to integration.finalize_events, which merges them per trigger
into the final provenance-tagged event set.

The work is split in two steps. ``prepare`` does everything that does not
depend on the thresholds - tagger de-duplication, cleanup, trigger and
argument matching, and every tagger and ensemble confidence - and builds
each trigger candidate once: a consensus candidate with its agreed and
scored arguments, and a single-source candidate that also carries its side
and trigger confidence. It returns them in an immutable PreparedDocument.
``decide(prepared, thresholds, reflector)`` partitions the single-source
candidates themselves with filter_disagreements, then makes one pass over
every candidate - filter its arguments, keep the retained ones, queue a
reflection item if it needs a verdict - calls the reflector once and
assembles the final set. It never mutates ``prepared``, so one prepared
document can be decided at any number of threshold settings.
``extract_document`` is ``decide(prepare(...), ...)``.

The reflection step is pluggable: every reflector is reflection.resolve
with its own judges. The live reflector's judges prompt a chat backend,
one argument prompt per trigger id; the keep-all / drop-all / gold-oracle
stand-ins, for tuning and simulation, judge each argument on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .agreement import MatchReport, match_arguments, match_triggers
from .backends import ChatBackend
from .confidence import (
    Partition,
    ScoredArgument,
    Source,
    ThresholdSet,
    filter_disagreements,
    smoa_confidence,
)
from .ensemble import VoteLedger, cleanup_predictions
from .errors import ConfigurationError
from .ingest import TaggerPrediction
from .integration import Provenance, ProvenancedEvent, finalize_events
from .model import (
    ArgumentMention,
    Document,
    EventKey,
    EventMention,
    Span,
    canonical_key,
    gold_argument_verdicts,
    gold_trigger_verdicts,
    trigger_id,
)
from .reflection import (
    AuditLog,
    ReflectionConfig,
    ReflectionItem,
    ReflectionResult,
    reflect,
    resolve,
)

__all__ = [
    "Reflector",
    "keep_all_reflector",
    "drop_all_reflector",
    "oracle_reflector",
    "backend_reflector",
    "DocumentResult",
    "PreparedDocument",
    "prepare",
    "decide",
    "extract_document",
]

# A reflector resolves ambiguous items for one document.
Reflector = Callable[[Document, list[ReflectionItem]], list[ReflectionResult]]


def _constant(flag: bool):
    """A trigger or argument judge that answers ``flag`` for every candidate."""
    return lambda *query: [flag] * len(query[-1])


def keep_all_reflector(doc: Document, items: list[ReflectionItem]) -> list[ReflectionResult]:
    """Stand-in that confirms every ambiguous trigger and argument."""
    return resolve(items, _constant(True), _constant(True))


def drop_all_reflector(doc: Document, items: list[ReflectionItem]) -> list[ReflectionResult]:
    """Stand-in that rejects every ambiguous trigger and argument."""
    return resolve(items, _constant(False), _constant(False))


def oracle_reflector(doc: Document, items: list[ReflectionItem]) -> list[ReflectionResult]:
    """Stand-in that answers from gold: surface-level trigger and
    (text, role) argument lookup. Upper-bounds reflection quality."""
    gold = doc.require_gold()
    return resolve(
        items,
        lambda phrases: gold_trigger_verdicts(gold, phrases),
        lambda event, args: gold_argument_verdicts(
            gold, event.trigger.text, event.event_type, [(a.span.text, a.role) for a in args]
        ),
    )


def backend_reflector(backend: ChatBackend, config: ReflectionConfig, audit: AuditLog) -> Reflector:
    """The live reflector: structured prompts against a chat backend,
    every exchange recorded in ``audit``."""

    def run(doc: Document, items: list[ReflectionItem]) -> list[ReflectionResult]:
        return reflect(items, doc, backend, config, audit)

    return run


def standin_reflector(name: str) -> Reflector:
    try:
        return {
            "keep-all": keep_all_reflector,
            "drop-all": drop_all_reflector,
            "oracle": oracle_reflector,
        }[name]
    except KeyError:
        raise ConfigurationError(f"unknown reflection stand-in {name!r}")


@dataclass(frozen=True)
class _Candidate:
    """One trigger that may reach the final set, with its scored arguments.

    A single-source candidate carries its side and trigger confidence, so
    filter_disagreements partitions candidates directly; a consensus
    candidate has neither and carries its agreed arguments instead.
    """

    trigger: Span
    event_type: str
    scored_args: tuple[ScoredArgument, ...]
    source: Source | None = None
    confidence: float | None = None
    agreed_args: tuple[tuple[ArgumentMention, Provenance], ...] = ()

    @property
    def event(self) -> EventMention:
        return EventMention(self.trigger, self.event_type)


@dataclass(frozen=True)
class PreparedDocument:
    """The threshold-independent state of one document (see ``prepare``)."""

    doc: Document
    trigger_report: MatchReport
    consensus: tuple[_Candidate, ...]
    # Single-source candidates, tagger side first.
    trigger_scored: tuple[_Candidate, ...]

    def scored_arguments(self) -> list[ScoredArgument]:
        """Every argument an argument threshold can decide on."""
        return [arg for c in self.consensus + self.trigger_scored for arg in c.scored_args]


@dataclass
class DocumentResult:
    """Everything the pipeline decided for one document."""

    doc_id: str
    trigger_report: MatchReport
    trigger_partition: Partition
    final: list[ProvenancedEvent]

    @property
    def final_events(self) -> list[EventMention]:
        return [pe.event for pe in self.final]


def _dedupe_tagger(preds: list[TaggerPrediction]) -> dict[EventKey, TaggerPrediction]:
    best: dict[EventKey, TaggerPrediction] = {}
    for pred in preds:
        key = canonical_key(pred.event)
        if key not in best or pred.trigger_confidence > best[key].trigger_confidence:
            best[key] = pred
    return best


def prepare(
    doc: Document,
    tagger_predictions: list[TaggerPrediction],
    smoa_events: list[EventMention],
    ledger: VoteLedger,
    n_agents: int,
    overlap_threshold: float = 0.5,
) -> PreparedDocument:
    """Match and score one document's predictions, once for any thresholds.

    ``smoa_events`` is the aggregated (not necessarily cleaned) agent union
    with its vote ledger over ``n_agents`` agents; ``tagger_predictions``
    carry the tagger confidences.
    """
    pred_by_key = _dedupe_tagger(tagger_predictions)
    tagger_events = [p.event for p in pred_by_key.values()]
    report = match_triggers(cleanup_predictions(smoa_events, doc), tagger_events, overlap_threshold)

    def score_arguments(event: EventMention, source: Source, args) -> tuple[ScoredArgument, ...]:
        if source is Source.TAGGER:
            pred = pred_by_key[canonical_key(event)]
            return tuple(ScoredArgument(a, source, pred.argument_confidence(a)) for a in args)
        tid = trigger_id(event)
        return tuple(
            ScoredArgument(a, source, smoa_confidence(ledger, n_agents, tid, a.key)) for a in args
        )

    def single_source(event: EventMention, source: Source) -> _Candidate:
        if source is Source.TAGGER:
            confidence = pred_by_key[canonical_key(event)].trigger_confidence
        else:
            confidence = smoa_confidence(ledger, n_agents, trigger_id(event))
        return _Candidate(
            event.trigger, event.event_type, score_arguments(event, source, event.arguments),
            source, confidence,
        )

    # Consensus keeps the tagger span and pools both argument sides.
    consensus = []
    for pair in report.consensus:
        arg_report = match_arguments(pair, overlap_threshold)
        consensus.append(_Candidate(
            trigger=pair.tagger.trigger,
            event_type=pair.tagger.event_type,
            scored_args=score_arguments(pair.tagger, Source.TAGGER, arg_report.tagger_only)
            + score_arguments(pair.smoa, Source.SMOA, arg_report.smoa_only),
            agreed_args=tuple((m.retained, Provenance.AGREED) for m in arg_report.consensus),
        ))

    return PreparedDocument(
        doc=doc,
        trigger_report=report,
        consensus=tuple(consensus),
        trigger_scored=tuple(single_source(e, Source.TAGGER) for e in report.tagger_only)
        + tuple(single_source(e, Source.SMOA) for e in report.smoa_only),
    )


def decide(
    prepared: PreparedDocument,
    thresholds: ThresholdSet,
    reflector: Reflector = keep_all_reflector,
) -> DocumentResult:
    """Filter, reflect and assemble a prepared document at ``thresholds``.

    ``prepared`` is only read, so the result depends on ``thresholds`` and
    on the reflector's verdicts alone.
    """
    trigger_partition = filter_disagreements(prepared.trigger_scored, thresholds.trigger)

    # One pass over the candidates in path-precedence order (consensus,
    # retained tagger, retained ensemble, reflected): filter each one's
    # arguments, keep its retained pairs, and queue a reflection item when
    # its trigger is ambiguous or it has pending arguments.
    entries = []
    items = []
    for group, provenance in (
        (prepared.consensus, Provenance.AGREED),
        (trigger_partition.retained_tagger, Provenance.HIGH_CONF_TAGGER),
        (trigger_partition.retained_smoa, Provenance.HIGH_CONF_SMOA),
        (trigger_partition.reflect, Provenance.REFLECTED),
    ):
        ambiguous = provenance is Provenance.REFLECTED
        for cand in group:
            part = filter_disagreements(cand.scored_args, thresholds.argument)
            arg_pairs = [
                *cand.agreed_args,
                *((s.argument, Provenance.HIGH_CONF_TAGGER) for s in part.retained_tagger),
                *((s.argument, Provenance.HIGH_CONF_SMOA) for s in part.retained_smoa),
            ]
            pending = tuple(s.argument for s in part.reflect)
            awaits = ambiguous or bool(pending)
            if awaits:
                items.append(ReflectionItem(cand.event, ambiguous, pending))
            entries.append((cand, provenance, arg_pairs, awaits))

    results = reflector(prepared.doc, items) if items else []
    if len(results) != len(items):
        raise ConfigurationError(
            f"reflector returned {len(results)} results for {len(items)} items"
        )

    # The verdicts come back in item order: drop rejected triggers and add
    # confirmed arguments, still in path-precedence order.
    verdicts = iter(results)
    kept = []
    for cand, provenance, arg_pairs, awaits in entries:
        if awaits:
            result = next(verdicts)
            if not result.trigger_kept:
                continue
            arg_pairs += [(arg, Provenance.REFLECTED) for arg in result.confirmed_arguments]
        kept.append((cand.trigger, cand.event_type, provenance, arg_pairs))

    return DocumentResult(
        doc_id=prepared.doc.doc_id,
        trigger_report=prepared.trigger_report,
        trigger_partition=trigger_partition,
        final=finalize_events(kept),
    )


def extract_document(
    doc: Document,
    tagger_predictions: list[TaggerPrediction],
    smoa_events: list[EventMention],
    ledger: VoteLedger,
    n_agents: int,
    thresholds: ThresholdSet,
    overlap_threshold: float = 0.5,
    reflector: Reflector = keep_all_reflector,
) -> DocumentResult:
    """Run matching, filtering, reflection, and final assembly for one doc:
    ``decide(prepare(...), thresholds, reflector)``."""
    prepared = prepare(doc, tagger_predictions, smoa_events, ledger, n_agents, overlap_threshold)
    return decide(prepared, thresholds, reflector)
