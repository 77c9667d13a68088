"""Grid-search calibration of the confidence thresholds on a dev split.

Confidence distributions are computed separately for correct and incorrect
dev predictions; their quartiles guide the search grid (widened a step each
side, always including 0.0 and a just-above-one sentinel so "keep all" and
"never keep directly" stay reachable). Every triple on the grid is scored
by the dev-set F1 of the downstream pipeline - with reflection replaced by
a stand-in, keep-all by default - and the argmax-F1 triple wins; ties break
to the smallest theta_smoa_lo, then theta_s, then theta_smoa_hi.

Each dev document is run through pipeline.prepare once per call. A
threshold setting only decides, for every scored trigger and argument,
whether a tagger item is kept or removed and whether an ensemble item is
retained, reflected or removed; that band vector over the dev set is fixed
by how many of the pooled confidences fall below each cutoff. The stand-in
reflectors are pure functions of their items, so settings with equal cut
positions give identical decisions: pipeline.decide and scoring run once per
distinct band signature, and every other grid point reuses its metrics.

Trigger thresholds are tuned first against trigger-classification F1; the
argument triple is then tuned against argument-classification F1 with the
trigger triple held fixed.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from .confidence import Source, ThresholdSet, ThresholdTriple, smoa_confidence
from .ensemble import VoteLedger, cleanup_predictions
from .errors import ConfigurationError
from .ingest import TaggerPrediction
from .metrics import Metrics, gold_from_corpus, score_predictions
from .model import Document, EventMention, trigger_id
from .pipeline import PreparedDocument, Reflector, decide, prepare, standin_reflector

__all__ = [
    "DevPredictions",
    "derive_search_values",
    "grid_step_in_range",
    "collect_confidence_samples",
    "evaluate_threshold_set",
    "tune_thresholds",
]

# With this triple no argument survives filtering; used while tuning
# triggers, where the argument stage cannot affect the objective.
_DROP_ALL_ARGS = ThresholdTriple(theta_s=2.0, theta_smoa_hi=2.0, theta_smoa_lo=2.0)


@dataclass
class DevPredictions:
    """Pre-computed dev-split predictions from both sources."""

    tagger: dict[str, list[TaggerPrediction]]
    smoa: dict[str, tuple[list[EventMention], VoteLedger]]
    n_agents: int


def _quartiles(data: list[float]) -> tuple[float, float]:
    if len(data) >= 2:
        q = statistics.quantiles(data, n=4, method="inclusive")
        return q[0], q[2]
    return data[0], data[0]


def grid_step_in_range(step: float) -> bool:
    """Whether ``step`` is a usable grid step: positive and finite."""
    return 0.0 < step < math.inf


def derive_search_values(
    correct: list[float], incorrect: list[float], step: float
) -> list[float]:
    """Grid values spanning the quartile range of the two distributions.

    The grid runs from one step below the lowest first quartile to one step
    above the highest third quartile (clamped at 0), and always includes
    0.0 and the 1.0 + step sentinel.
    """
    if not grid_step_in_range(step):
        raise ConfigurationError(f"grid step must be positive and finite, got {step}")
    pools = [d for d in (correct, incorrect) if d]
    if not pools:
        raise ConfigurationError("no dev predictions to derive a search range from")
    quarts = [_quartiles(d) for d in pools]
    lo_raw = min(q[0] for q in quarts)
    hi_raw = max(q[1] for q in quarts)
    lo = max(0.0, (math.floor(lo_raw / step + 1e-9) - 1) * step)
    hi = min((math.ceil(hi_raw / step - 1e-9) + 1) * step, 1.0 + step)
    values = {round(0.0, 10), round(1.0 + step, 10)}
    count = int(round((hi - lo) / step))
    for i in range(count + 1):
        values.add(round(lo + i * step, 10))
    return sorted(values)


def collect_confidence_samples(
    dev: list[Document], predictions: DevPredictions, level: str
) -> tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]]:
    """((tagger correct, tagger incorrect), (smoa correct, smoa incorrect))
    confidence samples at the requested level ("trigger" or "argument")."""
    if level not in ("trigger", "argument"):
        raise ConfigurationError(f"unknown level {level!r}")
    tagger_c: list[float] = []
    tagger_i: list[float] = []
    smoa_c: list[float] = []
    smoa_i: list[float] = []
    n = predictions.n_agents

    for doc in dev:
        if doc.gold_events is None:
            raise ConfigurationError(f"dev doc {doc.doc_id!r} has no gold events")
        gold_triggers = {trigger_id(e) for e in doc.gold_events}
        gold_args = {
            (trigger_id(e), a.key) for e in doc.gold_events for a in e.arguments
        }

        for pred in predictions.tagger.get(doc.doc_id, []):
            tid = trigger_id(pred.event)
            if level == "trigger":
                (tagger_c if tid in gold_triggers else tagger_i).append(
                    pred.trigger_confidence
                )
            else:
                for arg, conf in zip(pred.event.arguments, pred.argument_confidences):
                    (tagger_c if (tid, arg.key) in gold_args else tagger_i).append(conf)

        events, ledger = predictions.smoa.get(doc.doc_id, ([], VoteLedger()))
        seen_triggers: set = set()
        seen_args: set = set()
        for event in cleanup_predictions(events, doc):
            tid = trigger_id(event)
            if level == "trigger":
                if tid in seen_triggers:
                    continue
                seen_triggers.add(tid)
                conf = smoa_confidence(ledger, n, tid)
                (smoa_c if tid in gold_triggers else smoa_i).append(conf)
            else:
                for arg in event.arguments:
                    if (tid, arg.key) in seen_args:
                        continue
                    seen_args.add((tid, arg.key))
                    conf = smoa_confidence(ledger, n, tid, arg.key)
                    (smoa_c if (tid, arg.key) in gold_args else smoa_i).append(conf)

    return (tagger_c, tagger_i), (smoa_c, smoa_i)


def evaluate_threshold_set(
    prepared: list[PreparedDocument], thresholds: ThresholdSet, reflector: Reflector
) -> Metrics:
    """Dev-set metrics of the downstream pipeline at one threshold setting."""
    preds = {p.doc.doc_id: decide(p, thresholds, reflector).final_events for p in prepared}
    return score_predictions(preds, gold_from_corpus([p.doc for p in prepared]))


def _confidence_cuts(prepared: list[PreparedDocument]) -> dict[tuple[str, Source], list[float]]:
    """Sorted distinct confidences of every scored item, per level and source."""
    pools: dict[tuple[str, Source], set[float]] = {
        (level, source): set() for level in ("trigger", "argument") for source in Source
    }
    for p in prepared:
        for level, items in (("trigger", p.trigger_scored), ("argument", p.scored_arguments())):
            for item in items:
                pools[level, item.source].add(item.confidence)
    return {key: sorted(values) for key, values in pools.items()}


def _band_signature(
    cuts: dict[tuple[str, Source], list[float]], thresholds: ThresholdSet
) -> tuple[int, ...]:
    """How many pooled confidences fall below each cutoff. A tagger item is
    kept iff its confidence is at or above theta_s, an ensemble item is
    retained at or above theta_smoa_hi and removed below theta_smoa_lo, so
    these counts fix the band of every scored item, and vice versa."""
    signature = []
    for level, triple in (("trigger", thresholds.trigger), ("argument", thresholds.argument)):
        tagger, smoa = cuts[level, Source.TAGGER], cuts[level, Source.SMOA]
        signature += [
            bisect_left(tagger, triple.theta_s),
            bisect_left(smoa, triple.theta_smoa_hi),
            bisect_left(smoa, triple.theta_smoa_lo),
        ]
    return tuple(signature)


def _tune_level(
    level: str,
    s_values: list[float],
    m_values: list[float],
    metrics_at: Callable[[ThresholdSet], Metrics],
    fixed_trigger: ThresholdTriple | None,
) -> ThresholdTriple:
    best: tuple[float, ThresholdTriple] | None = None
    for lo in m_values:
        for theta_s in s_values:
            for hi in m_values:
                if lo > hi:
                    continue
                triple = ThresholdTriple(theta_s=theta_s, theta_smoa_hi=hi, theta_smoa_lo=lo)
                if level == "trigger":
                    thresholds = ThresholdSet(trigger=triple, argument=_DROP_ALL_ARGS)
                else:
                    assert fixed_trigger is not None
                    thresholds = ThresholdSet(trigger=fixed_trigger, argument=triple)
                metrics = metrics_at(thresholds)
                f1 = (metrics.trigger_cls if level == "trigger" else metrics.argument_cls).f1
                # Ascending (lo, theta_s, hi) iteration + strict improvement
                # keeps the lexicographically smallest argmax.
                if best is None or f1 > best[0]:
                    best = (f1, triple)
    assert best is not None
    return best[1]


def tune_thresholds(
    dev: list[Document],
    predictions: DevPredictions,
    grid_step: float = 0.05,
    overlap_threshold: float = 0.5,
    reflection_standin: str = "keep-all",
) -> ThresholdSet:
    """Argmax-F1 threshold triples for triggers and arguments.

    Equals exhaustive brute-force search over the derived grids; see the
    module docstring for the search-range and tie-break rules and for why
    each distinct band signature is evaluated only once.
    """
    if not dev:
        raise ConfigurationError("threshold tuning needs a non-empty dev set")
    reflector = standin_reflector(reflection_standin)

    def values(correct, incorrect):
        if not correct and not incorrect:
            # This source made no dev predictions, so its cutoff is inert;
            # search just the two extremes.
            return [0.0, round(1.0 + grid_step, 10)]
        return derive_search_values(correct, incorrect, grid_step)

    (tc, ti), (mc, mi) = collect_confidence_samples(dev, predictions, "trigger")
    prepared = [
        prepare(
            doc,
            predictions.tagger.get(doc.doc_id, []),
            *predictions.smoa.get(doc.doc_id, ([], VoteLedger())),
            predictions.n_agents,
            overlap_threshold,
        )
        for doc in dev
    ]
    cuts = _confidence_cuts(prepared)
    cache: dict[tuple[int, ...], Metrics] = {}

    def metrics_at(thresholds: ThresholdSet) -> Metrics:
        signature = _band_signature(cuts, thresholds)
        if signature not in cache:
            cache[signature] = evaluate_threshold_set(prepared, thresholds, reflector)
        return cache[signature]

    trigger_triple = _tune_level(
        "trigger", values(tc, ti), values(mc, mi), metrics_at, None
    )

    (tc, ti), (mc, mi) = collect_confidence_samples(dev, predictions, "argument")
    argument_triple = _tune_level(
        "argument", values(tc, ti), values(mc, mi), metrics_at, trigger_triple
    )
    return ThresholdSet(trigger=trigger_triple, argument=argument_triple)
