"""Grid-search calibration of the confidence thresholds on a dev split.

Confidence distributions are computed separately for correct and incorrect
dev predictions; their quartiles guide the search grid (widened a step each
side, always including 0.0 and a just-above-one sentinel so "keep all" and
"never keep directly" stay reachable). Every triple on the grid is scored
by the dev-set F1 of the downstream pipeline - with reflection replaced by
a stand-in, keep-all by default - and the argmax-F1 triple wins; ties break
to the smallest theta_smoa_lo, then theta_s, then theta_smoa_hi.

Each dev document is run through pipeline.prepare once per call. A cutoff
only decides, for every scored item it applies to, which side of it the
item's confidence falls on, so two grid values that put the same number of
the level's pooled confidences below them are interchangeable. The search
therefore walks per-axis classes: theta_s over the tagger confidences,
theta_smoa_lo and theta_smoa_hi over the ensemble confidences, each class
stood for by its smallest grid value. Walking these in ascending
(lo, theta_s, hi) order and keeping a triple only on a strict improvement
returns the same lexicographically smallest argmax as the full grid, and
every visited triple is a distinct band setting. Under a constant
stand-in the walk also pins the band edge it makes inert (below).

Micro-F1 is a sum of per-document counts, and the stand-in reflectors are
pure functions of one document's items. So each document is decided and
scored once per its own decision signature - how many of its own
confidences fall below each of the six cutoffs - and memoises its flat
counts (``Metrics.counts``) under it. A visited triple then costs one memo
lookup per document and one ``Metrics``, built from the documents' counts
summed column by column.

A constant stand-in makes one ensemble band edge inert at each level, and
the walk pins that edge to the first class it may take. Keep-all keeps
every reflected trigger and confirms every pending argument, so an
ensemble item in the band [theta_smoa_lo, theta_smoa_hi) ends up kept,
with its pending arguments, exactly as one at or above theta_smoa_hi,
whose pending arguments are reflected and confirmed too. Moving
theta_smoa_hi then changes only provenance, which scoring ignores: a
triple (lo, theta_s, hi) with hi above lo scores exactly as (lo, theta_s,
lo), which the walk reaches first, so only hi = lo is visited. Drop-all
rejects them all, so a band item is dropped exactly as one below
theta_smoa_lo: a triple whose lo is above the smallest ensemble class
scores exactly as the same theta_s and hi at that class, reached first,
so only that lo is visited. A skipped triple can never strictly improve on
its earlier twin, so the pinned walk returns the full walk's argmax. Any
other reflector (the oracle, the live one, a caller's own) may judge band
items one by one, so it walks every lo <= hi.

Trigger thresholds are tuned first against trigger-classification F1; the
argument triple is then tuned against argument-classification F1 with the
trigger triple held fixed.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from .confidence import Source, ThresholdSet, ThresholdTriple, smoa_confidence
from .ensemble import VoteLedger, cleanup_predictions
from .errors import ConfigurationError
from .ingest import TaggerPrediction
from .metrics import SUBTASKS, Metrics, gold_from_corpus, score_predictions
from .model import Document, EventMention, trigger_id
from .pipeline import (
    PreparedDocument,
    Reflector,
    decide,
    drop_all_reflector,
    keep_all_reflector,
    prepare,
    standin_reflector,
)

__all__ = [
    "DevPredictions",
    "derive_search_values",
    "MIN_GRID_STEP",
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


# The finest grid step: about a million grid values at most, per level.
MIN_GRID_STEP = 1e-6


def grid_step_in_range(step: float) -> bool:
    """Whether ``step`` is a usable grid step: finite and at least ``MIN_GRID_STEP``."""
    return MIN_GRID_STEP <= step < math.inf


def derive_search_values(
    correct: list[float], incorrect: list[float], step: float
) -> list[float]:
    """Grid values spanning the quartile range of the two distributions.

    The grid runs from one step below the lowest first quartile to one step
    above the highest third quartile (clamped at 0), and always includes
    0.0 and the 1.0 + step sentinel.
    """
    if not grid_step_in_range(step):
        raise ConfigurationError(f"grid step must be finite and at least {MIN_GRID_STEP:g}, got {step}")
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
    dev: list[Document], predictions: DevPredictions
) -> dict[str, tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]]]:
    """The dev predictions' confidence samples at each level, from one pass:
    ``{"trigger": ..., "argument": ...}``, each ((tagger correct, tagger
    incorrect), (smoa correct, smoa incorrect)).

    Every tagger trigger and argument is a sample. Each dev document's
    ensemble union is cleaned once, and each ensemble trigger, and each
    argument of a trigger, is one sample however many events carry it.
    """
    samples = {level: (([], []), ([], [])) for level in ("trigger", "argument")}
    (tagger_trig, smoa_trig), (tagger_arg, smoa_arg) = samples.values()
    n = predictions.n_agents

    for doc in dev:
        gold = doc.require_gold()
        gold_triggers = {trigger_id(e) for e in gold}
        gold_args = {(trigger_id(e), a.key) for e in gold for a in e.arguments}
        # A pool pair is (correct, incorrect), so a wrong item goes to [True].
        for pred in predictions.tagger.get(doc.doc_id, []):
            tid = trigger_id(pred.event)
            tagger_trig[tid not in gold_triggers].append(pred.trigger_confidence)
            for arg, conf in zip(pred.event.arguments, pred.argument_confidences):
                tagger_arg[(tid, arg.key) not in gold_args].append(conf)

        events, ledger = predictions.smoa.get(doc.doc_id, ([], VoteLedger()))
        cleaned = cleanup_predictions(events, doc)
        for tid in dict.fromkeys(map(trigger_id, cleaned)):
            smoa_trig[tid not in gold_triggers].append(smoa_confidence(ledger, n, tid))
        for tid, key in dict.fromkeys((trigger_id(e), a.key) for e in cleaned for a in e.arguments):
            smoa_arg[(tid, key) not in gold_args].append(smoa_confidence(ledger, n, tid, key))

    return samples


# The ensemble band edge that decides under each constant stand-in; the
# walk pins the other, inert, edge (see the module docstring).
_DECIDING_EDGE = {keep_all_reflector: "theta_smoa_lo", drop_all_reflector: "theta_smoa_hi"}

# The flat counts of no documents.
_NO_COUNTS = (0,) * (3 * len(SUBTASKS))


@dataclass
class _DevDocument:
    """A prepared dev document, its own confidence cuts (see
    ``_confidence_cuts``), the reflector it is decided with, and its flat
    counts (``Metrics.counts``) at each own decision signature."""

    prepared: PreparedDocument
    cuts: tuple[tuple[list[float], list[float]], ...]
    reflector: Reflector
    counts: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)

    def counts_at(self, thresholds: ThresholdSet) -> tuple[int, ...]:
        # How many of the document's confidences fall below each cutoff. A
        # tagger item is kept iff its confidence is at or above theta_s, an
        # ensemble item is retained at or above theta_smoa_hi and removed
        # below theta_smoa_lo, so these counts fix every item's band.
        (trigger_tagger, trigger_smoa), (argument_tagger, argument_smoa) = self.cuts
        trigger, argument = thresholds.trigger, thresholds.argument
        signature = (
            bisect_left(trigger_tagger, trigger.theta_s),
            bisect_left(trigger_smoa, trigger.theta_smoa_hi),
            bisect_left(trigger_smoa, trigger.theta_smoa_lo),
            bisect_left(argument_tagger, argument.theta_s),
            bisect_left(argument_smoa, argument.theta_smoa_hi),
            bisect_left(argument_smoa, argument.theta_smoa_lo),
        )
        counts = self.counts.get(signature)
        if counts is None:
            doc = self.prepared.doc
            final = decide(self.prepared, thresholds, self.reflector).final_events
            counts = self.counts[signature] = score_predictions(
                {doc.doc_id: final}, gold_from_corpus([doc])
            ).counts()
        return counts


def evaluate_threshold_set(dev: list[_DevDocument], thresholds: ThresholdSet) -> Metrics:
    """Dev-set metrics of the downstream pipeline at one threshold setting,
    each document decided with its own reflector: every document's flat
    counts summed column by column, all zero for no documents."""
    rows = [d.counts_at(thresholds) for d in dev]
    return Metrics.from_counts(map(sum, zip(_NO_COUNTS, *rows)))


def _dev_documents(
    dev: list[Document], predictions: DevPredictions, overlap_threshold: float, reflector: Reflector
) -> list[_DevDocument]:
    """Each dev document, all of distinct doc_ids, prepared once and bound
    to ``reflector``."""
    documents = []
    for doc in dev:
        prepared = prepare(
            doc,
            predictions.tagger.get(doc.doc_id, []),
            *predictions.smoa.get(doc.doc_id, ([], VoteLedger())),
            predictions.n_agents,
            overlap_threshold,
        )
        documents.append(_DevDocument(prepared, _confidence_cuts([prepared]), reflector))
    return documents


def _confidence_cuts(
    prepared: list[PreparedDocument],
) -> tuple[tuple[list[float], list[float]], ...]:
    """Sorted distinct (tagger, ensemble) confidences of every scored item,
    for the trigger level, then the argument level."""
    levels = (
        [item for p in prepared for item in p.trigger_scored],
        [item for p in prepared for item in p.scored_arguments()],
    )
    return tuple(
        tuple(
            sorted({item.confidence for item in items if item.source is source})
            for source in (Source.TAGGER, Source.SMOA)
        )
        for items in levels
    )


def _representatives(values: list[float], cuts: list[float]) -> list[float]:
    """The smallest of each run of the ascending ``values`` that puts the
    same number of ``cuts`` below it."""
    reps: list[float] = []
    below = -1
    for value in values:
        count = bisect_left(cuts, value)
        if count != below:
            reps.append(value)
            below = count
    return reps


def _tune_level(
    samples: tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]],
    cuts: tuple[list[float], list[float]],
    grid_step: float,
    f1_at: Callable[[ThresholdTriple], float],
    deciding_edge: str | None,
) -> ThresholdTriple:
    """The argmax of ``f1_at`` over one level's grids, one value per class,
    with the band edge that ``deciding_edge`` leaves inert pinned to the
    first value it may take (see the module docstring)."""

    def values(correct, incorrect):
        if not correct and not incorrect:
            # This source made no dev predictions, so its cutoff is inert;
            # search just the two extremes.
            return [0.0, round(1.0 + grid_step, 10)]
        return derive_search_values(correct, incorrect, grid_step)

    (tc, ti), (mc, mi) = samples
    s_reps = _representatives(values(tc, ti), cuts[0])
    m_reps = _representatives(values(mc, mi), cuts[1])
    best: tuple[float, ThresholdTriple] | None = None
    los = m_reps[:1] if deciding_edge == "theta_smoa_hi" else m_reps
    for i, lo in enumerate(los):
        his = m_reps[i : i + 1] if deciding_edge == "theta_smoa_lo" else m_reps[i:]
        for theta_s in s_reps:
            for hi in his:
                triple = ThresholdTriple(theta_s=theta_s, theta_smoa_hi=hi, theta_smoa_lo=lo)
                f1 = f1_at(triple)
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
    only one grid value per class is visited and each document is decided
    once per own decision signature.
    """
    if not dev:
        raise ConfigurationError("threshold tuning needs a non-empty dev set")
    reflector = standin_reflector(reflection_standin)
    # Scoring is keyed by doc_id, so a repeated doc_id counts once, as its
    # last document, in the samples as in the scores.
    dev = list({doc.doc_id: doc for doc in dev}.values())
    samples = collect_confidence_samples(dev, predictions)
    documents = _dev_documents(dev, predictions, overlap_threshold, reflector)
    trigger_cuts, argument_cuts = _confidence_cuts([d.prepared for d in documents])

    def f1(thresholds: ThresholdSet, subtask: str) -> float:
        return getattr(evaluate_threshold_set(documents, thresholds), subtask).f1

    edge = _DECIDING_EDGE.get(reflector)
    trigger = _tune_level(
        samples["trigger"], trigger_cuts, grid_step,
        lambda triple: f1(ThresholdSet(trigger=triple, argument=_DROP_ALL_ARGS), "trigger_cls"),
        edge,
    )
    argument = _tune_level(
        samples["argument"], argument_cuts, grid_step,
        lambda triple: f1(ThresholdSet(trigger=trigger, argument=triple), "argument_cls"),
        edge,
    )
    return ThresholdSet(trigger=trigger, argument=argument)
