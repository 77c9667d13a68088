import random
from functools import partial

import pytest

from revent import tuning
from revent.confidence import Source, ThresholdSet, ThresholdTriple
from revent.ensemble import VoteLedger, cleanup_predictions
from revent.errors import ConfigurationError
from revent.ingest import TaggerPrediction
from revent.metrics import gold_from_corpus, score_predictions
from revent.model import ArgumentMention, Document, EventMention, Span, canonical_key, trigger_id
from revent.pipeline import (
    drop_all_reflector,
    extract_document,
    keep_all_reflector,
    oracle_reflector,
    prepare,
)
from revent.simulate import OracleProfile, make_synthetic_corpus, synthesize_agent_predictions, synthesize_tagger_predictions
from revent.tuning import (
    DevPredictions,
    collect_confidence_samples,
    derive_search_values,
    tune_thresholds,
)

DROP_ALL = ThresholdTriple(theta_s=2.0, theta_smoa_hi=2.0, theta_smoa_lo=2.0)


def test_derive_search_values_spans_quartiles():
    values = derive_search_values([0.7, 0.8, 0.9], [0.1, 0.2, 0.3], 0.05)
    assert 0.0 in values
    assert round(1.05, 10) in values
    assert min(v for v in values if v > 0) <= 0.1
    assert any(v >= 0.9 for v in values)
    assert values == sorted(values)


def test_derive_search_values_needs_data():
    with pytest.raises(ConfigurationError):
        derive_search_values([], [], 0.05)
    with pytest.raises(ConfigurationError):
        derive_search_values([0.5], [0.5], 0)


def test_derive_search_values_bounds_the_grid_step():
    # a finer step would grow the grid as 1/step after every dev backend call
    for step in (5e-7, 1e-9):
        with pytest.raises(ConfigurationError, match="at least 1e-06"):
            derive_search_values([0.5], [0.5], step)
    assert derive_search_values([0.5], [0.5], 1e-6) == [0.0, 0.499999, 0.5, 0.500001, 1.000001]


def _smoa_doc(doc, events_with_votes, n=10):
    """Build (events, ledger) given [(event, vote_count)]."""
    ledger = VoteLedger()
    events = []
    for event, votes in events_with_votes:
        events.append(event)
        for agent in range(1, votes + 1):
            ledger.record(canonical_key(event), agent)
    return events, ledger


def _ev(text, surface, etype="T", occurrence=1):
    start = -1
    for _ in range(occurrence):
        start = text.index(surface, start + 1)
    return EventMention(Span(surface, start, start + len(surface)), etype)


def test_separable_votes_put_drop_cutoff_in_gap():
    # Correct agent predictions all have votes >= 0.7; incorrect all <= 0.3.
    docs = []
    smoa = {}
    for i in range(10):
        text = f"alpha beta gamma delta epsilon zeta (doc {i})"
        good = _ev(text, "alpha", "A")
        noise = _ev(text, "beta", "A")
        doc = Document(f"d{i}", text, (good,))
        docs.append(doc)
        smoa[doc.doc_id] = _smoa_doc(doc, [(good, 7 + i % 3), (noise, 1 + i % 3)])
    predictions = DevPredictions(tagger={d.doc_id: [] for d in docs}, smoa=smoa, n_agents=10)
    tuned = tune_thresholds(docs, predictions, grid_step=0.05)
    assert 0.3 < tuned.trigger.theta_smoa_lo <= 0.7


def test_degenerate_single_correct_prediction_lowest_triple():
    text = "alpha beta gamma"
    good = _ev(text, "alpha", "A")
    doc = Document("d0", text, (good,))
    predictions = DevPredictions(
        tagger={"d0": []},
        smoa={"d0": _smoa_doc(doc, [(good, 7)])},
        n_agents=10,
    )
    tuned = tune_thresholds([doc], predictions, grid_step=0.05)
    # Any triple retaining the one correct prediction is optimal; the
    # tie-break returns the lowest such triple on every axis.
    assert tuned.trigger.theta_smoa_lo == 0.0
    assert tuned.trigger.theta_s == 0.0
    assert tuned.trigger.theta_smoa_hi == 0.0


def test_empty_dev_set_is_configuration_error():
    with pytest.raises(ConfigurationError):
        tune_thresholds([], DevPredictions(tagger={}, smoa={}, n_agents=10))


def test_unknown_reflection_standin_is_configuration_error():
    dev, predictions = _dev_fixture(1)
    with pytest.raises(ConfigurationError, match="stand-in"):
        tune_thresholds(dev, predictions, reflection_standin="x")


def _recount_samples(dev, predictions, level):
    """((tagger correct, incorrect), (smoa correct, incorrect)) confidences
    at one level, recounted straight from the dev set: every tagger item,
    and each distinct ensemble trigger (or argument of a trigger) of the
    cleaned union, at its vote share."""
    tagger, smoa = ([], []), ([], [])
    for doc in dev:
        gold = {trigger_id(e) for e in doc.gold_events}
        if level == "argument":
            gold = {(trigger_id(e), a.key) for e in doc.gold_events for a in e.arguments}
        for pred in predictions.tagger.get(doc.doc_id, []):
            tid = trigger_id(pred.event)
            if level == "trigger":
                tagger[tid not in gold].append(pred.trigger_confidence)
            else:
                for arg, conf in zip(pred.event.arguments, pred.argument_confidences):
                    tagger[(tid, arg.key) not in gold].append(conf)
        events, ledger = predictions.smoa.get(doc.doc_id, ([], VoteLedger()))
        seen = set()
        for event in cleanup_predictions(events, doc):
            tid = trigger_id(event)
            if level == "trigger":
                items = [(tid, ledger.trigger_votes(tid))]
            else:
                items = [((tid, a.key), ledger.argument_votes(tid, a.key)) for a in event.arguments]
            for item, votes in items:
                if item not in seen:
                    seen.add(item)
                    smoa[item not in gold].append(len(votes) / predictions.n_agents)
    return tagger, smoa


def _brute_force_tune(
    dev, predictions, grid_step, overlap_threshold=0.5, reflector=keep_all_reflector
):
    """Straight-line exhaustive argmax over the same derived grids."""

    def values(correct, incorrect):
        if not correct and not incorrect:
            return [0.0, round(1.0 + grid_step, 10)]
        return derive_search_values(correct, incorrect, grid_step)

    def evaluate(thresholds, objective):
        preds = {}
        for doc in dev:
            events, ledger = predictions.smoa.get(doc.doc_id, ([], VoteLedger()))
            result = extract_document(
                doc,
                predictions.tagger.get(doc.doc_id, []),
                events,
                ledger,
                predictions.n_agents,
                thresholds,
                overlap_threshold,
                reflector,
            )
            preds[doc.doc_id] = result.final_events
        metrics = score_predictions(preds, gold_from_corpus(dev))
        return getattr(metrics, objective).f1

    (tc, ti), (mc, mi) = _recount_samples(dev, predictions, "trigger")
    best = None
    for lo in values(mc, mi):
        for s in values(tc, ti):
            for hi in values(mc, mi):
                if lo > hi:
                    continue
                triple = ThresholdTriple(s, hi, lo)
                f1 = evaluate(ThresholdSet(trigger=triple, argument=DROP_ALL), "trigger_cls")
                if best is None or f1 > best[0]:
                    best = (f1, triple)
    trigger_triple = best[1]

    (tc, ti), (mc, mi) = _recount_samples(dev, predictions, "argument")
    best = None
    for lo in values(mc, mi):
        for s in values(tc, ti):
            for hi in values(mc, mi):
                if lo > hi:
                    continue
                triple = ThresholdTriple(s, hi, lo)
                f1 = evaluate(
                    ThresholdSet(trigger=trigger_triple, argument=triple), "argument_cls"
                )
                if best is None or f1 > best[0]:
                    best = (f1, triple)
    return ThresholdSet(trigger=trigger_triple, argument=best[1])


def _dev_fixture(n_docs, corpus_seed=31):
    dev = make_synthetic_corpus(n_docs, seed=corpus_seed, max_events_per_doc=2)
    tagger = synthesize_tagger_predictions(
        dev, OracleProfile(target_precision=0.85, target_recall=0.65, seed=17)
    )
    smoa = synthesize_agent_predictions(
        dev, OracleProfile(target_precision=0.6, target_recall=0.9, seed=19), 10
    )
    return dev, DevPredictions(tagger=tagger, smoa=smoa, n_agents=10)


def test_tuner_equals_brute_force_small():
    dev, predictions = _dev_fixture(6)
    tuned = tune_thresholds(dev, predictions, grid_step=0.1)
    brute = _brute_force_tune(dev, predictions, grid_step=0.1)
    assert tuned == brute


@pytest.mark.parametrize("standin, reflector", [
    ("drop-all", drop_all_reflector),
    ("oracle", oracle_reflector),
])
def test_tuner_equals_brute_force_under_every_standin(standin, reflector):
    dev, predictions = _dev_fixture(6)
    tuned = tune_thresholds(dev, predictions, grid_step=0.1, reflection_standin=standin)
    brute = _brute_force_tune(dev, predictions, grid_step=0.1, reflector=reflector)
    assert tuned == brute


def _argument_dev_set(n_docs=8):
    """Both sources agree on one correct trigger per doc; the argument
    cutoffs decide: the tagger adds a correct high-confidence and a wrong
    low-confidence argument, the agents a wrong low-vote argument."""

    def arg(text, surface, role):
        start = text.index(surface)
        return ArgumentMention(Span(surface, start, start + len(surface)), role)

    docs, tagger, smoa = [], {}, {}
    for i in range(n_docs):
        text = f"alpha beta gamma delta epsilon zeta (doc {i})"
        beta, gamma, delta, epsilon = (
            arg(text, w, r)
            for w, r in (("beta", "R"), ("gamma", "S"), ("delta", "S"), ("epsilon", "T"))
        )
        trigger = _ev(text, "alpha", "A").trigger
        doc = Document(f"a{i}", text, (EventMention(trigger, "A", (beta, epsilon)),))
        docs.append(doc)
        tagger[doc.doc_id] = [TaggerPrediction(
            EventMention(trigger, "A", (beta, delta, epsilon)),
            0.9, (0.9, 0.1 + 0.1 * (i % 3), 0.7 + 0.1 * (i % 3)),
        )]
        smoa[doc.doc_id] = _smoa_doc(doc, [
            (EventMention(trigger, "A", (beta,)), 10),
            (EventMention(trigger, "A", (beta, gamma)), 1 + i % 3),
        ])
    return docs, DevPredictions(tagger=tagger, smoa=smoa, n_agents=10)


def test_tuner_equals_brute_force_when_argument_cutoffs_decide():
    dev, predictions = _argument_dev_set()
    tuned = tune_thresholds(dev, predictions, grid_step=0.1)
    assert tuned == _brute_force_tune(dev, predictions, grid_step=0.1)
    # Both argument cutoffs land in the gaps between correct and wrong.
    assert 0.3 < tuned.argument.theta_s <= 0.7
    assert 0.3 < tuned.argument.theta_smoa_lo


STANDINS = [
    ("keep-all", keep_all_reflector),
    ("drop-all", drop_all_reflector),
    ("oracle", oracle_reflector),
]


def _seeded_argument_dev_set(seed, n_docs=3):
    """Both sources find each doc's one trigger and disagree on its
    arguments. Each side misses some gold arguments and adds wrong ones: the
    tagger at seeded confidences, higher on the whole for gold, and the
    agents in seeded proposals whose vote counts set each argument's
    confidence."""
    rng = random.Random(seed)
    words = ["beta", "gamma", "delta", "epsilon", "zeta", "iota"]
    docs, tagger, smoa = [], {}, {}
    for i in range(n_docs):
        text = "alpha " + " ".join(words) + f" (doc {i})"
        trigger = _ev(text, "alpha", "A").trigger
        args = [
            ArgumentMention(Span(w, text.index(w), text.index(w) + len(w)), rng.choice("RS"))
            for w in words
        ]
        gold = rng.sample(args, 3)
        doc = Document(f"s{i}", text, (EventMention(trigger, "A", tuple(gold)),))
        docs.append(doc)

        def pick(p_gold, p_wrong):
            return tuple(a for a in args if rng.random() < (p_gold if a in gold else p_wrong))

        event = EventMention(trigger, "A", pick(0.7, 0.5))
        tagger[doc.doc_id] = [TaggerPrediction(event, rng.uniform(0.6, 1.0), tuple(
            rng.uniform(0.4, 1.0) if a in gold else rng.uniform(0.0, 0.6) for a in event.arguments
        ))]
        smoa[doc.doc_id] = _smoa_doc(doc, [
            (EventMention(trigger, "A", pick(0.8, 0.3)), rng.randint(1, 10))
            for _ in range(rng.randint(2, 3))
        ])
    return docs, DevPredictions(tagger=tagger, smoa=smoa, n_agents=10)


@pytest.mark.parametrize("standin, reflector", STANDINS)
def test_seeded_argument_disagreements_tune_like_brute_force(standin, reflector):
    tuned = []
    for seed in (1, 2, 3, 4):
        dev, predictions = _seeded_argument_dev_set(seed)
        got = tune_thresholds(dev, predictions, grid_step=0.1, reflection_standin=standin)
        assert got == _brute_force_tune(dev, predictions, grid_step=0.1, reflector=reflector)
        tuned.append(got.argument)
    # The argument cutoffs decide on this data: some seed tunes away from keep-all.
    assert any(t != ThresholdTriple(0.0, 0.0, 0.0) for t in tuned)


@pytest.mark.parametrize("corpus_seed", [1, 2, 3, 4])
@pytest.mark.parametrize("standin, reflector", STANDINS)
def test_seeded_tuner_equals_brute_force(corpus_seed, standin, reflector):
    dev, predictions = _dev_fixture(3, corpus_seed=corpus_seed)
    tuned = tune_thresholds(dev, predictions, grid_step=0.1, reflection_standin=standin)
    assert tuned == _brute_force_tune(dev, predictions, grid_step=0.1, reflector=reflector)


def _bands(prepared, thresholds):
    """The band of every scored item of one prepared document: kept or not
    for a tagger item; retained (1), reflected (0) or removed (-1) for an
    ensemble item."""

    def band(item, triple):
        if item.source is Source.TAGGER:
            return int(item.confidence >= triple.theta_s)
        return (item.confidence >= triple.theta_smoa_hi) - (item.confidence < triple.theta_smoa_lo)

    return (
        tuple(band(item, thresholds.trigger) for item in prepared.trigger_scored),
        tuple(band(item, thresholds.argument) for item in prepared.scored_arguments()),
    )


@pytest.mark.parametrize("grid_step", [0.1, 0.001])
def test_tuner_work_is_bounded_by_the_data(monkeypatch, grid_step):
    dev, predictions = _dev_fixture(6)
    visited, decided = [], []
    evaluate, decide = tuning.evaluate_threshold_set, tuning.decide

    def counted_evaluate(documents, thresholds, reflector):
        visited.append(thresholds)
        return evaluate(documents, thresholds, reflector)

    def counted_decide(prepared, thresholds, reflector):
        decided.append((prepared.doc.doc_id, _bands(prepared, thresholds)))
        return decide(prepared, thresholds, reflector)

    monkeypatch.setattr(tuning, "evaluate_threshold_set", counted_evaluate)
    monkeypatch.setattr(tuning, "decide", counted_decide)
    tune_thresholds(dev, predictions, grid_step=grid_step)

    # Each document is decided at most once per band setting of its own items.
    assert decided and len(decided) == len(set(decided))
    # Each level visits at most one point per (theta_s, lo, hi) class, and a
    # class is fixed by how many distinct confidences fall below the cutoff.
    prepared = [
        prepare(doc, predictions.tagger.get(doc.doc_id, []), *predictions.smoa[doc.doc_id],
                predictions.n_agents)
        for doc in dev
    ]
    for level, items in (
        ("trigger", [i for p in prepared for i in p.trigger_scored]),
        ("argument", [i for p in prepared for i in p.scored_arguments()]),
    ):
        tagger = len({i.confidence for i in items if i.source is Source.TAGGER})
        smoa = len({i.confidence for i in items if i.source is Source.SMOA})
        points = sum((t.argument == DROP_ALL) == (level == "trigger") for t in visited)
        assert 0 < points <= (tagger + 1) * (smoa + 1) ** 2


# The seeded dev sets of this file, by name.
DEV_SETS = {
    "dev-6": partial(_dev_fixture, 6),
    "argument": _argument_dev_set,
    **{f"dev-3-seed-{s}": partial(_dev_fixture, 3, corpus_seed=s) for s in (1, 2, 3, 4)},
    **{f"argument-seed-{s}": partial(_seeded_argument_dev_set, s) for s in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("name", DEV_SETS)
def test_confidence_samples_equal_a_per_level_recount(name):
    dev, predictions = DEV_SETS[name]()
    assert collect_confidence_samples(dev, predictions) == {
        level: _recount_samples(dev, predictions, level) for level in ("trigger", "argument")
    }


def test_tuner_collects_confidence_samples_once(monkeypatch):
    calls = []
    collect = tuning.collect_confidence_samples

    def counted(dev, predictions):
        calls.append(dev)
        return collect(dev, predictions)

    monkeypatch.setattr(tuning, "collect_confidence_samples", counted)
    dev, predictions = _argument_dev_set()
    tune_thresholds(dev, predictions, grid_step=0.1)
    assert calls == [dev]
