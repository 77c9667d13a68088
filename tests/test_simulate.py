import pytest

from revent.errors import ConfigurationError
from revent.model import canonical_key, trigger_id
from revent.simulate import (
    OracleProfile,
    default_scenario,
    make_synthetic_corpus,
    run_scenario,
    synthesize_agent_predictions,
    synthesize_tagger_predictions,
)


def test_synthetic_corpus_spans_ground_exactly():
    corpus = make_synthetic_corpus(20, seed=1)
    assert len(corpus) == 20
    for doc in corpus:
        assert doc.gold_events
        for event in doc.gold_events:
            assert doc.contains(event.trigger)
            for arg in event.arguments:
                assert doc.contains(arg.span)


def test_identity_profile_reproduces_gold():
    corpus = make_synthetic_corpus(10, seed=2)
    profile = OracleProfile(target_precision=1.0, target_recall=1.0, seed=3)
    tagger = synthesize_tagger_predictions(corpus, profile)
    for doc in corpus:
        assert [p.event for p in tagger[doc.doc_id]] == sorted(
            doc.gold_events, key=lambda e: (e.trigger.start, e.trigger.end)
        )
    agents = synthesize_agent_predictions(corpus, profile, 10)
    for doc in corpus:
        events, ledger = agents[doc.doc_id]
        assert {canonical_key(e) for e in events} == {
            canonical_key(e) for e in doc.gold_events
        }
        for event in events:
            tid = trigger_id(event)
            assert ledger.trigger_votes(tid) == frozenset(range(1, 11))
            for arg in event.arguments:
                assert ledger.argument_votes(tid, arg.key) == frozenset(range(1, 11))


def test_seeded_recall_is_reproducible():
    corpus = make_synthetic_corpus(30, seed=4)
    profile = OracleProfile(target_precision=1.0, target_recall=0.5, seed=9)
    first = synthesize_tagger_predictions(corpus, profile)
    second = synthesize_tagger_predictions(corpus, profile)
    assert {
        k: [(p.event, p.trigger_confidence) for p in v] for k, v in first.items()
    } == {
        k: [(p.event, p.trigger_confidence) for p in v] for k, v in second.items()
    }
    total_gold = sum(len(d.gold_events) for d in corpus)
    total_kept = sum(len(v) for v in first.values())
    assert 0.3 * total_gold < total_kept < 0.7 * total_gold


def test_vote_counts_within_bounds():
    corpus = make_synthetic_corpus(10, seed=5)
    profile = OracleProfile(target_precision=0.6, target_recall=0.8, seed=6)
    agents = synthesize_agent_predictions(corpus, profile, 10)
    for doc in corpus:
        events, ledger = agents[doc.doc_id]
        for event in events:
            tid = trigger_id(event)
            votes = ledger.trigger_votes(tid)
            assert 1 <= len(votes) <= 10
            for arg in event.arguments:
                arg_votes = ledger.argument_votes(tid, arg.key)
                assert arg_votes and arg_votes <= votes


def test_injection_approaches_target_precision():
    corpus = make_synthetic_corpus(50, seed=7)
    profile = OracleProfile(target_precision=0.5, target_recall=1.0, seed=8)
    tagger = synthesize_tagger_predictions(corpus, profile)
    gold_keys = {
        doc.doc_id: {canonical_key(e) for e in doc.gold_events} for doc in corpus
    }
    tp = fp = 0
    for doc_id, preds in tagger.items():
        for pred in preds:
            if canonical_key(pred.event) in gold_keys[doc_id]:
                tp += 1
            else:
                fp += 1
    precision = tp / (tp + fp)
    assert 0.4 < precision < 0.6


def test_empty_vocabulary_with_low_precision_rejected():
    with pytest.raises(ConfigurationError):
        OracleProfile(target_precision=0.5, target_recall=1.0,
                      hallucination_vocabulary=(), seed=0)


def test_agent_predictions_need_an_agent():
    corpus = make_synthetic_corpus(2, seed=10)
    profile = OracleProfile(target_precision=0.7, target_recall=1.0, seed=11)
    with pytest.raises(ConfigurationError, match="agent count"):
        synthesize_agent_predictions(corpus, profile, 0)


def test_distractor_confidences_are_low():
    corpus = make_synthetic_corpus(30, seed=10)
    profile = OracleProfile(target_precision=0.7, target_recall=1.0, seed=11)
    tagger = synthesize_tagger_predictions(corpus, profile)
    gold_keys = {
        doc.doc_id: {canonical_key(e) for e in doc.gold_events} for doc in corpus
    }
    for doc_id, preds in tagger.items():
        for pred in preds:
            if canonical_key(pred.event) in gold_keys[doc_id]:
                assert pred.trigger_confidence >= 0.75
            else:
                assert pred.trigger_confidence <= 0.5


def test_complementarity_scenario_orders_f1():
    report = run_scenario(default_scenario())
    f1 = report["trigger_cls_f1"]
    assert f1["pipeline"] > f1["tagger"]
    assert f1["pipeline"] > f1["smoa"]


def test_scenario_report_is_deterministic():
    a = run_scenario(default_scenario())
    b = run_scenario(default_scenario())
    assert a == b
