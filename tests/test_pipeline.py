import copy
import random
from dataclasses import replace

import pytest

from revent.confidence import ThresholdSet, ThresholdTriple, bundled_thresholds
from revent.ensemble import VoteLedger, default_agents, fold_votes, run_self_moa
from revent.errors import ConfigurationError
from revent.integration import Provenance
from revent.model import ArgumentMention, Document, EventMention, Span, canonical_key, trigger_id
from revent.pipeline import (
    backend_reflector,
    decide,
    drop_all_reflector,
    extract_document,
    keep_all_reflector,
    oracle_reflector,
    prepare,
)
from revent.reflection import AuditLog, ReflectionConfig
from revent.simulate import (
    OracleProfile,
    make_synthetic_corpus,
    synthesize_agent_predictions,
    synthesize_tagger_predictions,
)
from test_dataset_shapes import make_shaped_corpus

THRESHOLDS = bundled_thresholds("llama-3.1", "m2e2", 0.9)


def _run_doc(doc, tagger_preds, backend, audit=None, seen=None):
    """Extract ``doc`` with the live reflector; every reflection item it is
    handed is appended to ``seen`` when given."""
    events, ledger = run_self_moa(doc, "prompt", default_agents(10), backend)
    live = backend_reflector(backend, ReflectionConfig(), audit or AuditLog())

    def reflector(doc, items):
        if seen is not None:
            seen.extend(items)
        return live(doc, items)

    return extract_document(
        doc, tagger_preds, events, ledger, 10, THRESHOLDS, 0.5, reflector
    )


def test_nisman_walkthrough(nisman_doc, worked_tagger, replay_backend):
    result = _run_doc(nisman_doc, worked_tagger["nisman"], replay_backend)

    # consensus only on the tagger's single trigger
    assert [p.tagger.trigger.text for p in result.trigger_report.consensus] == ["bombing"]
    assert sorted(e.trigger.text for e in result.trigger_report.smoa_only) == ["dead", "shot"]

    # the hallucinated low-vote trigger is filtered out, the mid-band one reflected
    removed = [s.event.trigger.text for s in result.trigger_partition.removed]
    reflected = [s.event.trigger.text for s in result.trigger_partition.reflect]
    assert removed == ["shot"]
    assert reflected == ["dead"]

    # final triggers in passage order with the right provenance
    assert [pe.event.trigger.text for pe in result.final] == ["dead", "bombing"]
    assert [pe.trigger_provenance for pe in result.final] == [
        Provenance.REFLECTED,
        Provenance.AGREED,
    ]


def test_gandhi_walkthrough(gandhi_doc, worked_tagger, replay_backend):
    seen = []
    result = _run_doc(gandhi_doc, worked_tagger["gandhi"], replay_backend, seen=seen)

    assert [p.tagger.trigger.text for p in result.trigger_report.consensus] == ["killing"]
    assert [s.event.trigger.text for s in result.trigger_partition.removed] == ["fired"]
    assert result.trigger_partition.reflect == ()

    assert len(result.final) == 1
    final = result.final[0]
    assert final.event.trigger.text == "killing"
    assert [(a.span.text, a.role) for a in final.event.arguments] == [
        ("assassin", "Agent"),
        ("Gandhi", "Victim"),
    ]
    provs = dict(zip((a.span.text for a in final.event.arguments), final.argument_provenances))
    assert provs == {"assassin": Provenance.AGREED, "Gandhi": Provenance.REFLECTED}

    # only the ensemble-side "Gandhi" under the agreed trigger was reflected;
    # the low-confidence tagger-side "man" was removed, not reflected
    assert [
        (item.event.trigger.text, item.trigger_ambiguous,
         tuple(a.span.text for a in item.pending_arguments))
        for item in seen
    ] == [("killing", False, ("Gandhi",))]
    tagger_args = [a.span.text for a in result.trigger_report.consensus[0].tagger.arguments]
    assert "man" in tagger_args
    assert "man" not in [a.span.text for a in final.event.arguments]


def test_audit_log_records_reflection_traffic(nisman_doc, worked_tagger, replay_backend):
    audit = AuditLog()
    _run_doc(nisman_doc, worked_tagger["nisman"], replay_backend, audit)
    assert len(audit.entries) == 1
    entry = audit.entries[0]
    assert entry["phase"] == "reflection:triggers"
    assert entry["outcome"] == "ok"
    assert '"dead"' in entry["prompt"]


def test_drop_all_standin_removes_ambiguous(nisman_doc, worked_tagger, replay_backend):
    events, ledger = run_self_moa(nisman_doc, "p", default_agents(10), replay_backend)
    result = extract_document(
        nisman_doc, worked_tagger["nisman"], events, ledger, 10,
        THRESHOLDS, 0.5, drop_all_reflector,
    )
    assert [pe.event.trigger.text for pe in result.final] == ["bombing"]


def test_keep_all_standin_keeps_ambiguous(nisman_doc, worked_tagger, replay_backend):
    events, ledger = run_self_moa(nisman_doc, "p", default_agents(10), replay_backend)
    result = extract_document(
        nisman_doc, worked_tagger["nisman"], events, ledger, 10,
        THRESHOLDS, 0.5, keep_all_reflector,
    )
    assert [pe.event.trigger.text for pe in result.final] == ["dead", "bombing"]


@pytest.mark.parametrize("copies", [0, 2])
def test_reflector_must_return_one_result_per_item(nisman_doc, worked_tagger, replay_backend, copies):
    events, ledger = run_self_moa(nisman_doc, "p", default_agents(10), replay_backend)

    def reflector(doc, items):
        return keep_all_reflector(doc, items * copies)

    with pytest.raises(ConfigurationError, match=f"reflector returned {copies} results for 1 items"):
        extract_document(
            nisman_doc, worked_tagger["nisman"], events, ledger, 10, THRESHOLDS, 0.5, reflector
        )


def test_oracle_standin_matches_scripted_verdicts(
    nisman_doc, gandhi_doc, worked_tagger, replay_backend
):
    # Gold lookup gives the same outcome as the scripted replay verdicts.
    for doc in (nisman_doc, gandhi_doc):
        events, ledger = run_self_moa(doc, "p", default_agents(10), replay_backend)
        via_oracle = extract_document(
            doc, worked_tagger[doc.doc_id], events, ledger, 10,
            THRESHOLDS, 0.5, oracle_reflector,
        )
        via_backend = _run_doc(doc, worked_tagger[doc.doc_id], replay_backend)
        assert [pe.event for pe in via_oracle.final] == [
            pe.event for pe in via_backend.final
        ]


def test_pipeline_is_deterministic(nisman_doc, worked_tagger, replay_backend):
    runs = [_run_doc(nisman_doc, worked_tagger["nisman"], replay_backend) for _ in range(2)]
    assert [pe.to_record() for pe in runs[0].final] == [
        pe.to_record() for pe in runs[1].final
    ]


def _attack_votes(doc, proposals):
    """(events, ledger) for [(agent ids, {surface: role})] proposals of one
    'attack' trigger."""

    def span(surface):
        start = doc.text.index(surface)
        return Span(surface, start, start + len(surface))

    events, ledger = [], VoteLedger()
    for agents, roles in proposals:
        args = tuple(ArgumentMention(span(s), role) for s, role in roles.items())
        event = EventMention(span("attack"), "Conflict:Attack", args)
        events.append(event)
        for agent in agents:
            ledger.record(canonical_key(event), agent)
    return events, ledger


def test_converging_candidates_merge_into_one_event():
    # Three proposals of one trigger; after argument filtering two of them
    # converge on the same event, and all three share the trigger.
    doc = Document("conv", "rebels attack the base at dawn")
    events, ledger = _attack_votes(doc, [
        ([1, 2], {"rebels": "Attacker", "base": "Target"}),
        ([3, 4, 5], {"rebels": "Attacker"}),
        ([6], {"rebels": "Attacker", "dawn": "Time"}),
    ])
    triple = ThresholdTriple(theta_s=0.5, theta_smoa_hi=0.4, theta_smoa_lo=0.15)
    result = extract_document(
        doc, [], events, ledger, 10, ThresholdSet(triple, triple), 0.5, keep_all_reflector
    )
    trigger_ref = [7, 13, "Conflict:Attack"]
    assert [pe.to_record() for pe in result.final] == [{
        "trigger": {"text": "attack", "start": 7, "end": 13},
        "type": "Conflict:Attack",
        "trigger_provenance": "high_conf_smoa",
        "arguments": [
            {"text": "rebels", "start": 0, "end": 6, "role": "Attacker",
             "provenance": "high_conf_smoa", "trigger_ref": trigger_ref},
            {"text": "base", "start": 18, "end": 22, "role": "Target",
             "provenance": "reflected", "trigger_ref": trigger_ref},
        ],
    }]


def test_zero_agents_is_configuration_error():
    doc = Document("zero", "rebels attack the base at dawn")
    events, ledger = _attack_votes(doc, [([1], {"rebels": "Attacker"})])
    with pytest.raises(ConfigurationError):
        extract_document(doc, [], events, ledger, 0, THRESHOLDS, 0.5, keep_all_reflector)


def _threshold_sets(rng, n):
    """``n`` threshold sets: fixed extremes, including above-one cutoffs and
    the tuner's drop-all argument triple, then random triples."""
    drop_all = ThresholdTriple(theta_s=2.0, theta_smoa_hi=2.0, theta_smoa_lo=2.0)
    keep_all = ThresholdTriple(theta_s=0.0, theta_smoa_hi=0.0, theta_smoa_lo=0.0)
    above_one = ThresholdTriple(theta_s=1.05, theta_smoa_hi=1.05, theta_smoa_lo=0.3)
    sets = [
        THRESHOLDS,
        ThresholdSet(keep_all, drop_all),
        ThresholdSet(above_one, drop_all),
        ThresholdSet(keep_all, keep_all),
        ThresholdSet(above_one, above_one),
        ThresholdSet(THRESHOLDS.trigger, drop_all),
    ]
    while len(sets) < n:
        def triple():
            lo, hi = sorted(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 1.05]) for _ in range(2))
            return ThresholdTriple(theta_s=rng.random() * 1.1, theta_smoa_hi=hi, theta_smoa_lo=lo)
        sets.append(ThresholdSet(triple(), triple()))
    return sets


def test_decide_on_a_reused_prepared_document_equals_extract():
    corpus = make_synthetic_corpus(12, seed=5)
    tagger = synthesize_tagger_predictions(
        corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=3)
    )
    smoa = synthesize_agent_predictions(
        corpus, OracleProfile(target_precision=0.6, target_recall=0.9, seed=4), 10
    )
    prepared = {
        doc.doc_id: prepare(doc, tagger[doc.doc_id], *smoa[doc.doc_id], 10, 0.5)
        for doc in corpus
    }
    snapshot = copy.deepcopy(prepared)
    rng = random.Random(11)
    runs = [
        (doc, thresholds, reflector)
        for doc in corpus
        for thresholds in _threshold_sets(rng, 26)
        for reflector in (keep_all_reflector, drop_all_reflector, oracle_reflector)
    ]
    rng.shuffle(runs)
    reflected = 0
    for doc, thresholds, reflector in runs:
        got = decide(prepared[doc.doc_id], thresholds, reflector)
        fresh = extract_document(
            doc, tagger[doc.doc_id], *smoa[doc.doc_id], 10, thresholds, 0.5, reflector
        )
        assert got.final == fresh.final
        assert got.trigger_partition == fresh.trigger_partition
        reflected += bool(got.trigger_partition.reflect)
    assert prepared == snapshot
    assert reflected  # some runs took the reflection path


def test_agent_union_order_and_repeats_do_not_change_the_final_events():
    corpus = make_synthetic_corpus(12, seed=6)
    tagger = synthesize_tagger_predictions(
        corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=8)
    )
    smoa = synthesize_agent_predictions(
        corpus, OracleProfile(target_precision=0.6, target_recall=0.9, seed=9), 10
    )
    rng = random.Random(13)
    for doc in corpus:
        union, ledger = smoa[doc.doc_id]
        # Repeats are the same object or an equal event built anew, with
        # its arguments in another order.
        noisy = union + [
            rng.choice([event, EventMention(event.trigger, event.event_type, event.arguments[::-1])])
            for event in rng.sample(union, len(union) // 2)
        ]
        rng.shuffle(noisy)
        for thresholds in _threshold_sets(rng, 8):
            for reflector in (keep_all_reflector, drop_all_reflector, oracle_reflector):
                ordered = extract_document(
                    doc, tagger[doc.doc_id], union, ledger, 10, thresholds, 0.5, reflector
                )
                shuffled = extract_document(
                    doc, tagger[doc.doc_id], noisy, ledger, 10, thresholds, 0.5, reflector
                )
                assert shuffled.final == ordered.final


def _synthetic_run(seed):
    """A 12-doc synthetic corpus and an ``extract_document`` closure over its
    seeded tagger and ten-agent predictions."""
    corpus = make_synthetic_corpus(12, seed=seed)
    tagger = synthesize_tagger_predictions(
        corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=seed + 1)
    )
    smoa = synthesize_agent_predictions(
        corpus, OracleProfile(target_precision=0.6, target_recall=0.9, seed=seed + 2), 10
    )

    def run(doc, thresholds, reflector):
        result = extract_document(
            doc, tagger[doc.doc_id], *smoa[doc.doc_id], 10, thresholds, 0.5, reflector
        )
        triggers = {event.trigger_id for event in result.final}
        arguments = {(event.trigger_id, arg.key) for event in result.final for arg in event.event.arguments}
        return triggers, arguments

    return corpus, run


def test_drop_all_keeps_a_subset_of_what_keep_all_keeps():
    rng = random.Random(21)
    strict = 0
    for seed in (5, 6):
        corpus, run = _synthetic_run(seed)
        for doc in corpus:
            for thresholds in _threshold_sets(rng, 8):
                dropped = run(doc, thresholds, drop_all_reflector)
                kept = run(doc, thresholds, keep_all_reflector)
                assert dropped[0] <= kept[0] and dropped[1] <= kept[1]
                strict += dropped != kept
    assert strict  # some runs handed the reflector something to drop


def test_raising_theta_s_never_adds_a_trigger_under_drop_all():
    rng = random.Random(22)
    shrank = 0
    for seed in (5, 6):
        corpus, run = _synthetic_run(seed)
        for doc in corpus:
            for thresholds in _threshold_sets(rng, 8):
                trigger = thresholds.trigger
                raised = ThresholdSet(
                    replace(trigger, theta_s=trigger.theta_s + rng.choice([0.05, 0.2, 0.5])),
                    thresholds.argument,
                )
                before = run(doc, thresholds, drop_all_reflector)[0]
                after = run(doc, raised, drop_all_reflector)[0]
                assert after <= before
                shrank += after != before
    assert shrank  # some raises dropped a tagger-only trigger


def test_lowering_theta_smoa_lo_never_removes_a_trigger_under_keep_all():
    rng = random.Random(23)
    grew = 0
    for seed in (5, 6):
        corpus, run = _synthetic_run(seed)
        for doc in corpus:
            for thresholds in _threshold_sets(rng, 8):
                trigger = thresholds.trigger
                lowered = ThresholdSet(
                    replace(trigger, theta_smoa_lo=trigger.theta_smoa_lo * rng.choice([0.0, 0.5, 0.9])),
                    thresholds.argument,
                )
                before = run(doc, thresholds, keep_all_reflector)[0]
                after = run(doc, lowered, keep_all_reflector)[0]
                assert before <= after
                grew += after != before
    assert grew  # some lowerings kept an agent-only trigger that was dropped


def test_relabelling_agents_changes_no_final_event_or_argument():
    rng = random.Random(24)
    moved = reflected = 0
    for seed in (5, 6):
        corpus = make_synthetic_corpus(12, seed=seed)
        tagger = synthesize_tagger_predictions(
            corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=seed + 1)
        )
        # One draw per agent, so every agent's own reply is known.
        draws = [
            synthesize_agent_predictions(
                corpus, OracleProfile(target_precision=0.6, target_recall=0.9, seed=100 * seed + agent), 1
            )
            for agent in range(1, 11)
        ]
        for doc in corpus:
            replies = [(agent, draws[agent - 1][doc.doc_id][0]) for agent in range(1, 11)]
            labels = rng.sample(range(1, 11), 10)
            relabelled = sorted(((labels[agent - 1], events) for agent, events in replies),
                                key=lambda reply: reply[0])
            union, ledger = fold_votes(replies)
            other_union, other_ledger = fold_votes(relabelled)
            moved += any(
                ledger.trigger_votes(trigger_id(e)) != other_ledger.trigger_votes(trigger_id(e))
                for e in union
            )
            for thresholds in _threshold_sets(rng, 8):
                for reflector in (keep_all_reflector, drop_all_reflector, oracle_reflector):
                    result = extract_document(
                        doc, tagger[doc.doc_id], union, ledger, 10, thresholds, 0.5, reflector
                    )
                    other = extract_document(
                        doc, tagger[doc.doc_id], other_union, other_ledger, 10, thresholds, 0.5, reflector
                    )
                    assert other.final == result.final
                    reflected += bool(result.trigger_partition.reflect)
    assert moved and reflected  # votes changed hands, and some runs reflected


def _seeded_inputs(seeds):
    """(doc, tagger predictions, agent union, ledger) for every document of
    seeded synthetic and dataset-shaped corpora."""
    for seed in seeds:
        for corpus in (make_synthetic_corpus(12, seed=seed), make_shaped_corpus(12, seed=seed)):
            tagger = synthesize_tagger_predictions(
                corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=seed + 1)
            )
            smoa = synthesize_agent_predictions(
                corpus, OracleProfile(target_precision=0.6, target_recall=0.9, seed=seed + 2), 10
            )
            for doc in corpus:
                yield doc, tagger[doc.doc_id], *smoa[doc.doc_id]


def _finals_agree(rng, doc, preds, other_preds, union, ledger) -> list:
    """Assert both tagger lists give the same final events at a few threshold
    sets under every stand-in; return each run's final events."""
    finals = []
    for thresholds in _threshold_sets(rng, 4):
        for reflector in (keep_all_reflector, drop_all_reflector, oracle_reflector):
            result = extract_document(doc, preds, union, ledger, 10, thresholds, 0.5, reflector)
            other = extract_document(doc, other_preds, union, ledger, 10, thresholds, 0.5, reflector)
            assert other.final == result.final
            finals.append(result.final)
    return finals


def test_shuffling_tagger_predictions_changes_no_final_event():
    rng = random.Random(25)
    moved = 0
    for doc, preds, union, ledger in _seeded_inputs((5, 6)):
        shuffled = rng.sample(preds, len(preds))
        finals = _finals_agree(rng, doc, preds, shuffled, union, ledger)
        moved += shuffled != preds and any(len(final) > 1 for final in finals)
    assert moved  # some shuffles reordered the tagger lines of a multi-event result


def test_repeating_a_tagger_prediction_changes_no_final_event():
    rng = random.Random(26)
    repeated = 0
    for doc, preds, union, ledger in _seeded_inputs((5, 6)):
        if not preds:
            continue
        twice = rng.choice(preds)
        noisy = list(preds)
        noisy.insert(rng.randrange(len(noisy) + 1), twice)
        finals = _finals_agree(rng, doc, preds, noisy, union, ledger)
        repeated += any(
            trigger_id(twice.event) in {event.trigger_id for event in final} for final in finals
        )
    assert repeated  # some repeated predictions reached the final events
