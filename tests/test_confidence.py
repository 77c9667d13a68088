import json
import random
from importlib import resources

import pytest

from revent.confidence import (
    ScoredEvent,
    Source,
    ThresholdTriple,
    bundled_thresholds,
    filter_disagreements,
    load_threshold_set,
    save_threshold_set,
    smoa_confidence,
)
from revent.ensemble import VoteLedger
from revent.errors import ConfigurationError
from revent.model import ArgumentMention, EventMention, Span, canonical_key, trigger_id


def _ev(start=0, etype="T"):
    return EventMention(Span("x" * 3, start, start + 3), etype)


def _ledger_with(event, votes):
    ledger = VoteLedger()
    for agent in votes:
        ledger.record(canonical_key(event), agent)
    return ledger


def test_score_is_vote_ratio():
    event = _ev()
    tid = trigger_id(event)
    assert smoa_confidence(_ledger_with(event, range(1, 7)), 10, tid) == 0.6
    assert smoa_confidence(_ledger_with(event, range(1, 11)), 10, tid) == 1.0
    assert smoa_confidence(_ledger_with(event, [3]), 10, tid) == 0.1


def test_argument_score_and_agent_count_check():
    arg = ArgumentMention(Span("y", 5, 6), "R")
    with_arg = EventMention(Span("xxx", 0, 3), "T", (arg,))
    ledger = _ledger_with(with_arg, [1, 2, 3])
    for agent in (4, 5):
        ledger.record(canonical_key(_ev()), agent)
    assert smoa_confidence(ledger, 10, trigger_id(with_arg)) == 0.5
    assert smoa_confidence(ledger, 10, trigger_id(with_arg), arg.key) == 0.3
    with pytest.raises(ConfigurationError):
        smoa_confidence(ledger, 0, trigger_id(with_arg))


def test_score_exhaustive_vote_ratios():
    # votes/n is exact for every n <= 12 and every vote count <= n.
    for n in range(1, 13):
        for votes in range(1, n + 1):
            event = _ev()
            ledger = _ledger_with(event, range(1, votes + 1))
            conf = smoa_confidence(ledger, n, trigger_id(event))
            assert conf == votes / n
            assert conf * n == pytest.approx(votes)


M2E2_LLAMA_09_TRIGGER = ThresholdTriple(theta_s=0.80, theta_smoa_hi=0.85, theta_smoa_lo=0.30)


def test_published_trigger_row_bands():
    # Published M2E2 trigger row at sampling temperature 0.9.
    for conf, bucket in [(0.6, "reflect"), (0.2, "removed"), (0.9, "retained_smoa")]:
        part = filter_disagreements(
            [ScoredEvent(_ev(), Source.SMOA, conf)], M2E2_LLAMA_09_TRIGGER
        )
        assert [len(getattr(part, b)) for b in
                ("retained_tagger", "retained_smoa", "removed", "reflect")] == [
            0,
            1 if bucket == "retained_smoa" else 0,
            1 if bucket == "removed" else 0,
            1 if bucket == "reflect" else 0,
        ]


def test_low_vote_agent_trigger_is_filtered_out():
    # The hallucinated agent-only trigger at 2/10 votes falls below the drop cutoff.
    event = _ev()
    conf = smoa_confidence(_ledger_with(event, [1, 2]), 10, trigger_id(event))
    part = filter_disagreements([ScoredEvent(event, Source.SMOA, conf)], M2E2_LLAMA_09_TRIGGER)
    assert part.removed == (ScoredEvent(event, Source.SMOA, 0.2),)


def test_above_one_cutoff_never_retains_directly():
    triple = ThresholdTriple(theta_s=0.99, theta_smoa_hi=1.10, theta_smoa_lo=0.80)
    part = filter_disagreements([ScoredEvent(_ev(), Source.SMOA, 1.0)], triple)
    assert part.retained_smoa == ()
    assert len(part.reflect) == 1


def test_tagger_side_has_no_reflect_band():
    triple = ThresholdTriple(theta_s=0.8, theta_smoa_hi=0.9, theta_smoa_lo=0.3)
    keep = ScoredEvent(_ev(0), Source.TAGGER, 0.85)
    drop = ScoredEvent(_ev(5), Source.TAGGER, 0.75)
    part = filter_disagreements([keep, drop], triple)
    assert part.retained_tagger == (keep,)
    assert part.removed == (drop,)
    assert part.reflect == ()


def _random_scored(rng, n_items):
    items = []
    for i in range(n_items):
        source = rng.choice([Source.TAGGER, Source.SMOA])
        items.append(ScoredEvent(_ev(i * 4, rng.choice("AB")), source, rng.random()))
    return items


def test_partition_is_disjoint_and_total_random():
    rng = random.Random(7)
    for _ in range(200):
        items = _random_scored(rng, rng.randint(0, 12))
        lo = rng.uniform(0, 1)
        hi = rng.uniform(lo, 1.2)
        triple = ThresholdTriple(theta_s=rng.uniform(0, 1.1), theta_smoa_hi=hi, theta_smoa_lo=lo)
        part = filter_disagreements(items, triple)
        buckets = [part.retained_tagger, part.retained_smoa, part.removed, part.reflect]
        assert sum(len(b) for b in buckets) == len(items)
        flat = [item for bucket in buckets for item in bucket]
        assert sorted(id(i) for i in flat) == sorted(id(i) for i in items)


def test_monotonicity_under_perturbation():
    rng = random.Random(13)
    items = _random_scored(rng, 40)
    for _ in range(500):
        lo = rng.uniform(0, 0.9)
        hi = rng.uniform(lo, 1.1)
        s = rng.uniform(0, 1.1)
        base = filter_disagreements(items, ThresholdTriple(s, hi, lo))
        # Raising the drop cutoff never rescues a removed event.
        lo_up = min(hi, lo + rng.uniform(0, 0.2))
        raised = filter_disagreements(items, ThresholdTriple(s, hi, lo_up))
        assert {id(i) for i in base.removed} <= {id(i) for i in raised.removed}
        # Raising the tagger cutoff never grows the retained tagger set.
        s_up = s + rng.uniform(0, 0.2)
        raised_s = filter_disagreements(items, ThresholdTriple(s_up, hi, lo))
        assert {id(i) for i in raised_s.retained_tagger} <= {id(i) for i in base.retained_tagger}


def test_threshold_triple_invariant():
    with pytest.raises(ConfigurationError):
        ThresholdTriple(theta_s=0.5, theta_smoa_hi=0.3, theta_smoa_lo=0.4)
    ThresholdTriple(theta_s=0.5, theta_smoa_hi=1.10, theta_smoa_lo=1.10)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), True, False, "0.5", None,
    pytest.param(10**400, id="huge-int"),
])
@pytest.mark.parametrize("field", ["theta_s", "theta_smoa_hi", "theta_smoa_lo"])
def test_threshold_triple_rejects_values_that_are_not_finite_numbers(field, value):
    values = {"theta_s": 0.5, "theta_smoa_hi": 0.8, "theta_smoa_lo": 0.2, field: value}
    with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
        ThresholdTriple(**values)


def test_threshold_triple_accepts_json_integers():
    assert ThresholdTriple(theta_s=0, theta_smoa_hi=2, theta_smoa_lo=1).as_dict() == {
        "theta_s": 0, "theta_smoa_hi": 2, "theta_smoa_lo": 1,
    }


def test_bundled_thresholds_lookup():
    ts = bundled_thresholds("llama-3.1", "m2e2", 0.9)
    assert ts.trigger == M2E2_LLAMA_09_TRIGGER
    assert ts.argument == ThresholdTriple(theta_s=0.90, theta_smoa_hi=0.99, theta_smoa_lo=0.50)
    phi_mlee = bundled_thresholds("Phi-3", "MLEE", "0.6")
    assert phi_mlee.trigger.theta_smoa_hi == 1.10
    with pytest.raises(ConfigurationError):
        bundled_thresholds("gpt", "m2e2", 0.9)


def test_bundled_table_is_complete_and_valid():
    table = json.loads(
        resources.files("revent.data").joinpath("thresholds.json").read_text("utf-8")
    )
    for level in ("trigger", "argument"):
        for model in ("phi-3", "llama-3.1"):
            for dataset in ("casie", "m2e2", "mlee"):
                for temp in ("0.1", "0.6", "0.9"):
                    triple = ThresholdTriple(**table[level][model][dataset][temp])
                    assert triple.theta_smoa_lo <= triple.theta_smoa_hi


def test_threshold_set_json_roundtrip(tmp_path):
    ts = bundled_thresholds("phi-3", "casie", 0.1)
    path = tmp_path / "t.json"
    save_threshold_set(ts, path)
    assert load_threshold_set(path) == ts
