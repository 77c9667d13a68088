"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated budget. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion report."""

import itertools
import json
import random
import time
from importlib import resources
from pathlib import Path

import pytest

from revent.cli import main
from revent.confidence import (
    ScoredEvent,
    Source,
    ThresholdTriple,
    filter_disagreements,
    smoa_confidence,
)
from revent.decomp import (
    WHOLE_DOCUMENT_VARIANTS,
    TaskVariant,
    default_pos_gate,
    generate_dataset,
    sample_negative_ngrams,
)
from revent.agreement import match_triggers
from revent.ensemble import VoteLedger
from revent.fencing import render_argument_verdicts, render_classification_map
from revent.metrics import score_predictions
from revent.model import EventMention, Span, canonical_key, span_overlap, trigger_id
from revent.reflection import parse_argument_response, parse_trigger_response
from revent.simulate import default_scenario, make_synthetic_corpus, run_scenario
from revent.tuning import tune_thresholds

from test_metrics import _brute_force as metric_brute_force
from test_metrics import _random_corpus as random_metric_corpus
from test_tuning import _brute_force_tune, _dev_fixture

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


class _Budget:
    def __init__(self, criterion, label, limit_s):
        self.criterion, self.label, self.limit = criterion, label, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.criterion}: {status} "
                  f"({elapsed:.2f}s / limit {self.limit}s) - {self.label}")
            assert elapsed < self.limit, f"criterion {self.criterion} exceeded runtime budget"
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL - {self.label}")
        return False


def _extract_argv(out_dir):
    return [
        "extract",
        "--corpus", str(DATA / "corpus.jsonl"),
        "--tagger-preds", str(DATA / "tagger.jsonl"),
        "--backend", f"replay:{DATA / 'replay.json'}",
        "--agents", "10",
        "--thresholds", "builtin:llama-3.1/m2e2/0.9",
        "--out", str(out_dir),
    ]


def test_criterion_1_worked_example_regression(tmp_path):
    with _Budget(1, "scripted walkthrough emits ['dead', 'bombing'] in passage order", 1.0):
        assert main(_extract_argv(tmp_path)) == 0
        lines = [json.loads(l) for l in (tmp_path / "predictions.jsonl").read_text().splitlines()]
        nisman = next(rec for rec in lines if rec["doc_id"] == "nisman")
        triggers = [e["trigger"]["text"] for e in nisman["events"]]
        assert triggers == ["dead", "bombing"]
        starts = [e["trigger"]["start"] for e in nisman["events"]]
        assert starts == sorted(starts)
        provs = [e["trigger_provenance"] for e in nisman["events"]]
        assert provs == ["reflected", "agreed"]
        assert (tmp_path / "predictions.jsonl").read_bytes() == (
            GOLDEN / "predictions.jsonl"
        ).read_bytes()


def test_criterion_2_argument_walkthrough_regression(tmp_path):
    with _Budget(2, "argument fixture: consensus trigger, filtered noise, Arg-C TP=2 FN=1", 1.0):
        assert main(_extract_argv(tmp_path)) == 0
        lines = [json.loads(l) for l in (tmp_path / "predictions.jsonl").read_text().splitlines()]
        gandhi = next(rec for rec in lines if rec["doc_id"] == "gandhi")
        assert [e["trigger"]["text"] for e in gandhi["events"]] == ["killing"]
        event = gandhi["events"][0]
        assert event["trigger_provenance"] == "agreed"  # consensus {killing}
        args = [(a["text"], a["role"], a["provenance"]) for a in event["arguments"]]
        assert args == [
            ("assassin", "Agent", "agreed"),
            ("Gandhi", "Victim", "reflected"),
        ]
        # 'fired' was removed as low-confidence: absent from the final set
        assert all(e["trigger"]["text"] != "fired" for e in gandhi["events"])
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["argument_cls"]["tp"] == 2
        assert metrics["argument_cls"]["fn"] == 1
        assert metrics["argument_cls"]["fp"] == 0


def _random_side(rng, max_events=6):
    events = []
    seen = set()
    for _ in range(rng.randint(0, max_events)):
        start = rng.randrange(0, 30)
        end = start + rng.randrange(1, 8)
        etype = rng.choice("ABC")
        if (start, end, etype) in seen:
            continue
        seen.add((start, end, etype))
        events.append(EventMention(Span("x" * (end - start), start, end), etype))
    return events


def test_criterion_3_agreement_oracle_equivalence():
    with _Budget(3, "greedy matching is a valid maximal matching on 1000 random documents", 30.0):
        rng = random.Random(2024)
        for _ in range(1000):
            smoa = _random_side(rng)
            tagger = _random_side(rng)
            threshold = rng.choice([0.25, 0.5, 0.75, 1.0])
            report = match_triggers(smoa, tagger, threshold)
            # partition totality
            assert len(report.consensus) + len(report.smoa_only) == len(smoa)
            assert len(report.consensus) + len(report.tagger_only) == len(tagger)
            # validity: one-to-one, type-equal, above threshold
            seen_s, seen_t = set(), set()
            for pair in report.consensus:
                assert id(pair.smoa) not in seen_s and id(pair.tagger) not in seen_t
                seen_s.add(id(pair.smoa))
                seen_t.add(id(pair.tagger))
                assert pair.smoa.event_type == pair.tagger.event_type
                assert span_overlap(pair.smoa.trigger, pair.tagger.trigger) >= threshold
            # maximality against brute-force pair enumeration
            for s, t in itertools.product(report.smoa_only, report.tagger_only):
                assert not (
                    s.event_type == t.event_type
                    and span_overlap(s.trigger, t.trigger) >= threshold
                )


def test_criterion_4_confidence_math():
    with _Budget(4, "votes/n exact; every published triple reproduced; monotonicity", 10.0):
        # exact vote ratios, exhaustive over n <= 12
        for n in range(1, 13):
            for votes in range(1, n + 1):
                event = EventMention(Span("xxx", 0, 3), "T")
                ledger = VoteLedger()
                for agent in range(1, votes + 1):
                    ledger.record(canonical_key(event), agent)
                assert smoa_confidence(ledger, n, trigger_id(event)) == votes / n

        # every published threshold triple against a synthetic scored set
        table = json.loads(
            resources.files("revent.data").joinpath("thresholds.json").read_text("utf-8")
        )
        scored = []
        for i in range(41):
            conf = round(i * 0.025, 6)
            scored.append(ScoredEvent(EventMention(Span("x", i, i + 1), "A"), Source.TAGGER, conf))
            scored.append(ScoredEvent(EventMention(Span("x", i, i + 1), "B"), Source.SMOA, conf))
        triples = [
            ThresholdTriple(**table[level][model][dataset][temp])
            for level in ("trigger", "argument")
            for model in ("phi-3", "llama-3.1")
            for dataset in ("casie", "m2e2", "mlee")
            for temp in ("0.1", "0.6", "0.9")
        ]
        assert len(triples) == 36
        for triple in triples:
            part = filter_disagreements(scored, triple)
            expected = {"rt": [], "rs": [], "rm": [], "rf": []}
            for item in scored:
                if item.source is Source.TAGGER:
                    expected["rt" if item.confidence >= triple.theta_s else "rm"].append(item)
                elif item.confidence >= triple.theta_smoa_hi:
                    expected["rs"].append(item)
                elif item.confidence < triple.theta_smoa_lo:
                    expected["rm"].append(item)
                else:
                    expected["rf"].append(item)
            assert list(part.retained_tagger) == expected["rt"]
            assert list(part.retained_smoa) == expected["rs"]
            assert list(part.removed) == expected["rm"]
            assert list(part.reflect) == expected["rf"]

        # monotonicity under 500 random perturbations
        rng = random.Random(8)
        for _ in range(500):
            lo = rng.uniform(0, 0.9)
            hi = rng.uniform(lo, 1.15)
            s = rng.uniform(0, 1.15)
            base = filter_disagreements(scored, ThresholdTriple(s, hi, lo))
            lo_up = min(hi, lo + rng.uniform(0, 0.2))
            raised = filter_disagreements(scored, ThresholdTriple(s, hi, lo_up))
            assert {id(i) for i in base.removed} <= {id(i) for i in raised.removed}
            raised_s = filter_disagreements(scored, ThresholdTriple(s + 0.1, hi, lo))
            assert {id(i) for i in raised_s.retained_tagger} <= {
                id(i) for i in base.retained_tagger
            }


def test_criterion_5_tuner_equals_brute_force():
    with _Budget(5, "20-doc dev set, grid step 0.05: tuner == exhaustive argmax", 120.0):
        dev, predictions = _dev_fixture(20)
        tuned = tune_thresholds(dev, predictions, grid_step=0.05)
        brute = _brute_force_tune(dev, predictions, grid_step=0.05)
        assert tuned == brute


def test_criterion_6_prompt_parse_round_trip():
    with _Budget(6, "1000 randomized verdict assignments round-trip both templates", 10.0):
        rng = random.Random(606)
        vocab = ["alpha", "beta", "gamma", 'tri"cky', "delta", "omega", "sigma"]
        for _ in range(1000):
            phrases = rng.sample(vocab, rng.randint(1, len(vocab)))
            assignment = {p: rng.random() < 0.5 for p in phrases}
            raw = render_classification_map(
                {p: "Trigger" if keep else "Non-Trigger" for p, keep in assignment.items()}
            )
            verdict = parse_trigger_response(raw, phrases)
            assert {p: verdict.is_trigger(p) for p in phrases} == assignment

            cands = [(p, rng.choice(["Agent", "Victim", "Place"])) for p in phrases]
            flags = [rng.random() < 0.5 for _ in cands]
            raw = render_argument_verdicts([(t, r, ok) for (t, r), ok in zip(cands, flags)])
            parsed = parse_argument_response(raw, cands)
            assert [e[2] for e in parsed.entries] == flags


def test_criterion_7_metric_oracle():
    with _Budget(7, "scorer == brute-force pair enumeration on 500 random corpora", 10.0):
        # hand example: predicted {b,c,d} vs gold {a,b,c}
        gold = {"d": [EventMention(Span("xxx", s, s + 3), "T") for s in (0, 10, 20)]}
        preds = {"d": [EventMention(Span("xxx", s, s + 3), "T") for s in (10, 20, 30)]}
        m = score_predictions(preds, gold)
        assert m.trigger_id.f1 == pytest.approx(2 / 3)

        rng = random.Random(707)
        for _ in range(500):
            preds, gold = random_metric_corpus(rng)
            m = score_predictions(preds, gold)
            expected = metric_brute_force(preds, gold)
            assert [m.trigger_id.tp, m.trigger_id.fp, m.trigger_id.fn] == expected["ti"]
            assert [m.trigger_cls.tp, m.trigger_cls.fp, m.trigger_cls.fn] == expected["tc"]
            assert [m.argument_id.tp, m.argument_id.fp, m.argument_id.fn] == expected["ai"]
            assert [m.argument_cls.tp, m.argument_cls.fp, m.argument_cls.fn] == expected["ac"]
            assert m.trigger_cls.tp <= m.trigger_id.tp
            assert m.argument_cls.tp <= m.argument_id.tp


def test_criterion_8_decomp_count_identities():
    with _Budget(8, "six whole-doc variants x 1 per doc; singles x 1 per trigger; negatives legal", 20.0):
        corpus = make_synthetic_corpus(1000, seed=88)
        records = generate_dataset(corpus, seed=88)
        counts: dict[TaskVariant, int] = {v: 0 for v in TaskVariant}
        for record in records:
            counts[record.variant] += 1
        n_docs = len(corpus)
        n_triggers = sum(len(d.gold_events) for d in corpus)
        for variant in WHOLE_DOCUMENT_VARIANTS:
            assert counts[variant] == n_docs, variant
        assert counts[TaskVariant.TRIGGER_TYPE_SINGLE] == n_triggers
        assert counts[TaskVariant.ARG_EXTRACTION_SINGLE] == n_triggers

        checked = 0
        for doc in corpus[:200]:
            triggers = [e.trigger for e in doc.gold_events]
            for span in sample_negative_ngrams(doc, triggers, k=3, seed=88):
                checked += 1
                assert doc.contains(span)
                count, start = 0, 0
                while True:
                    idx = doc.text.find(span.text, start)
                    if idx < 0:
                        break
                    count += 1
                    start = idx + 1
                assert count == 1  # (i) occurs exactly once
                for trig in triggers:  # (ii) no shared substring
                    assert span.text not in trig.text and trig.text not in span.text
                tokens = span.text.split()
                assert all(default_pos_gate(t) for t in tokens)  # (iv) POS gate
        assert checked > 0


def test_criterion_9_complementarity_end_to_end():
    with _Budget(9, "combined pipeline strictly beats both standalone sources (Trg-C F1)", 60.0):
        report = run_scenario(default_scenario())
        f1 = report["trigger_cls_f1"]
        assert f1["pipeline"] > f1["tagger"]
        assert f1["pipeline"] > f1["smoa"]


def test_criterion_10_determinism(tmp_path):
    with _Budget(10, "two identical replay runs produce byte-identical artifacts", 30.0):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(_extract_argv(out1)) == 0
        assert main(_extract_argv(out2)) == 0
        for name in (
            "predictions.jsonl", "metrics.json", "audit.jsonl",
            "thresholds.json", "run_summary.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
