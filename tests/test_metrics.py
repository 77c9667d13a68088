import random

import pytest

from revent.errors import ConfigurationError, UnknownDocumentError
from revent.metrics import Metrics, score_predictions
from revent.model import ArgumentMention, EventMention, Span


def _ev(start, etype="T", args=()):
    return EventMention(Span("x" * 3, start, start + 3), etype, tuple(args))


def _arg(start, role):
    return ArgumentMention(Span("a" * 2, start, start + 2), role)


def test_hand_example_two_thirds():
    # predicted {b,c,d} vs gold {a,b,c} on trigger spans
    gold = {"d": [_ev(0), _ev(10), _ev(20)]}
    preds = {"d": [_ev(10), _ev(20), _ev(30)]}
    m = score_predictions(preds, gold)
    assert m.trigger_id.precision == pytest.approx(2 / 3)
    assert m.trigger_id.recall == pytest.approx(2 / 3)
    assert m.trigger_id.f1 == pytest.approx(2 / 3)


def test_gandhi_argument_counts(gandhi_doc):
    text = gandhi_doc.text

    def arg(surface, role):
        start = text.index(surface)
        return ArgumentMention(Span(surface, start, start + len(surface)), role)

    killing = Span("killing", text.index("killing"), text.index("killing") + 7)
    predicted = EventMention(killing, "Life:Die", (arg("assassin", "Agent"), arg("Gandhi", "Victim")))
    m = score_predictions({"gandhi": [predicted]}, {"gandhi": list(gandhi_doc.gold_events)})
    assert (m.argument_cls.tp, m.argument_cls.fn, m.argument_cls.fp) == (2, 1, 0)
    assert m.argument_cls.precision == 1.0
    assert m.argument_cls.recall == pytest.approx(2 / 3)
    assert m.argument_cls.f1 == pytest.approx(0.8)


def test_empty_predictions_degenerate_zero():
    gold = {"d": [_ev(0)]}
    m = score_predictions({"d": []}, gold)
    for counts in (m.trigger_id, m.trigger_cls, m.argument_id, m.argument_cls):
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0


def test_unknown_doc_id_is_reference_error():
    with pytest.raises(UnknownDocumentError):
        score_predictions({"nope": []}, {"d": []})


def test_unknown_gating_mode_is_configuration_error():
    with pytest.raises(ConfigurationError, match="gating"):
        score_predictions({}, {}, gating="x")


def test_duplicates_collapse():
    gold = {"d": [_ev(0)]}
    m = score_predictions({"d": [_ev(0), _ev(0), _ev(0)]}, gold)
    assert (m.trigger_id.tp, m.trigger_id.fp) == (1, 0)


def test_classification_requires_type_and_role():
    gold = {"d": [_ev(0, "A", [_arg(10, "R")])]}
    preds = {"d": [_ev(0, "B", [_arg(10, "R")])]}
    m = score_predictions(preds, gold)
    assert m.trigger_id.tp == 1
    assert m.trigger_cls.tp == 0
    # default gating: wrong trigger type blocks the argument too
    assert m.argument_cls.tp == 0


def test_gating_flag_switches_to_identification():
    gold = {"d": [_ev(0, "A", [_arg(10, "R")])]}
    preds = {"d": [_ev(0, "B", [_arg(10, "R")])]}
    m = score_predictions(preds, gold, gating="trg-i")
    assert m.argument_id.tp == 1
    assert m.argument_cls.tp == 1


def test_perfect_predictions_all_ones():
    gold = {"d": [_ev(0, "A", [_arg(10, "R")]), _ev(20, "B")]}
    m = score_predictions({"d": list(gold["d"])}, gold)
    for counts in (m.trigger_id, m.trigger_cls, m.argument_id, m.argument_cls):
        assert counts.f1 == 1.0


def _random_corpus(rng, n_docs=3, max_events=5):
    gold, preds = {}, {}
    for d in range(n_docs):
        doc_id = f"d{d}"

        def events():
            out = []
            for _ in range(rng.randint(0, max_events)):
                args = tuple(
                    _arg(rng.randrange(0, 30), rng.choice("RS"))
                    for _ in range(rng.randint(0, 2))
                )
                out.append(_ev(rng.randrange(0, 30), rng.choice("AB"), args))
            return out

        gold[doc_id] = events()
        preds[doc_id] = events()
    return preds, gold


def _brute_force(preds, gold, gating="trg-c"):
    """Straight-line pair enumeration with used-flags, per document."""
    totals = {name: [0, 0, 0] for name in ("ti", "tc", "ai", "ac")}

    def dedupe(tuples):
        out = []
        for t in tuples:
            if t not in out:
                out.append(t)
        return out

    for doc_id in gold:
        pred_events, gold_events = preds.get(doc_id, []), gold[doc_id]
        views = {
            "ti": lambda e: [(e.trigger.start, e.trigger.end)],
            "tc": lambda e: [(e.trigger.start, e.trigger.end, e.event_type)],
            "ai": lambda e: [
                (e.trigger.start, e.trigger.end)
                + ((e.event_type,) if gating == "trg-c" else ())
                + (a.span.start, a.span.end)
                for a in e.arguments
            ],
            "ac": lambda e: [
                (e.trigger.start, e.trigger.end)
                + ((e.event_type,) if gating == "trg-c" else ())
                + (a.span.start, a.span.end, a.role)
                for a in e.arguments
            ],
        }
        for name, view in views.items():
            p_items = dedupe([t for e in pred_events for t in view(e)])
            g_items = dedupe([t for e in gold_events for t in view(e)])
            used = [False] * len(g_items)
            tp = 0
            for p_item in p_items:
                for gi, g_item in enumerate(g_items):
                    if not used[gi] and p_item == g_item:
                        used[gi] = True
                        tp += 1
                        break
            totals[name][0] += tp
            totals[name][1] += len(p_items) - tp
            totals[name][2] += len(g_items) - tp
    return totals


def test_matches_brute_force_on_random_corpora():
    rng = random.Random(71)
    for _ in range(500):
        preds, gold = _random_corpus(rng)
        m = score_predictions(preds, gold)
        expected = _brute_force(preds, gold)
        got = {
            "ti": [m.trigger_id.tp, m.trigger_id.fp, m.trigger_id.fn],
            "tc": [m.trigger_cls.tp, m.trigger_cls.fp, m.trigger_cls.fn],
            "ai": [m.argument_id.tp, m.argument_id.fp, m.argument_id.fn],
            "ac": [m.argument_cls.tp, m.argument_cls.fp, m.argument_cls.fn],
        }
        assert got == expected
        # classification refines identification
        assert m.trigger_cls.tp <= m.trigger_id.tp
        assert m.argument_cls.tp <= m.argument_id.tp


def test_order_invariance():
    rng = random.Random(5)
    preds, gold = _random_corpus(rng, n_docs=4)
    base = score_predictions(preds, gold)
    for _ in range(5):
        shuffled_preds = {
            k: random.Random(rng.random()).sample(v, len(v)) for k, v in preds.items()
        }
        assert score_predictions(shuffled_preds, gold) == base


def test_table_rendering_is_aligned():
    gold = {"d": [_ev(0)]}
    m = score_predictions({"d": [_ev(0)]}, gold)
    table = m.table()
    lines = table.splitlines()
    assert "Trg-I" in lines[0] and "Arg-C" in lines[0]
    assert len(lines) == 5
    assert isinstance(m.as_dict()["trigger_id"]["f1"], float)


def test_flat_counts_are_tp_fp_fn_of_each_subtask_in_order():
    metrics = Metrics.from_counts(range(12))
    assert metrics.counts() == tuple(range(12))
    assert [(c.tp, c.fp, c.fn) for c in (metrics.trigger_id, metrics.argument_cls)] == [
        (0, 1, 2), (9, 10, 11),
    ]


@pytest.mark.parametrize("length", [0, 11, 13, 24])
def test_flat_counts_of_the_wrong_length_are_refused(length):
    with pytest.raises(ValueError, match=f"expected 12 flat counts, got {length}"):
        Metrics.from_counts(range(length))
