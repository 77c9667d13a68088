import random
from dataclasses import fields

import pytest

from revent.errors import SpanValidationError
from revent.model import (
    ArgumentMention,
    Document,
    EventKey,
    EventMention,
    Span,
    canonical_key,
    occurrences,
    span_overlap,
    trigger_id,
)


def test_span_validates_range_and_length():
    Span("cat", 4, 7)
    with pytest.raises(ValueError):
        Span("cat", 7, 4)
    with pytest.raises(ValueError):
        Span("cat", 0, 0)
    with pytest.raises(ValueError):
        Span("cat", 0, 5)


def test_span_overlap_substring_case():
    # "attached" inside "was attached": 8 shared chars over a 12-char union.
    a = Span("attached", 10, 18)
    b = Span("was attached", 6, 18)
    assert span_overlap(a, b) == pytest.approx(8 / 12)


def test_span_overlap_identity_and_disjoint():
    a = Span("abcde", 0, 5)
    assert span_overlap(a, a) == 1.0
    assert span_overlap(Span("abcde", 0, 5), Span("fghi", 5, 9)) == 0.0


def test_span_overlap_symmetric_random():
    rng = random.Random(11)
    for _ in range(300):
        s1, s2 = rng.randrange(0, 40), rng.randrange(0, 40)
        e1, e2 = s1 + rng.randrange(1, 12), s2 + rng.randrange(1, 12)
        a = Span("x" * (e1 - s1), s1, e1)
        b = Span("x" * (e2 - s2), s2, e2)
        assert span_overlap(a, b) == span_overlap(b, a)
        assert 0.0 <= span_overlap(a, b) <= 1.0
        assert span_overlap(a, a) == 1.0


def test_occurrences_overlapping_absent_and_empty():
    assert occurrences("the cat sat", "cat") == [4]
    assert occurrences("aaaa", "aa") == [0, 1, 2]
    assert occurrences("abc", "xyz") == []
    assert occurrences("abc", "") == []


def test_canonical_key_no_arguments():
    event = EventMention(Span("cat", 4, 7), "T")
    key = canonical_key(event)
    assert (key.trigger_start, key.trigger_end, key.event_type) == (4, 7, "T")
    assert key.argument_keys == ()
    assert trigger_id(event) == (4, 7, "T")


def test_canonical_key_argument_order_free():
    a1 = ArgumentMention(Span("x", 0, 1), "Agent")
    a2 = ArgumentMention(Span("y", 2, 3), "Victim")
    e1 = EventMention(Span("cat", 4, 7), "T", (a1, a2))
    e2 = EventMention(Span("cat", 4, 7), "T", (a2, a1))
    assert canonical_key(e1) == canonical_key(e2)
    assert e1 == e2


def test_canonical_key_distinguishes_roles():
    a1 = ArgumentMention(Span("x", 0, 1), "Agent")
    a2 = ArgumentMention(Span("x", 0, 1), "Victim")
    e1 = EventMention(Span("cat", 4, 7), "T", (a1,))
    e2 = EventMention(Span("cat", 4, 7), "T", (a2,))
    assert canonical_key(e1) != canonical_key(e2)


def test_canonical_key_injective_on_random_events():
    # Distinct normalized argument sets or triggers must give distinct keys.
    rng = random.Random(5)
    events = []
    for _ in range(200):
        start = rng.randrange(0, 30)
        end = start + rng.randrange(1, 6)
        args = []
        for _ in range(rng.randrange(0, 4)):
            a_start = rng.randrange(0, 30)
            a_end = a_start + rng.randrange(1, 4)
            args.append(
                ArgumentMention(Span("a" * (a_end - a_start), a_start, a_end),
                                rng.choice(["R1", "R2"]))
            )
        events.append(
            EventMention(Span("t" * (end - start), start, end),
                         rng.choice(["T1", "T2"]), tuple(args))
        )
    for e1 in events:
        for e2 in events:
            assert (canonical_key(e1) == canonical_key(e2)) == (e1 == e2)


def test_event_mention_normalizes_arguments():
    dup = ArgumentMention(Span("x", 0, 1), "Agent")
    late = ArgumentMention(Span("z", 5, 6), "Victim")
    early = ArgumentMention(Span("y", 2, 3), "Victim")
    event = EventMention(Span("cat", 9, 12), "T", (late, dup, early, dup))
    assert [a.key for a in event.arguments] == [(0, 1, "Agent"), (2, 3, "Victim"), (5, 6, "Victim")]


def test_argument_role_must_be_nonempty():
    with pytest.raises(ValueError):
        ArgumentMention(Span("x", 0, 1), "")


def test_document_checks_gold_containment():
    trig = Span("cat", 4, 7)
    Document("ok", "the cat sat", (EventMention(trig, "T"),))
    with pytest.raises(SpanValidationError):
        Document("bad", "the dog sat", (EventMention(trig, "T"),))


def test_document_containment_by_reslicing():
    doc = Document("d", "the cat sat")
    assert doc.contains(Span("cat", 4, 7))
    assert not doc.contains(Span("cat", 0, 3))
    assert not doc.contains(Span("sat", 10, 13))  # beyond end


def _reference_arguments(arguments):
    """Argument normalization as first specified: sort by key, keep the first of each key."""
    seen, kept = set(), []
    for arg in sorted(arguments, key=lambda a: a.key):
        if arg.key not in seen:
            seen.add(arg.key)
            kept.append(arg)
    return tuple(kept)


def test_stored_key_equals_field_by_field_key():
    rng = random.Random(41)
    events = []
    for _ in range(300):
        start = rng.randrange(0, 20)
        trigger = Span("t" * 3, start, start + 3)
        args = []
        for _ in range(rng.randrange(0, 5)):
            a_start = rng.randrange(0, 6)
            # Same key with a different surface: normalization keeps the first.
            args.append(ArgumentMention(Span(rng.choice("ab") * 2, a_start, a_start + 2), rng.choice(["R1", "R2"])))
        if args and rng.random() < 0.5:
            args.append(rng.choice(args))
        event = EventMention(trigger, rng.choice(["T1", "T2"]), tuple(args))
        reference = _reference_arguments(args)
        assert event.arguments == reference
        assert canonical_key(event) == EventKey(
            trigger_start=trigger.start,
            trigger_end=trigger.end,
            event_type=event.event_type,
            argument_keys=tuple(a.key for a in reference),
        )
        assert hash(event) == hash((trigger, event.event_type, reference))
        assert canonical_key(event) is canonical_key(event)  # computed once, then stored
        assert "key" not in repr(event)
        events.append((event, (trigger, event.event_type, reference)))
    for e1, t1 in events[:60]:
        for e2, t2 in events:
            assert (e1 == e2) == (t1 == t2)
    assert [f.name for f in fields(EventMention) if f.compare] == ["trigger", "event_type", "arguments"]
