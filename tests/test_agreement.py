import itertools
import random

import pytest

from revent.agreement import MatchedPair, match_arguments, match_triggers
from revent.errors import ContractError
from revent.model import ArgumentMention, EventMention, Span, canonical_key, span_overlap


def _ev(surface, start, etype="T", args=()):
    return EventMention(Span(surface, start, start + len(surface)), etype, tuple(args))


def _arg(surface, start, role):
    return ArgumentMention(Span(surface, start, start + len(surface)), role)


def test_figure_walkthrough_trigger_split(nisman_doc):
    text = nisman_doc.text
    smoa = [
        _ev("dead", text.index("dead"), "Life:Die"),
        _ev("shot", text.index("shot"), "Conflict:Attack"),
        _ev("bombing", text.index("bombing"), "Conflict:Attack"),
    ]
    tagger = [_ev("bombing", text.index("bombing"), "Conflict:Attack")]
    report = match_triggers(smoa, tagger, 0.5)
    assert [p.tagger.trigger.text for p in report.consensus] == ["bombing"]
    assert sorted(e.trigger.text for e in report.smoa_only) == ["dead", "shot"]
    assert report.tagger_only == ()


def test_substring_match_retains_tagger_span():
    smoa = [_ev("was attached", 6)]
    tagger = [_ev("attached", 10)]
    report = match_triggers(smoa, tagger, 0.5)
    assert len(report.consensus) == 1
    assert report.consensus[0].retained.trigger.text == "attached"


def test_identical_lists_full_consensus_at_threshold_one():
    events = [_ev("a", 0), _ev("bb", 2, "U")]
    report = match_triggers(events, list(events), 1.0)
    assert len(report.consensus) == 2
    assert report.smoa_only == () and report.tagger_only == ()


def test_cross_type_never_consensus():
    report = match_triggers([_ev("raid", 0, "A")], [_ev("raid", 0, "B")], 0.5)
    assert report.consensus == ()
    assert len(report.smoa_only) == len(report.tagger_only) == 1


def test_inputs_must_be_deduplicated():
    with pytest.raises(ContractError):
        match_triggers([_ev("a", 0), _ev("a", 0)], [], 0.5)


def test_threshold_must_be_in_unit_interval():
    with pytest.raises(ContractError):
        match_triggers([], [], 0.0)
    with pytest.raises(ContractError):
        match_triggers([], [], 1.5)


def test_exact_intersection_at_threshold_one_matches_keys():
    rng = random.Random(17)
    for _ in range(50):
        smoa = _random_events(rng, 5)
        tagger = _random_events(rng, 5)
        report = match_triggers(smoa, tagger, 1.0)
        # At threshold 1.0 with no arguments, consensus keys == exact trigger intersection.
        smoa_keys = {canonical_key(e) for e in smoa}
        tagger_keys = {canonical_key(e) for e in tagger}
        consensus_keys = {canonical_key(p.tagger) for p in report.consensus}
        assert consensus_keys == smoa_keys & tagger_keys


def test_argument_matching_gandhi_rows(gandhi_doc):
    text = gandhi_doc.text
    killing = text.index("killing")
    pair_args_smoa = [
        _arg("assassin", text.index("assassin"), "Agent"),
        _arg("Gandhi", text.index("Gandhi"), "Victim"),
    ]
    pair_args_tagger = [
        _arg("assassin", text.index("assassin"), "Agent"),
        _arg("man", text.index("man,") if "man," in text else text.index("man "), "Victim"),
    ]
    smoa_ev = _ev("killing", killing, "Life:Die", pair_args_smoa)
    tagger_ev = _ev("killing", killing, "Life:Die", pair_args_tagger)
    report = match_triggers([smoa_ev], [tagger_ev], 0.5)
    arg_report = match_arguments(report.consensus[0], 0.5)
    assert [m.retained.span.text for m in arg_report.consensus] == ["assassin"]
    assert [a.span.text for a in arg_report.smoa_only] == ["Gandhi"]
    assert [a.span.text for a in arg_report.tagger_only] == ["man"]


def test_argument_boundary_overlap_retains_tagger_span():
    smoa_arg = _arg("the government officials", 0, "Entity")
    tagger_arg = _arg("government officials", 4, "Entity")
    smoa_ev = _ev("meet", 30, "M", [smoa_arg])
    tagger_ev = _ev("meet", 30, "M", [tagger_arg])
    report = match_triggers([smoa_ev], [tagger_ev], 0.5)
    arg_report = match_arguments(report.consensus[0], 0.5)
    assert [m.retained.span.text for m in arg_report.consensus] == ["government officials"]


def test_identical_argument_lists_full_agreement():
    args = [_arg("x", 0, "R"), _arg("yy", 2, "S")]
    pair = match_triggers([_ev("t", 10, "T", args)], [_ev("t", 10, "T", args)], 1.0)
    arg_report = match_arguments(pair.consensus[0], 1.0)
    assert len(arg_report.consensus) == 2
    assert arg_report.smoa_only == () and arg_report.tagger_only == ()


def _random_events(rng, max_events, types=("A", "B")):
    events = []
    seen = set()
    for _ in range(rng.randint(0, max_events)):
        start = rng.randrange(0, 25)
        end = start + rng.randrange(1, 6)
        etype = rng.choice(types)
        if (start, end, etype) in seen:
            continue
        seen.add((start, end, etype))
        events.append(EventMention(Span("x" * (end - start), start, end), etype))
    return events


def _is_valid_matching(pairs, smoa, tagger, threshold):
    used_s, used_t = set(), set()
    for pair in pairs:
        si, ti = smoa.index(pair.smoa), tagger.index(pair.tagger)
        if si in used_s or ti in used_t:
            return False
        used_s.add(si)
        used_t.add(ti)
        if pair.smoa.event_type != pair.tagger.event_type:
            return False
        if span_overlap(pair.smoa.trigger, pair.tagger.trigger) < threshold:
            return False
    return True


def _is_maximal(pairs, smoa, tagger, threshold):
    matched_s = {id(p.smoa) for p in pairs}
    matched_t = {id(p.tagger) for p in pairs}
    for s, t in itertools.product(smoa, tagger):
        if id(s) in matched_s or id(t) in matched_t:
            continue
        if s.event_type == t.event_type and span_overlap(s.trigger, t.trigger) >= threshold:
            return False
    return True


def test_partition_and_maximality_random():
    rng = random.Random(99)
    for _ in range(200):
        smoa = _random_events(rng, 6)
        tagger = _random_events(rng, 6)
        threshold = rng.choice([0.3, 0.5, 0.8, 1.0])
        report = match_triggers(smoa, tagger, threshold)
        assert len(report.consensus) + len(report.smoa_only) == len(smoa)
        assert len(report.consensus) + len(report.tagger_only) == len(tagger)
        assert _is_valid_matching(report.consensus, smoa, tagger, threshold)
        assert _is_maximal(report.consensus, smoa, tagger, threshold)


def _check_matching(report, smoa, tagger, label, span, threshold):
    """Partition, one-to-one validity and maximality at either level."""
    ids = lambda items: sorted(map(id, items))
    assert ids([p.smoa for p in report.consensus] + list(report.smoa_only)) == ids(smoa)
    assert ids([p.tagger for p in report.consensus] + list(report.tagger_only)) == ids(tagger)
    for pair in report.consensus:
        assert getattr(pair.smoa, label) == getattr(pair.tagger, label)
        assert pair.overlap == span_overlap(getattr(pair.smoa, span), getattr(pair.tagger, span))
        assert pair.overlap >= threshold
        assert pair.retained is pair.tagger
    for s, t in itertools.product(report.smoa_only, report.tagger_only):
        compatible = getattr(s, label) == getattr(t, label)
        assert not (compatible and span_overlap(getattr(s, span), getattr(t, span)) >= threshold)


def _identities(report, label, span):
    ident = lambda item: (getattr(item, span).start, getattr(item, span).end, getattr(item, label))
    return (
        sorted((ident(p.smoa), ident(p.tagger), p.overlap) for p in report.consensus),
        sorted(map(ident, report.smoa_only)),
        sorted(map(ident, report.tagger_only)),
    )


def test_matcher_properties_at_both_levels():
    rng = random.Random(7)
    trigger = Span("t", 40, 41)
    for _ in range(300):
        smoa = _random_events(rng, 7, types=("A", "B", "C"))
        tagger = _random_events(rng, 7, types=("A", "B", "C"))
        threshold = rng.choice([0.2, 0.5, 0.8, 1.0])
        events = match_triggers(smoa, tagger, threshold)
        _check_matching(events, smoa, tagger, "event_type", "trigger", threshold)

        # The same spans and labels as arguments of one matched trigger.
        as_args = lambda evs: tuple(ArgumentMention(e.trigger, e.event_type) for e in evs)
        pair = MatchedPair(
            smoa=EventMention(trigger, "E", as_args(smoa)),
            tagger=EventMention(trigger, "E", as_args(tagger)),
            overlap=1.0,
        )
        args = match_arguments(pair, threshold)
        _check_matching(args, pair.smoa.arguments, pair.tagger.arguments, "role", "span", threshold)
        assert _identities(args, "role", "span") == _identities(events, "event_type", "trigger")
