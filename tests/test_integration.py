import random

from revent.integration import Provenance, finalize_events
from revent.model import ArgumentMention, Span


def _kept(surface, start, etype, prov, args=()):
    return (Span(surface, start, start + len(surface)), etype, prov, list(args))


def _as_kept(final):
    return [
        (pe.event.trigger, pe.event.event_type, pe.trigger_provenance, pe.argument_pairs())
        for pe in final
    ]


def _arg(surface, start, role):
    return ArgumentMention(Span(surface, start, start + len(surface)), role)


def test_walkthrough_final_triggers_in_passage_order(nisman_doc):
    text = nisman_doc.text
    bombing = _kept("bombing", text.index("bombing"), "Conflict:Attack", Provenance.AGREED)
    dead = _kept("dead", text.index("dead"), "Life:Die", Provenance.REFLECTED)
    final = finalize_events([bombing, dead])
    assert [pe.event.trigger.text for pe in final] == ["dead", "bombing"]
    assert [pe.trigger_provenance for pe in final] == [
        Provenance.REFLECTED,
        Provenance.AGREED,
    ]


def test_argument_reassembly_mixed_provenance(gandhi_doc):
    text = gandhi_doc.text
    killing = _kept(
        "killing",
        text.index("killing"),
        "Life:Die",
        Provenance.AGREED,
        [
            (_arg("assassin", text.index("assassin"), "Agent"), Provenance.AGREED),
            (_arg("Gandhi", text.index("Gandhi"), "Victim"), Provenance.REFLECTED),
        ],
    )
    final = finalize_events([killing])
    assert len(final) == 1
    event = final[0].event
    assert event.trigger.text == "killing"
    assert [(a.span.text, a.role) for a in event.arguments] == [
        ("assassin", "Agent"),
        ("Gandhi", "Victim"),
    ]
    assert list(final[0].argument_provenances) == [Provenance.AGREED, Provenance.REFLECTED]
    for arg_rec in final[0].to_record()["arguments"]:
        assert tuple(arg_rec["trigger_ref"]) == final[0].trigger_id


def test_all_empty_inputs():
    assert finalize_events([]) == []


def test_same_trigger_id_merges_arguments():
    a1 = (_arg("x", 0, "R"), Provenance.AGREED)
    a2 = (_arg("y", 2, "S"), Provenance.HIGH_CONF_SMOA)
    consensus = _kept("raid", 10, "A", Provenance.AGREED, [a1])
    extra = _kept("raid", 10, "A", Provenance.HIGH_CONF_SMOA, [a2])
    final = finalize_events([consensus, extra])
    assert len(final) == 1
    assert final[0].trigger_provenance is Provenance.AGREED
    assert [(a.span.text, p) for a, p in final[0].argument_pairs()] == [
        ("x", Provenance.AGREED),
        ("y", Provenance.HIGH_CONF_SMOA),
    ]


def test_identical_kept_events_merge():
    a = (_arg("x", 0, "R"), Provenance.AGREED)
    first = _kept("raid", 10, "A", Provenance.AGREED, [a])
    again = _kept("raid", 10, "A", Provenance.REFLECTED, [(a[0], Provenance.REFLECTED)])
    final = finalize_events([first, again])
    assert len(final) == 1
    assert final[0].trigger_provenance is Provenance.AGREED
    assert final[0].argument_pairs() == [a]


def test_no_invention_and_ordering_random():
    rng = random.Random(41)
    provs = list(Provenance)
    for _ in range(100):
        kept = []
        for prov in provs:  # path-precedence order
            for _ in range(rng.randint(0, 4)):
                args = [
                    (_arg("a", rng.randrange(0, 40), rng.choice("RS")), rng.choice(provs))
                    for _ in range(rng.randint(0, 2))
                ]
                kept.append(_kept("t", rng.randrange(0, 40), rng.choice("ABC"), prov, args))
        final = finalize_events(kept)
        starts = [pe.event.trigger.start for pe in final]
        assert starts == sorted(starts)
        input_args = {
            (a.key, (trig.start, trig.end, etype))
            for trig, etype, _, args in kept
            for a, _ in args
        }
        for pe in final:
            for arg, _ in pe.argument_pairs():
                assert (arg.key, pe.trigger_id) in input_args
        assert len({pe.trigger_id for pe in final}) == len(final)


def test_finalize_idempotent_on_final_output():
    a = (_arg("x", 0, "R"), Provenance.AGREED)
    final = finalize_events([
        _kept("raid", 5, "A", Provenance.AGREED, [a]),
        _kept("ambush", 20, "B", Provenance.HIGH_CONF_TAGGER),
    ])
    again = finalize_events(_as_kept(final))
    assert [pe.event for pe in again] == [pe.event for pe in final]
    assert [pe.argument_provenances for pe in again] == [
        pe.argument_provenances for pe in final
    ]
