import json
import random

import pytest

from revent.errors import (
    CorpusFormatError,
    ReplyParseError,
    SpanValidationError,
    UnknownDocumentError,
)
from revent.fencing import parse_answer, render_events_answer
from revent.ingest import (
    Grounding,
    TaggerPrediction,
    json_report,
    load_corpus,
    load_final_predictions,
    load_tagger_predictions,
    parse_agent_output,
)
from revent.model import ArgumentMention, Document, EventMention, Span
from revent.simulate import make_synthetic_corpus


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_load_corpus_two_records(tmp_path):
    path = _write_lines(tmp_path / "c.jsonl", [
        {"doc_id": "a", "text": "the cat sat", "events": []},
        {"doc_id": "b", "text": "dogs bark", "events": []},
    ])
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["a", "b"]


def test_load_corpus_duplicate_doc_id_names_line(tmp_path):
    path = _write_lines(tmp_path / "c.jsonl", [
        {"doc_id": "a", "text": "the cat sat"},
        {"doc_id": "b", "text": "dogs bark"},
        {"doc_id": "a", "text": "another text"},
    ])
    with pytest.raises(CorpusFormatError, match="line 3"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_load_corpus_span_mismatch_names_doc(tmp_path):
    path = _write_lines(tmp_path / "c.jsonl", [
        {"doc_id": "bad", "text": "the cat sat", "events": [
            {"trigger": {"text": "dog", "start": 4, "end": 7}, "type": "T", "arguments": []}
        ]},
    ])
    with pytest.raises(SpanValidationError, match="bad"):
        load_corpus(path)


def test_load_corpus_bad_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "a", "text": "x"}\n{nope\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_loading_same_file_twice_is_equal(worked_corpus, data_dir):
    again = load_corpus(data_dir / "corpus.jsonl")
    assert again == worked_corpus


def test_load_tagger_predictions_fixture_confidence(worked_corpus, worked_tagger):
    preds = worked_tagger["nisman"]
    assert len(preds) == 1
    assert preds[0].event.trigger.text == "bombing"
    # Above the published tagger cutoff for this configuration (0.80).
    assert preds[0].trigger_confidence == 0.97


def test_load_tagger_predictions_sorted_by_start(tmp_path, worked_corpus):
    nisman = next(d for d in worked_corpus if d.doc_id == "nisman")
    b = nisman.text.index("bombing")
    s = nisman.text.index("shot")
    path = _write_lines(tmp_path / "t.jsonl", [
        {"doc_id": "nisman", "events": [
            {"trigger": {"text": "bombing", "start": b, "end": b + 7}, "type": "A",
             "trigger_confidence": 0.9, "arguments": []},
            {"trigger": {"text": "shot", "start": s, "end": s + 4}, "type": "A",
             "trigger_confidence": 0.8, "arguments": []},
        ]},
    ])
    preds = load_tagger_predictions(path, worked_corpus)["nisman"]
    starts = [p.event.trigger.start for p in preds]
    assert starts == sorted(starts)


def test_load_tagger_predictions_confidence_out_of_range(tmp_path, worked_corpus):
    nisman = next(d for d in worked_corpus if d.doc_id == "nisman")
    b = nisman.text.index("bombing")
    path = _write_lines(tmp_path / "t.jsonl", [
        {"doc_id": "nisman", "events": [
            {"trigger": {"text": "bombing", "start": b, "end": b + 7}, "type": "A",
             "trigger_confidence": 1.5, "arguments": []},
        ]},
    ])
    with pytest.raises(CorpusFormatError, match="1.5"):
        load_tagger_predictions(path, worked_corpus)


def test_tagger_prediction_pairs_each_argument_with_one_confidence():
    kim = ArgumentMention(Span("Kim", 0, 3), "A")
    event = EventMention(Span("met", 4, 7), "Meet", (kim,))
    with pytest.raises(CorpusFormatError, match="2 argument confidences for 1 arguments"):
        TaggerPrediction(event, 0.9, (0.8, 0.7))
    pred = TaggerPrediction(event, 0.9, (0.8,))
    assert pred.argument_confidence(kim) == 0.8
    # Both ends of [0, 1] are confidences, for a trigger and an argument alike.
    for trigger_confidence, argument_confidence in ((0.0, 1.0), (1.0, 0.0)):
        pred = TaggerPrediction(event, trigger_confidence, (argument_confidence,))
        assert pred.argument_confidence(kim) == argument_confidence
    with pytest.raises(KeyError):
        pred.argument_confidence(ArgumentMention(Span("Lee", 8, 11), "A"))


@pytest.mark.parametrize("value", [
    "0.8", True, False, None, [0.5], float("nan"), pytest.param(10**400, id="huge-int"),
])
@pytest.mark.parametrize("field", ["trigger_confidence", "confidence"])
def test_load_tagger_predictions_rejects_confidences_that_are_not_numbers(
    tmp_path, worked_corpus, field, value
):
    nisman = next(d for d in worked_corpus if d.doc_id == "nisman")
    b = nisman.text.index("bombing")
    k = nisman.text.index("Nisman")
    event = {"trigger": {"text": "bombing", "start": b, "end": b + 7}, "type": "A",
             "trigger_confidence": 0.9,
             "arguments": [{"text": "Nisman", "start": k, "end": k + 6, "role": "R",
                            "confidence": 0.8}]}
    if field == "trigger_confidence":
        event[field] = value
    else:
        event["arguments"][0][field] = value
    path = _write_lines(tmp_path / "t.jsonl", [{"doc_id": "nisman", "events": [event]}])
    with pytest.raises(CorpusFormatError, match="confidence must be a finite number") as info:
        load_tagger_predictions(path, worked_corpus)
    assert info.value.line == 1


def test_load_tagger_predictions_unknown_doc(tmp_path, worked_corpus):
    path = _write_lines(tmp_path / "t.jsonl", [{"doc_id": "nope", "events": []}])
    with pytest.raises(UnknownDocumentError, match="nope"):
        load_tagger_predictions(path, worked_corpus)


def test_parse_agent_output_figure_passage(nisman_doc):
    raw = (
        "Here are the events.\n```\nEvents = "
        '[{"trigger": "dead", "type": "Life:Die", "arguments": []},'
        ' {"trigger": "shot", "type": "Conflict:Attack", "arguments": []},'
        ' {"trigger": "bombing", "type": "Conflict:Attack", "arguments": []}]\n```'
    )
    events = parse_agent_output(raw, nisman_doc)
    assert sorted(e.trigger.text for e in events) == ["bombing", "dead", "shot"]
    for event in events:
        assert nisman_doc.contains(event.trigger)


def test_parse_agent_output_drops_absent_trigger(nisman_doc):
    raw = (
        '```\nEvents = [{"trigger": "explosion", "type": "Conflict:Attack", "arguments": []},'
        ' {"trigger": "dead", "type": "Life:Die", "arguments": []}]\n```'
    )
    events = parse_agent_output(raw, nisman_doc)
    assert [e.trigger.text for e in events] == ["dead"]


def test_parse_agent_output_no_fence_is_parse_error(nisman_doc):
    with pytest.raises(ReplyParseError):
        parse_agent_output("Events = []", nisman_doc)


def test_parse_agent_output_multi_occurrence_cursor():
    doc = Document("d", "aa bb aa bb aa")
    raw = (
        '```\nEvents = [{"trigger": "aa", "type": "T"}, {"trigger": "aa", "type": "T"},'
        ' {"trigger": "aa", "type": "T"}]\n```'
    )
    events = parse_agent_output(raw, doc)
    assert [e.trigger.start for e in events] == [0, 6, 12]


def test_parse_agent_output_wraps_when_occurrences_exhausted():
    doc = Document("d", "aa bb")
    raw = '```\nEvents = [{"trigger": "aa", "type": "T"}, {"trigger": "aa", "type": "T"}]\n```'
    events = parse_agent_output(raw, doc)
    # Both claims resolve to the only occurrence; they are the same prediction.
    assert [e.trigger.start for e in events] == [0, 0]


def test_parse_agent_output_drops_ungroundable_argument(nisman_doc):
    raw = (
        '```\nEvents = [{"trigger": "dead", "type": "Life:Die", "arguments": '
        '[{"text": "unicorn", "role": "Victim"}, {"text": "prosecutor", "role": "Victim"}]}]\n```'
    )
    events = parse_agent_output(raw, nisman_doc)
    assert len(events) == 1
    assert [a.span.text for a in events[0].arguments] == ["prosecutor"]
    for arg in events[0].arguments:
        assert nisman_doc.contains(arg.span)


def _reply(*items):
    return "```\nEvents = " + json.dumps(list(items)) + "\n```"


def _arg_starts(events):
    return [(e.trigger.start, [(a.span.text, a.span.start) for a in e.arguments]) for e in events]


def test_trigger_cursor_ignores_argument_mentions():
    # The argument "aa" must not move the trigger cursor of "aa".
    doc = Document("d", "aa bb aa cc")
    raw = _reply(
        {"trigger": "bb", "type": "T", "arguments": [{"text": "aa", "role": "R"}]},
        {"trigger": "aa", "type": "T"},
    )
    events = parse_agent_output(raw, doc)
    assert [e.trigger.start for e in events] == [3, 0]


def test_argument_takes_occurrence_nearest_its_trigger():
    doc = Document("d", "Kim met Lee ; Kim left Lee")
    raw = _reply(
        {"trigger": "met", "type": "Meet", "arguments": [{"text": "Lee", "role": "B"}]},
        {"trigger": "left", "type": "Go", "arguments": [{"text": "Kim", "role": "A"}]},
    )
    events = parse_agent_output(raw, doc)
    assert _arg_starts(events) == [(4, [("Lee", 8)]), (18, [("Kim", 14)])]


def test_argument_tie_goes_to_earlier_occurrence():
    doc = Document("d", "xy at xy")
    raw = _reply({"trigger": "at", "type": "T", "arguments": [{"text": "xy", "role": "R"}]})
    # "xy" at 0 and 6 are both 3 characters from the trigger start.
    assert _arg_starts(parse_agent_output(raw, doc)) == [(3, [("xy", 0)])]


def test_overlapping_occurrences_are_indexed():
    doc = Document("d", "aaa")
    assert [s.start for s in Grounding(doc).spans("aa")] == [0, 1]
    raw = _reply(*[{"trigger": "aa", "type": "T"}] * 3)
    assert [e.trigger.start for e in parse_agent_output(raw, doc)] == [0, 1, 0]


def test_grounding_of_another_document_is_rejected(nisman_doc):
    other = Document("other", nisman_doc.text)
    with pytest.raises(ValueError, match="other"):
        parse_agent_output(_reply(), nisman_doc, Grounding(other))


def test_malformed_items_still_raise_with_a_shared_grounding():
    doc = Document("d", "aa bb")
    grounding = Grounding(doc)
    good = {"trigger": "aa", "type": "T", "arguments": [{"text": "bb", "role": "R"}]}
    parse_agent_output(_reply(good), doc, grounding)
    for bad in (
        {"trigger": "aa", "type": "T", "arguments": [{"text": "bb"}]},
        {"trigger": "aa", "type": "T", "arguments": ["bb"]},
        {"trigger": "aa"},
    ):
        with pytest.raises(ReplyParseError):
            parse_agent_output(_reply(good, bad), doc, grounding)
    # An item's shape is checked whether or not its trigger occurs.
    absent = {"trigger": "zz", "type": "T", "arguments": [{"text": "bb"}]}
    with pytest.raises(ReplyParseError):
        parse_agent_output(_reply(absent), doc, grounding)


def test_argument_order_and_repeats_share_one_grounded_event():
    doc = Document("d", "Kim met Lee in Rome")
    args = [{"text": "Kim", "role": "A"}, {"text": "Lee", "role": "B"}, {"text": "Rome", "role": "P"}]
    grounding = Grounding(doc)
    first = parse_agent_output(
        _reply({"trigger": "met", "type": "Meet", "arguments": args}), doc, grounding
    )
    again = parse_agent_output(
        _reply({"trigger": "met", "type": "Meet", "arguments": args[::-1] + args[:1]}), doc, grounding
    )
    assert again[0] is first[0]
    assert first == parse_agent_output(
        _reply({"trigger": "met", "type": "Meet", "arguments": args[::-1]}), doc
    )
    assert [(a.span.start, a.role) for a in first[0].arguments] == [(0, "A"), (8, "B"), (15, "P")]


@pytest.mark.parametrize("role", [1, True, 1.0, ["x"], {"x": 1}, None, ""])
@pytest.mark.parametrize("text", ["bb", "zz"])
def test_argument_role_must_be_a_nonempty_string(role, text):
    doc = Document("d", "aa bb")
    raw = _reply({"trigger": "aa", "type": "T", "arguments": [{"text": text, "role": role}]})
    with pytest.raises(ReplyParseError, match="role"):
        parse_agent_output(raw, doc)


def _tie_count(doc, event):
    """Arguments whose two nearest occurrences are equally far from the trigger."""
    ties = 0
    for arg in event.arguments:
        starts = [i for i in range(len(doc.text)) if doc.text.startswith(arg.span.text, i)]
        distances = sorted(abs(s - event.trigger.start) for s in starts)
        ties += len(distances) > 1 and distances[0] == distances[1]
    return ties


@pytest.mark.parametrize("n_docs, seed", [(500, 7), (1000, 1), (200, 88)])
def test_rendered_gold_round_trips(n_docs, seed):
    lost = ties = total = 0
    for doc in make_synthetic_corpus(n_docs, seed=seed):
        parsed = set(parse_agent_output(render_events_answer(doc.gold_events), doc))
        lost += sum(event not in parsed for event in doc.gold_events)
        ties += sum(_tie_count(doc, event) for event in doc.gold_events)
        total += len(doc.gold_events)
    assert total > n_docs
    assert lost == 0
    assert ties == 0


def _repeated_surface_doc(rng, i):
    words = [rng.choice(["Kim", "Lee", "met", "hit", "in", "Rome", "Kim met"]) for _ in range(14)]
    return Document(f"r{i}", " ".join(words))


def _random_items(rng, doc):
    words = doc.text.split(" ") + ["absent"]
    return [
        {
            "trigger": rng.choice(words),
            "type": rng.choice("AB"),
            "arguments": [
                {"text": rng.choice(words), "role": rng.choice("XY")}
                for _ in range(rng.randint(0, 3))
            ],
        }
        for _ in range(rng.randint(0, 6))
    ]


def test_shared_grounding_matches_fresh_grounding():
    rng = random.Random(17)
    for i in range(40):
        doc = _repeated_surface_doc(rng, i)
        item_lists = [_random_items(rng, doc) for _ in range(4)]
        # The same items again, in another order and with their arguments reordered.
        item_lists += [
            [dict(it, arguments=rng.sample(it["arguments"], len(it["arguments"])))
             for it in rng.sample(items, len(items))]
            for items in item_lists
        ]
        replies = [_reply(*items) for items in item_lists]
        replies += rng.choices(replies, k=4)
        rng.shuffle(replies)
        fresh = [parse_agent_output(raw, doc) for raw in replies]
        shared = Grounding(doc)
        assert [parse_agent_output(raw, doc, shared) for raw in replies] == fresh
        for events in fresh:
            for event in events:
                assert doc.contains(event.trigger)
                assert all(doc.contains(a.span) for a in event.arguments)


def test_load_final_predictions_roundtrip(tmp_path, worked_corpus, gandhi_doc):
    k = gandhi_doc.text.index("killing")
    path = _write_lines(tmp_path / "p.jsonl", [
        {"doc_id": "gandhi", "events": [
            {"trigger": {"text": "killing", "start": k, "end": k + 7}, "type": "Life:Die",
             "trigger_provenance": "agreed", "arguments": []},
        ]},
    ])
    preds = load_final_predictions(path, worked_corpus)
    assert [e.trigger.text for e in preds["gandhi"]] == ["killing"]


_LOADER_TEXT = "Kim met Lee"


def _loader_record(loader):
    """One valid record for ``loader``: an event "met" with argument "Kim"."""
    arg = {"text": "Kim", "start": 0, "end": 3, "role": "A"}
    event = {"trigger": {"text": "met", "start": 4, "end": 7}, "type": "Meet", "arguments": [arg]}
    if loader == "tagger":
        event["trigger_confidence"] = 0.9
        arg["confidence"] = 0.8
    rec = {"doc_id": "d", "events": [event]}
    if loader == "corpus":
        rec["text"] = _LOADER_TEXT
    return rec


def _break_record(rec, case):
    event = rec["events"][0]
    arg = event["arguments"][0]
    if case == "missing-trigger":
        del event["trigger"]
    elif case == "missing-type":
        del event["type"]
    elif case == "missing-role":
        del arg["role"]
    elif case == "empty-role":
        arg["role"] = ""
    elif case == "text-confidence":
        arg["confidence"] = "high"
    elif case == "text-trigger-confidence":
        event["trigger_confidence"] = "high"
    elif case == "float-offset":
        event["trigger"]["start"] = 4.9
    elif case == "string-offset":
        event["trigger"]["end"] = "7"
    elif case == "bool-offset":
        arg["start"] = False
    elif case == "integer-type":
        event["type"] = 5
    elif case == "empty-type":
        event["type"] = ""
    elif case == "integer-role":
        arg["role"] = 5
    elif case == "missing-confidence":
        del arg["confidence"]
    elif case == "list-text":
        rec["text"] = [rec["text"]]
    elif case == "integer-doc-id":
        rec["doc_id"] = 7
    elif case == "empty-doc-id":
        rec["doc_id"] = ""
    elif case == "events-not-a-list":
        rec["events"] = 5
    elif case == "reversed-span":
        event["trigger"]["start"], event["trigger"]["end"] = 7, 4
    return rec  # unchanged for "repeated-doc-id": it repeats the good line's doc_id


_LOADERS = {
    "corpus": lambda path: load_corpus(path),
    "tagger": lambda path: load_tagger_predictions(path, [Document("d", _LOADER_TEXT)]),
    "final": lambda path: load_final_predictions(path, [Document("d", _LOADER_TEXT)]),
}
_LOADER_CASES = [
    (loader, case)
    for loader in _LOADERS
    for case in ["non-object", "long-integer", "deep-nesting", "missing-trigger", "missing-type", "missing-role", "empty-role",
                 "float-offset", "string-offset", "bool-offset", "integer-type", "empty-type", "integer-role",
                 "events-not-a-list", "reversed-span"]
    + (["text-confidence", "text-trigger-confidence", "missing-confidence"] if loader == "tagger" else [])
    + (["list-text", "integer-doc-id", "empty-doc-id"] if loader == "corpus" else [])
    + (["repeated-doc-id"] if loader == "final" else [])
]


@pytest.mark.parametrize("loader, case", _LOADER_CASES)
def test_malformed_record_is_a_corpus_format_error_naming_its_line(tmp_path, loader, case):
    good = _loader_record(loader)
    if loader == "corpus":
        good["doc_id"] = "d0"  # the bad line must not also be a duplicate doc_id
    bad = {
        "non-object": "[1, 2]",
        "long-integer": "1" * 5_000,
        "deep-nesting": "[" * 100_000 + "]" * 100_000,
    }.get(case) or json.dumps(_break_record(_loader_record(loader), case))
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        _LOADERS[loader](path)
    assert info.value.line == 3
    # The same file without its bad line loads.
    path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    _LOADERS[loader](path)


@pytest.mark.parametrize("loader", _LOADERS)
def test_argument_span_must_slice_back_to_its_surface(tmp_path, loader):
    rec = _loader_record(loader)
    rec["events"][0]["arguments"][0]["text"] = "XYZ"  # text[0:3] is "Kim"
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(SpanValidationError, match="XYZ"):
        _LOADERS[loader](path)


@pytest.mark.parametrize("payload", [
    pytest.param("{[1]: 2}", id="unhashable-key"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param("1" * 5_000, id="long-integer"),
    pytest.param("-" * 100_000 + "1", id="deep-unary"),
])
def test_unparseable_payload_is_a_reply_parse_error(payload):
    raw = f"```\nEvents = {payload}\n```"
    with pytest.raises(ReplyParseError):
        parse_answer(raw, "Events")
    with pytest.raises(ReplyParseError):
        parse_agent_output(raw, Document("d", "aa bb"))


@pytest.mark.parametrize("bad", [
    {"trigger": "aa", "type": "T", "arguments": 5},
    {"trigger": "aa", "type": "T", "arguments": None},
    {"trigger": "aa", "type": "T", "arguments": [{"text": "bb"}]},
    {"trigger": "aa", "type": "T", "arguments": [{"text": "bb", "role": ""}]},
    {"trigger": "aa", "type": None},
    {"trigger": "aa", "type": 5},
    {"trigger": "aa", "type": ""},
    {"trigger": "aa", "type": {"k": 1}},
    {"trigger": ["aa"], "type": "T"},
    {"trigger": 5, "type": "T"},
    {"trigger": None, "type": "T"},
    {"trigger": "aa", "type": "T", "arguments": [{"text": 5, "role": "R"}]},
    {"trigger": "aa", "type": "T", "arguments": [{"text": ["bb"], "role": "R"}]},
])
def test_item_shape_is_checked_against_every_document(bad):
    for text in ("aa bb", "zz bb", ""):
        with pytest.raises(ReplyParseError):
            parse_agent_output(_reply(bad), Document("d", text))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_report_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        json_report({"x": value})


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"])
@pytest.mark.parametrize("loader", _LOADERS)
def test_a_lone_surrogate_escape_is_a_corpus_format_error_naming_its_line(tmp_path, loader, escape):
    good = json.dumps(_loader_record(loader))
    bad = json.dumps({**_loader_record(loader), "note": "ESCAPE"}).replace("ESCAPE", escape)
    path = tmp_path / "records.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="lone surrogate") as info:
        _LOADERS[loader](path)
    assert info.value.line == 2


@pytest.mark.parametrize("loader", _LOADERS)
def test_a_surrogate_pair_escape_still_loads(tmp_path, loader):
    rec = {**_loader_record(loader), "note": "\U0001F600"}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    assert len(_LOADERS[loader](path)) == 1


@pytest.mark.parametrize("loader", _LOADERS)
def test_bytes_that_are_not_utf8_are_a_corpus_format_error_naming_their_line(tmp_path, loader):
    good = _loader_record(loader)
    bad = json.dumps(_loader_record(loader)).encode("utf-8").replace(b"Meet", b"M\xe9et")
    path = tmp_path / "records.jsonl"
    # Line 1 is long, so a reader that decodes in chunks meets the bad byte
    # while it still hands out line 1.
    good["pad"] = "x" * 20_000
    path.write_bytes(json.dumps(good).encode("utf-8") + b"\n" + bad + b"\n")
    with pytest.raises(CorpusFormatError, match="not UTF-8: byte 0xE9") as info:
        _LOADERS[loader](path)
    assert info.value.line == 2
