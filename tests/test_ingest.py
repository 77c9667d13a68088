import json

import pytest

from revent.errors import (
    CorpusFormatError,
    ReplyParseError,
    SpanValidationError,
    UnknownDocumentError,
)
from revent.ingest import (
    load_corpus,
    load_final_predictions,
    load_tagger_predictions,
    parse_agent_output,
)
from revent.model import Document


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
    with pytest.raises(ReplyParseError) as exc:
        parse_agent_output("Events = []", nisman_doc)
    assert exc.value.raw == "Events = []"


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
