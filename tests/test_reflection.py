import json
import random

import pytest

from revent.backends import ChatRequest
from revent.errors import BackendError, ConfigurationError, ContractError, OrchestrationError, ReplyParseError
from revent.fencing import render_argument_verdicts, render_classification_map
from revent.model import ArgumentMention, Document, EventMention, Span
from revent.reflection import (
    AuditLog,
    ReflectionConfig,
    ReflectionItem,
    build_argument_prompt,
    build_trigger_prompt,
    parse_argument_response,
    parse_trigger_response,
    reflect,
    resolve,
)


class RecordingBackend:
    def __init__(self, reply_fn):
        self.reply_fn = reply_fn
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> str:
        self.requests.append(request)
        return self.reply_fn(request)


def _doc(text="the dead were found after the shot and the bombing", doc_id="d"):
    return Document(doc_id, text)


def _span(doc, surface):
    start = doc.text.index(surface)
    return Span(surface, start, start + len(surface))


def test_reflection_config_defaults():
    config = ReflectionConfig()
    assert config.temperature == 0.1
    assert config.max_output_tokens == 4096
    assert config.length_penalty == 1.05
    assert config.retry_limit == 1


@pytest.mark.parametrize("field, value", [
    ("retry_limit", -1),
    ("retry_limit", True),
    ("retry_limit", "1"),
    ("retry_limit", 1.0),
    ("max_output_tokens", 0),
    ("max_output_tokens", -1),
    ("max_output_tokens", True),
    ("max_output_tokens", "1"),
    ("temperature", float("nan")),
    ("temperature", float("inf")),
    ("temperature", -1.0),
    ("temperature", True),
    ("temperature", "1"),
    ("length_penalty", float("nan")),
    ("length_penalty", float("inf")),
    ("length_penalty", "1"),
])
def test_reflection_config_rejects_bad_fields(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ReflectionConfig(**{field: value})


def test_reflection_config_accepts_edge_values():
    assert ReflectionConfig(retry_limit=2).retry_limit == 2
    config = ReflectionConfig(retry_limit=0, max_output_tokens=1, temperature=0, length_penalty=-0.5)
    assert (config.retry_limit, config.max_output_tokens, config.temperature) == (0, 1, 0)


def test_trigger_prompt_contains_template_parts():
    doc = _doc()
    prompt = build_trigger_prompt(doc, ["dead", "shot"])
    assert '"dead"' in prompt and '"shot"' in prompt
    assert doc.text in prompt
    assert (
        '```ClassificationMap = {"therapy": "Trigger", "increase dose": "Non-Trigger"}```'
        in prompt
    )
    assert prompt.endswith(
        "Q: For each candidate above, decide whether it is a 'Trigger' or 'Non-Trigger'."
    )


def test_trigger_prompt_single_candidate_same_shape():
    doc = _doc()
    two = build_trigger_prompt(doc, ["dead", "shot"])
    one = build_trigger_prompt(doc, ["dead"])
    # Identical template; only the candidate lists differ.
    assert one.replace('["dead"]', "@") == two.replace('["dead", "shot"]', "@")


def test_trigger_prompt_requires_candidates():
    with pytest.raises(ContractError):
        build_trigger_prompt(_doc(), [])


def test_argument_prompt_lists_candidates_in_order():
    doc = Document("d", "the assassin shot Gandhi and a man")
    trig = EventMention(_span(doc, "shot"), "Conflict:Attack")
    cands = [
        ArgumentMention(_span(doc, "Gandhi"), "Victim"),
        ArgumentMention(_span(doc, "man"), "Victim"),
    ]
    prompt = build_argument_prompt(doc, trig, cands)
    assert prompt.index('"Gandhi"') < prompt.index('{"text": "man"')
    assert '"shot" (type: "Conflict:Attack")' in prompt
    assert prompt.endswith("Q: For each candidate above, set `is_correct` to `true` or `false`.")


def test_prompts_fill_each_slot_once():
    # Marker-like text in the passage or a candidate reaches the model as is.
    doc = Document("d", "He wrote <EVENT_TYPE> and <TRIGGER_TEXT> in <FULL_PASSAGE_TEXT>, "
                        "<CANDIDATE_TRIGGERS_TO_VERIFY>, <TRIGGER_CANDIDATE_LIST>, "
                        "<CANDIDATE_ARGUMENTS_TO_VERIFY>, $passage and $candidates")
    phrases = ["wrote", "<FULL_PASSAGE_TEXT>"]
    prompt = build_trigger_prompt(doc, phrases)
    assert doc.text in prompt
    assert prompt.count(json.dumps(phrases)) == 2
    trigger = EventMention(_span(doc, "wrote"), "Attack")
    argument = ArgumentMention(_span(doc, "$candidates"), "<EVENT_TYPE>")
    prompt = build_argument_prompt(doc, trigger, [argument])
    assert doc.text in prompt
    assert json.dumps([{"text": "$candidates", "role": "<EVENT_TYPE>"}]) in prompt
    assert '"wrote" (type: "Attack")' in prompt


def test_argument_prompt_requires_candidates():
    doc = _doc()
    with pytest.raises(ContractError):
        build_argument_prompt(doc, EventMention(_span(doc, "shot"), "T"), [])


def test_argument_prompt_requires_grounded_trigger():
    doc = _doc()
    bad_trigger = EventMention(Span("zzz", 0, 3), "T")
    from revent.errors import SpanValidationError

    with pytest.raises(SpanValidationError):
        build_argument_prompt(doc, bad_trigger, [ArgumentMention(_span(doc, "dead"), "R")])


def test_parse_trigger_response_walkthrough():
    raw = '```ClassificationMap = {"dead": "Trigger", "shot": "Non-Trigger"}```'
    verdict = parse_trigger_response(raw, ["dead", "shot"])
    assert verdict.is_trigger("dead") is True
    assert verdict.is_trigger("shot") is False


def test_verdict_of_a_phrase_not_queried_is_a_key_error():
    raw = '```ClassificationMap = {"dead": "Trigger"}```'
    verdict = parse_trigger_response(raw, ["dead"])
    with pytest.raises(KeyError, match="shot"):
        verdict.is_trigger("shot")


def test_parse_trigger_response_template_example():
    raw = '```ClassificationMap = {"therapy": "Trigger", "increase dose": "Non-Trigger"}```'
    verdict = parse_trigger_response(raw, ["therapy", "increase dose"])
    assert verdict.as_dict() == {"therapy": "Trigger", "increase dose": "Non-Trigger"}


def test_parse_trigger_response_ignores_surrounding_prose():
    raw = 'Sure, here is my answer:\n```ClassificationMap = {"dead": "Trigger"}```\nDone.'
    assert parse_trigger_response(raw, ["dead"]).is_trigger("dead")


def test_parse_trigger_response_missing_candidate_kept():
    raw = '```ClassificationMap = {"dead": "Trigger"}```'
    verdict = parse_trigger_response(raw, ["dead", "shot"])
    assert verdict.is_trigger("shot") is True  # fallback keeps unanswered candidates


def test_parse_trigger_response_bad_verdict_is_parse_error():
    with pytest.raises(ReplyParseError):
        parse_trigger_response('```ClassificationMap = {"dead": "Maybe"}```', ["dead"])


def test_verdict_for_a_phrase_not_queried_does_not_void_the_reply():
    raw = '```ClassificationMap = {"dead": "Non-Trigger", "today": "maybe"}```'
    assert parse_trigger_response(raw, ["dead"]).as_dict() == {"dead": "Non-Trigger"}
    doc = _doc()
    backend = RecordingBackend(lambda req: raw)
    audit = AuditLog()
    results = reflect([_item(doc, "dead", "Life:Die", ambiguous=True)], doc, backend,
                      ReflectionConfig(), audit)
    assert _kept_triggers(results) == []
    assert len(backend.requests) == 1
    assert not any(entry["fallback"] for entry in audit.entries)


def test_parse_trigger_response_no_fence_is_parse_error():
    with pytest.raises(ReplyParseError):
        parse_trigger_response("ClassificationMap = {}", ["dead"])


def test_parse_argument_response_keeps_flagged():
    raw = '```\n[{"text": "Gandhi", "role": "Victim", "is_correct": true}]\n```'
    verdict = parse_argument_response(raw, [("Gandhi", "Victim")])
    assert verdict.entries == (("Gandhi", "Victim", True),)


def test_parse_argument_response_added_entry_is_error():
    raw = (
        '```\n[{"text": "Gandhi", "role": "Victim", "is_correct": true},'
        ' {"text": "gun", "role": "Instrument", "is_correct": true}]\n```'
    )
    with pytest.raises(ReplyParseError):
        parse_argument_response(raw, [("Gandhi", "Victim")])


def test_parse_argument_response_reorder_is_error():
    raw = (
        '```\n[{"text": "man", "role": "Victim", "is_correct": true},'
        ' {"text": "Gandhi", "role": "Victim", "is_correct": false}]\n```'
    )
    with pytest.raises(ReplyParseError):
        parse_argument_response(raw, [("Gandhi", "Victim"), ("man", "Victim")])


def test_parse_argument_response_all_false_empty_result():
    raw = '```\n[{"text": "a", "role": "R", "is_correct": false}]\n```'
    verdict = parse_argument_response(raw, [("a", "R")])
    assert verdict.entries == (("a", "R", False),)


def test_prompt_parse_round_trip_random():
    rng = random.Random(23)
    words = ["alpha", "beta", "gamma", "delta", 'quo"ted', "epsilon"]
    for _ in range(200):
        phrases = rng.sample(words, rng.randint(1, len(words)))
        assignment = {p: rng.random() < 0.5 for p in phrases}
        raw = render_classification_map(
            {p: "Trigger" if keep else "Non-Trigger" for p, keep in assignment.items()}
        )
        verdict = parse_trigger_response(raw, phrases)
        assert {p: verdict.is_trigger(p) for p in phrases} == assignment

        cands = [(p, rng.choice(["Agent", "Victim"])) for p in phrases]
        flags = [rng.random() < 0.5 for _ in cands]
        raw = render_argument_verdicts(
            [(t, r, ok) for (t, r), ok in zip(cands, flags)]
        )
        parsed = parse_argument_response(raw, cands)
        assert [entry[2] for entry in parsed.entries] == flags


def _item(doc, surface, etype, ambiguous, pending=()):
    return ReflectionItem(
        event=EventMention(_span(doc, surface), etype),
        trigger_ambiguous=ambiguous,
        pending_arguments=tuple(pending),
    )


def _kept_triggers(results):
    return [r.item.event.trigger.text for r in results if r.trigger_kept]


def test_reflect_walkthrough_keeps_dead_drops_nothing_else():
    doc = _doc()
    backend = RecordingBackend(
        lambda req: '```ClassificationMap = {"dead": "Trigger", "shot": "Non-Trigger"}```'
    )
    items = [
        _item(doc, "dead", "Life:Die", ambiguous=True),
        _item(doc, "shot", "Conflict:Attack", ambiguous=True),
    ]
    results = reflect(items, doc, backend, ReflectionConfig(), AuditLog())
    assert _kept_triggers(results) == ["dead"]
    assert len(backend.requests) == 1


def test_reflect_empty_input_zero_calls():
    backend = RecordingBackend(lambda req: "unused")
    assert reflect([], _doc(), backend, ReflectionConfig(), AuditLog()) == []
    assert backend.requests == []


def test_rejected_trigger_never_queries_arguments():
    doc = Document("d", "the assassin shot Gandhi")
    pending = [ArgumentMention(_span(doc, "Gandhi"), "Victim")]

    def reply(request):
        channel = request.metadata["channel"]
        if channel == "reflection:triggers":
            return '```ClassificationMap = {"shot": "Non-Trigger"}```'
        raise AssertionError("argument query issued for a rejected trigger")

    backend = RecordingBackend(reply)
    items = [_item(doc, "shot", "Conflict:Attack", ambiguous=True, pending=pending)]
    results = reflect(items, doc, backend, ReflectionConfig(), AuditLog())
    assert _kept_triggers(results) == []
    assert len(backend.requests) == 1  # only the trigger query


def test_confirmed_trigger_with_pending_args_queries_arguments():
    doc = Document("d", "the assassin shot Gandhi")
    pending = [ArgumentMention(_span(doc, "Gandhi"), "Victim")]

    def reply(request):
        if request.metadata["channel"] == "reflection:triggers":
            raise AssertionError("no trigger query expected")
        return '```\n[{"text": "Gandhi", "role": "Victim", "is_correct": true}]\n```'

    backend = RecordingBackend(reply)
    items = [_item(doc, "shot", "Conflict:Attack", ambiguous=False, pending=pending)]
    results = reflect(items, doc, backend, ReflectionConfig(), AuditLog())
    assert _kept_triggers(results) == ["shot"]
    assert [a.span.text for a in results[0].confirmed_arguments] == ["Gandhi"]
    assert len(backend.requests) == 1


def test_all_trigger_mock_is_identity():
    doc = _doc()

    def reply(request):
        if request.metadata["channel"] == "reflection:triggers":
            candidates = json.loads(request.metadata["candidates"])
            return render_classification_map({c: "Trigger" for c in candidates})
        candidates = json.loads(request.metadata["candidates"])
        return render_argument_verdicts([(t, r, True) for t, r in candidates])

    backend = RecordingBackend(reply)
    pending = [ArgumentMention(_span(doc, "bombing"), "Target")]
    items = [
        _item(doc, "dead", "Life:Die", ambiguous=True),
        _item(doc, "shot", "Conflict:Attack", ambiguous=True, pending=pending),
    ]
    results = reflect(items, doc, backend, ReflectionConfig(), AuditLog())
    assert _kept_triggers(results) == ["dead", "shot"]
    assert [a.span.text for a in results[1].confirmed_arguments] == ["bombing"]


def test_parse_failure_fallback_keeps_candidates_and_audits():
    doc = _doc()
    backend = RecordingBackend(lambda req: "garbage with no fence")
    audit = AuditLog()
    items = [_item(doc, "dead", "Life:Die", ambiguous=True)]
    results = reflect(items, doc, backend, ReflectionConfig(retry_limit=1), audit)
    assert _kept_triggers(results) == ["dead"]
    assert len(backend.requests) == 2  # initial + one retry
    assert audit.entries[-1]["fallback"] is True
    assert audit.entries[-1]["outcome"] == "fallback-keep-all"


def test_backend_call_count_bound():
    doc = _doc()
    calls = []

    def reply(request):
        calls.append(request.metadata["channel"])
        return "never parseable"

    config = ReflectionConfig(retry_limit=2)
    pending = [ArgumentMention(_span(doc, "bombing"), "Target")]
    items = [_item(doc, "dead", "Life:Die", ambiguous=True, pending=pending)]
    reflect(items, doc, RecordingBackend(reply), config, AuditLog())
    # one trigger query + one argument query, each attempted <= 1 + retry_limit times
    assert len(calls) <= (1 + config.retry_limit) * 2



_UNPARSEABLE = [
    pytest.param("{[1]: 2}", id="unhashable-key"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param("1" * 5_000, id="long-integer"),
]


@pytest.mark.parametrize("payload", _UNPARSEABLE)
def test_unparseable_replies_are_parse_errors(payload):
    with pytest.raises(ReplyParseError):
        parse_trigger_response(f"```ClassificationMap = {payload}```", ["dead"])
    with pytest.raises(ReplyParseError):
        parse_argument_response(f"```\n{payload}\n```", [("bombing", "Target")])


@pytest.mark.parametrize("payload", _UNPARSEABLE)
def test_unparseable_replies_fall_back_to_keep_all(payload):
    doc = _doc()

    def reply(request):
        if request.metadata["channel"].startswith("reflection:trigger"):
            return f"```ClassificationMap = {payload}```"
        return f"```\n{payload}\n```"

    pending = [ArgumentMention(_span(doc, "bombing"), "Target")]
    items = [_item(doc, "dead", "Life:Die", ambiguous=True, pending=pending)]
    audit = AuditLog()
    results = reflect(items, doc, RecordingBackend(reply), ReflectionConfig(retry_limit=1), audit)
    assert _kept_triggers(results) == ["dead"]
    assert [a.span.text for a in results[0].confirmed_arguments] == ["bombing"]
    assert [e["outcome"].split(":")[0] for e in audit.entries] == ["parse-error"] * 2 + [
        "fallback-keep-all", "parse-error", "parse-error", "fallback-keep-all"
    ]


@pytest.mark.parametrize("reply, reason", [
    pytest.param('```ClassificationMap = ["dead"]```',
                 "ClassificationMap is not a mapping", id="map-not-a-mapping"),
    pytest.param('```Events = {"dead": "Trigger"}```',
                 "expected top-level key 'ClassificationMap'", id="wrong-key"),
    pytest.param('```\n{"text": "bombing", "role": "Target", "is_correct": true}\n```',
                 "argument reply is not a list", id="arguments-not-a-list"),
    pytest.param('```\n[{"text": "bombing", "role": "Target", "is_correct": "yes"}]\n```',
                 "is_correct is not a boolean", id="non-bool-is-correct"),
])
def test_wrong_shaped_reply_is_retried_then_kept_all(reply, reason):
    doc = _doc()
    asks_trigger = "ClassificationMap" in reason
    pending = () if asks_trigger else [ArgumentMention(_span(doc, "bombing"), "Target")]
    items = [_item(doc, "dead", "Life:Die", ambiguous=asks_trigger, pending=pending)]
    backend = RecordingBackend(lambda req: reply)
    audit = AuditLog()
    results = reflect(items, doc, backend, ReflectionConfig(retry_limit=1), audit)
    assert _kept_triggers(results) == ["dead"]
    assert [a.span.text for a in results[0].confirmed_arguments] == [a.span.text for a in pending]
    assert len(backend.requests) == 2
    assert [e["outcome"].startswith(f"parse-error: {reason}") for e in audit.entries] == [
        True, True, False
    ]
    assert audit.entries[-1]["outcome"] == "fallback-keep-all"
    assert audit.entries[-1]["fallback"] is True


def test_reflection_backend_error_is_an_orchestration_error():
    def reply(request):
        raise BackendError("endpoint down")

    doc = _doc()
    items = [_item(doc, "dead", "Life:Die", ambiguous=True)]
    with pytest.raises(OrchestrationError, match="reflection:triggers for doc 'd': endpoint down"):
        reflect(items, doc, RecordingBackend(reply), ReflectionConfig(), AuditLog())


_LONG = "x" * 200_000


@pytest.mark.parametrize("reply", [
    pytest.param(f'```ClassificationMap = {{"dead": "{_LONG}"}}```', id="long-verdict"),
    pytest.param(f'```\n["{_LONG}"]\n```', id="long-entry"),
    pytest.param(
        "```\n" + json.dumps([{"text": _LONG, "role": "Target", "is_correct": True}]) + "\n```",
        id="long-argument-text",
    ),
])
def test_long_unparseable_reply_is_stored_once_per_audit_entry(reply):
    doc = _doc()
    pending = [ArgumentMention(_span(doc, "bombing"), "Target")]
    items = [_item(doc, "dead", "Life:Die", ambiguous=True, pending=pending)]
    audit = AuditLog()
    reflect(items, doc, RecordingBackend(lambda req: reply), ReflectionConfig(retry_limit=1), audit)
    assert [e["outcome"].split(":")[0] for e in audit.entries] == [
        "parse-error", "parse-error", "fallback-keep-all"
    ] * 2
    for entry in audit.entries:
        assert entry["reply"] == reply
        assert len(entry["outcome"]) < 300, entry["outcome"][:300]


def _per_item_reference(items, trigger_truth, argument_truth):
    """What each item's verdicts are when it is judged on its own."""
    results = []
    for item in items:
        kept = not item.trigger_ambiguous or trigger_truth[item.event.trigger.text]
        confirmed = tuple(
            a for a in item.pending_arguments if kept and argument_truth[item.event, a.key]
        )
        results.append((item, kept, confirmed))
    return results


def test_resolve_equals_per_item_verdicts_random():
    rng = random.Random(8)
    doc = Document("d", "aa bb cc dd ee ff gg hh")
    words = doc.text.split()
    for _ in range(500):
        items = []
        for _ in range(rng.randint(0, 8)):
            trigger = _span(doc, rng.choice(words[:3]))
            pool = [ArgumentMention(_span(doc, w), rng.choice("AB")) for w in words[3:]]
            items.append(ReflectionItem(
                EventMention(trigger, rng.choice(["T1", "T2"])),
                rng.random() < 0.5,
                tuple(rng.sample(pool, rng.randint(0, 3))),
            ))
        trigger_truth = {w: rng.random() < 0.5 for w in words}
        argument_truth = {}
        for item in items:
            for arg in item.pending_arguments:
                argument_truth.setdefault((item.event, arg.key), rng.random() < 0.5)
        trigger_calls, argument_calls = [], []

        def judge_triggers(phrases):
            trigger_calls.append(phrases)
            return [trigger_truth[p] for p in phrases]

        def judge_arguments(event, args):
            argument_calls.append((event, [a.key for a in args]))
            return [argument_truth[event, a.key] for a in args]

        results = resolve(items, judge_triggers, judge_arguments)
        assert [(r.item, r.trigger_kept, r.confirmed_arguments) for r in results] == (
            _per_item_reference(items, trigger_truth, argument_truth)
        )
        assert len(trigger_calls) <= 1
        for phrases in trigger_calls:
            assert len(set(phrases)) == len(phrases)
        asked = [event for event, _ in argument_calls]
        assert len(set(asked)) == len(asked)
        for _, keys in argument_calls:
            assert len(set(keys)) == len(keys)
