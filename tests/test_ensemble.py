import itertools
import json
import random
import sys
import threading

import pytest

from revent.backends import ChatRequest
from revent.ensemble import (
    AgentConfig,
    VoteLedger,
    cleanup_predictions,
    default_agents,
    fold_votes,
    run_self_moa,
)
from revent.errors import BackendError, ConfigurationError, OrchestrationError
from revent.fencing import render_events_answer
from revent.model import ArgumentMention, Document, EventMention, Span, canonical_key, trigger_id


class ScriptedBackend:
    """Returns a queued reply per (doc_id, channel); counts calls."""

    def __init__(self, replies):
        self.replies = {k: list(v) for k, v in replies.items()}
        self.calls = []

    def complete(self, request: ChatRequest) -> str:
        key = (request.metadata["doc_id"], request.metadata["channel"])
        self.calls.append(key)
        queue = self.replies[key]
        return queue.pop(0) if len(queue) > 1 else queue[0]


def _doc():
    return Document("d", "alpha beta gamma delta")


def _event(word, text, etype="T"):
    start = text.index(word)
    return EventMention(Span(word, start, start + len(word)), etype)


def _assert_votes(ledger, replies):
    """``ledger`` holds exactly the trigger and argument votes of the
    (agent id, events) ``replies``, counted here without a ledger."""
    triggers, arguments = {}, {}
    for agent_id, events in replies:
        for event in events:
            key = canonical_key(event)
            triggers.setdefault(key.trigger_id, set()).add(agent_id)
            for arg_key in key.argument_keys:
                arguments.setdefault((key.trigger_id, arg_key), set()).add(agent_id)
    for tid, agents in triggers.items():
        assert ledger.trigger_votes(tid) == agents, tid
    for (tid, arg_key), agents in arguments.items():
        assert ledger.argument_votes(tid, arg_key) == agents, (tid, arg_key)


def test_union_and_vote_bookkeeping():
    doc = _doc()
    reply_alpha = render_events_answer([_event("alpha", doc.text)])
    reply_empty = "```\nEvents = []\n```"
    replies = {}
    for i in range(1, 11):
        replies[("d", f"agent:{i}")] = [reply_alpha if i <= 6 else reply_empty]
    events, ledger = run_self_moa(doc, "p", default_agents(10), ScriptedBackend(replies))
    assert [e.trigger.text for e in events] == ["alpha"]
    assert ledger.trigger_votes(trigger_id(events[0])) == frozenset(range(1, 7))


def test_single_agent_empty_reply():
    doc = _doc()
    backend = ScriptedBackend({("d", "agent:1"): ["```\nEvents = []\n```"]})
    events, ledger = run_self_moa(doc, "p", default_agents(1), backend)
    assert events == []
    for word in doc.text.split():
        assert ledger.trigger_votes(trigger_id(_event(word, doc.text))) == frozenset()


def test_figure_walkthrough_vote_counts(nisman_doc, replay_backend):
    events, ledger = run_self_moa(
        nisman_doc, "p", default_agents(10), replay_backend
    )
    by_text = {e.trigger.text: e for e in events}
    assert set(by_text) == {"dead", "shot", "bombing"}
    assert len(ledger.trigger_votes(trigger_id(by_text["shot"]))) == 2
    assert len(ledger.trigger_votes(trigger_id(by_text["dead"]))) == 6
    assert len(ledger.trigger_votes(trigger_id(by_text["bombing"]))) == 10


def test_parse_failure_retried_once_then_empty():
    doc = _doc()
    good = render_events_answer([_event("alpha", doc.text)])
    backend = ScriptedBackend({
        ("d", "agent:1"): ["no fence here", good],   # retry succeeds
        ("d", "agent:2"): ["no fence", "still bad"],  # retry fails -> empty
    })
    events, ledger = run_self_moa(doc, "p", default_agents(2), backend)
    assert [e.trigger.text for e in events] == ["alpha"]
    assert ledger.trigger_votes(trigger_id(events[0])) == frozenset({1})
    assert backend.calls.count(("d", "agent:1")) == 2
    assert backend.calls.count(("d", "agent:2")) == 2


def test_transport_failure_names_agent():
    doc = _doc()

    class FailingBackend:
        def complete(self, request):
            raise BackendError("boom")

    with pytest.raises(OrchestrationError, match="agent 1"):
        run_self_moa(doc, "p", default_agents(1), FailingBackend())


def test_transport_failure_names_the_document():
    class DownBackend:
        def complete(self, request):
            raise BackendError("down")

    with pytest.raises(OrchestrationError, match="agent 1 for doc 'd': down"):
        run_self_moa(_doc(), "p", default_agents(1), DownBackend())


@pytest.mark.parametrize("parallelism", [1, 4])
def test_transport_failure_names_first_failing_agent(parallelism):
    doc = _doc()
    reply = render_events_answer([_event("alpha", doc.text)])

    class SecondAgentFails:
        def complete(self, request):
            if request.metadata["channel"] == "agent:2":
                raise BackendError("boom")
            return reply

    with pytest.raises(OrchestrationError, match="agent 2"):
        run_self_moa(doc, "p", default_agents(3), SecondAgentFails(), parallelism=parallelism)


def test_single_worker_runs_agents_on_the_calling_thread():
    doc = _doc()
    reply = render_events_answer([_event("alpha", doc.text)])
    threads = []

    class ThreadRecorder:
        def complete(self, request):
            threads.append(threading.get_ident())
            return reply

    events, ledger = run_self_moa(doc, "p", default_agents(3), ThreadRecorder(), parallelism=1)
    assert threads == [threading.get_ident()] * 3
    assert ledger.trigger_votes(trigger_id(events[0])) == frozenset({1, 2, 3})


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0])
def test_agent_temperature_must_be_non_negative_and_finite(temperature):
    with pytest.raises(ConfigurationError, match="temperature must be non-negative and finite"):
        AgentConfig(1, temperature)


def test_agent_ids_start_at_one():
    with pytest.raises(ConfigurationError, match="start at 1"):
        AgentConfig(0)
    key = canonical_key(_event("beta", _doc().text))
    with pytest.raises(ValueError, match="start at 1"):
        VoteLedger().record(key, 0)


def test_agent_ids_must_be_contiguous():
    with pytest.raises(ConfigurationError):
        run_self_moa(_doc(), "p", [AgentConfig(2)], ScriptedBackend({}))
    with pytest.raises(ConfigurationError):
        run_self_moa(
            _doc(), "p", [AgentConfig(1), AgentConfig(1)], ScriptedBackend({})
        )


def test_reproducible_across_runs_and_parallelism(nisman_doc, replay_backend):
    results = [
        run_self_moa(nisman_doc, "p", default_agents(10), replay_backend, parallelism=par)
        for par in (1, 4, 10)
    ]
    baseline_events, baseline = results[0]
    for events, ledger in results:
        assert events == baseline_events
        for event in events:
            tid = trigger_id(event)
            assert ledger.trigger_votes(tid) == baseline.trigger_votes(tid)
            for arg in event.arguments:
                assert ledger.argument_votes(tid, arg.key) == baseline.argument_votes(tid, arg.key)


def test_union_equals_per_agent_union_brute_force():
    # <=5 agents x <=5 events per agent, reconstructed by brute force.
    rng = random.Random(31)
    words = ["alpha", "beta", "gamma", "delta"]
    doc = _doc()
    for _ in range(30):
        n_agents = rng.randint(1, 5)
        per_agent = [
            [_event(w, doc.text, rng.choice("AB"))
             for w in rng.sample(words, rng.randint(0, 4))]
            for _ in range(n_agents)
        ]
        replies = {
            ("d", f"agent:{i + 1}"): [render_events_answer(evts)]
            for i, evts in enumerate(per_agent)
        }
        events, ledger = run_self_moa(
            doc, "p", default_agents(n_agents), ScriptedBackend(replies)
        )
        expected_keys = set(
            itertools.chain.from_iterable(
                [canonical_key(e) for e in evts] for evts in per_agent
            )
        )
        assert {canonical_key(e) for e in events} == expected_keys
        _assert_votes(ledger, enumerate(per_agent, start=1))


def test_cleanup_removes_hallucinated_span():
    doc = _doc()
    good = _event("beta", doc.text)
    bad = EventMention(Span("zeta", 0, 4), "T")  # does not slice to "zeta"
    assert cleanup_predictions([bad, good], doc) == [good]


def test_cleanup_idempotent_and_order_normalizing():
    doc = _doc()
    events = [_event(w, doc.text) for w in ["delta", "alpha", "gamma"]]
    once = cleanup_predictions(events, doc)
    assert cleanup_predictions(once, doc) == once
    rng = random.Random(3)
    for _ in range(10):
        shuffled = events[:]
        rng.shuffle(shuffled)
        assert cleanup_predictions(shuffled, doc) == once
    assert [e.trigger.start for e in once] == sorted(e.trigger.start for e in once)


def test_cleanup_same_span_different_types_ordered_by_type():
    doc = _doc()
    e_b = _event("alpha", doc.text, "B")
    e_a = _event("alpha", doc.text, "A")
    assert cleanup_predictions([e_b, e_a], doc) == [e_a, e_b]


def _reference_cleanup(raw, doc):
    """Brute-force cleanup: keep the first event per (trigger start, end,
    type, sorted argument keys) whose trigger slices back to its text, then
    sort by that tuple."""

    def key(event):
        args = sorted((a.span.start, a.span.end, a.role) for a in event.arguments)
        return (event.trigger.start, event.trigger.end, event.event_type, tuple(args))

    kept = []
    for event in raw:
        trigger = event.trigger
        if doc.text[trigger.start:trigger.end] != trigger.text:
            continue
        if all(key(event) != key(other) for other in kept):
            kept.append(event)
    return sorted(kept, key=key)


def test_cleanup_equals_brute_force_reference_on_random_unions():
    # Unions with repeated keys held as distinct objects (argument order
    # shuffled, argument surfaces that differ only in text), one trigger
    # span and type under several argument sets, and triggers that do not
    # slice back to their text.
    rng = random.Random(7)
    doc = Document("d", "alpha beta gamma delta alpha beta")
    words = ["alpha", "beta", "gamma", "delta"]

    def span(word, shift=0):
        start = doc.text.index(word) + shift
        return Span(word, start, start + len(word))

    def argument():
        word = rng.choice(words)
        surface = span(word)
        if rng.random() < 0.2:  # same offsets and role, different text
            surface = Span(word[::-1], surface.start, surface.end)
        return ArgumentMention(surface, rng.choice("XY"))

    for _ in range(300):
        pool = []
        for _ in range(rng.randint(0, 8)):
            word = rng.choice(words)
            trigger = span(word, shift=rng.choice([0, 0, 0, 1]))  # shifted: no slice-back
            pool.append((trigger, rng.choice("AB"), [argument() for _ in range(rng.randint(0, 3))]))
        raw = []
        for _ in range(rng.randint(0, 14)):
            trigger, etype, args = rng.choice(pool) if pool else (span("beta"), "A", [])
            args = args + [argument()] if rng.random() < 0.3 else args[:]
            rng.shuffle(args)
            raw.append(EventMention(trigger, etype, tuple(args)))
        rng.shuffle(raw)
        got = cleanup_predictions(raw, doc)
        expected = _reference_cleanup(raw, doc)
        assert len(got) == len(expected)
        assert all(g is e for g, e in zip(got, expected))


def test_ledger_trigger_and_argument_votes():
    from revent.model import ArgumentMention

    doc = _doc()
    trig = Span("alpha", 0, 5)
    arg_a = ArgumentMention(Span("beta", 6, 10), "R")
    arg_b = ArgumentMention(Span("gamma", 11, 16), "S")
    with_one = EventMention(trig, "T", (arg_a,))
    with_two = EventMention(trig, "T", (arg_a, arg_b))
    ledger = VoteLedger()
    for agent in (1, 2, 3, 4, 5, 6):
        ledger.record(canonical_key(with_one), agent)
    for agent in (7, 8, 9, 10):
        ledger.record(canonical_key(with_two), agent)
    tid = (0, 5, "T")
    assert ledger.trigger_votes(tid) == frozenset(range(1, 11))
    assert ledger.argument_votes(tid, arg_a.key) == frozenset(range(1, 11))
    assert ledger.argument_votes(tid, arg_b.key) == frozenset({7, 8, 9, 10})
    assert ledger.trigger_votes((0, 5, "Other")) == frozenset()


def test_ledger_index_equals_brute_scan():
    from revent.model import ArgumentMention

    rng = random.Random(23)
    text = "alpha beta gamma delta epsilon"
    words = text.split()
    spans = [Span(w, text.index(w), text.index(w) + len(w)) for w in words]
    for _ in range(200):
        ledger = VoteLedger()
        recorded = []
        for _ in range(rng.randint(0, 12)):
            args = tuple(
                ArgumentMention(rng.choice(spans), rng.choice("RS"))
                for _ in range(rng.randint(0, 3))
            )
            event = EventMention(rng.choice(spans[:3]), rng.choice("AB"), args)
            recorded.append((canonical_key(event), rng.randint(1, 6)))
            ledger.record(*recorded[-1])
        trigger_ids = {(s.start, s.end, t) for s in spans for t in "ABC"}
        arg_keys = {(s.start, s.end, r) for s in spans for r in "RST"}
        for tid in trigger_ids:
            keys = [(k, agent) for k, agent in recorded if k.trigger_id == tid]
            assert ledger.trigger_votes(tid) == {agent for _, agent in keys}
            for arg_key in arg_keys:
                expected = {agent for k, agent in keys if arg_key in k.argument_keys}
                assert ledger.argument_votes(tid, arg_key) == expected


def _repeated_surface_replies(rng, doc, n_agents):
    words = doc.text.split(" ")
    replies = {}
    for agent in range(1, n_agents + 1):
        items = [
            {"trigger": rng.choice(words), "type": rng.choice("AB"),
             "arguments": [{"text": rng.choice(words), "role": "R"} for _ in range(rng.randint(0, 2))]}
            for _ in range(rng.randint(0, 5))
        ]
        replies[(doc.doc_id, f"agent:{agent}")] = ["```\nEvents = " + json.dumps(items) + "\n```"]
    return replies


def test_shared_grounding_is_independent_of_parallelism():
    # Pool threads share one Grounding; a short switch interval makes them
    # interleave inside its index and memo.
    rng = random.Random(23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(25):
            doc = Document(f"p{i}", " ".join(rng.choice(["aa", "bb", "cc", "aa bb"]) for _ in range(10)))
            replies = _repeated_surface_replies(rng, doc, 6)
            runs = [
                run_self_moa(doc, "p", default_agents(6), ScriptedBackend(replies), parallelism=par)
                for par in (1, 4)
            ]
            (serial, serial_ledger), (pooled, pooled_ledger) = runs
            assert pooled == serial
            for event in serial:
                tid = trigger_id(event)
                assert pooled_ledger.trigger_votes(tid) == serial_ledger.trigger_votes(tid)
                for arg in event.arguments:
                    assert (pooled_ledger.argument_votes(tid, arg.key)
                            == serial_ledger.argument_votes(tid, arg.key))
    finally:
        sys.setswitchinterval(interval)


def test_documents_never_share_grounded_events(monkeypatch):
    import revent.ensemble as ensemble

    built = []

    class RecordingGrounding(ensemble.Grounding):
        def __init__(self, doc):
            super().__init__(doc)
            built.append(self)

    monkeypatch.setattr(ensemble, "Grounding", RecordingGrounding)
    # Same surfaces at different offsets in each document.
    first, second = Document("one", "aa bb cc aa"), Document("two", "cc aa bb bb")
    reply = '```\nEvents = [{"trigger": "aa", "type": "T", "arguments": [{"text": "bb", "role": "R"}]}]\n```'
    results = []
    for doc in (first, second):
        replies = {(doc.doc_id, f"agent:{i}"): [reply] for i in (1, 2, 3)}
        results.append(run_self_moa(doc, "p", default_agents(3), ScriptedBackend(replies)))
    assert len(built) == 2 and built[0].doc is first and built[1].doc is second
    (one, _), (two, _) = results
    assert [(e.trigger.start, e.arguments[0].span.start) for e in one] == [(0, 3)]
    assert [(e.trigger.start, e.arguments[0].span.start) for e in two] == [(3, 6)]
    assert not {id(e) for e in one} & {id(e) for e in two}


def test_non_string_roles_drop_the_reply_at_any_parallelism():
    # 1, True and 1.0 compare equal; none of them is a role, so whichever
    # thread parses first, those agents' replies fail both attempts.
    doc = Document("d", "aa bb aa")
    item = {"trigger": "aa", "type": "T", "arguments": [{"text": "bb", "role": "R"}]}
    replies = {}
    for agent, role in enumerate([1, True, 1.0, "R", "R", "R"], start=1):
        bad = dict(item, arguments=[{"text": "bb", "role": role}])
        replies[("d", f"agent:{agent}")] = ["```\nEvents = " + json.dumps([bad]) + "\n```"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for parallelism in (1, 4):
                backend = ScriptedBackend(replies)
                events, ledger = run_self_moa(
                    doc, "p", default_agents(6), backend, parallelism=parallelism
                )
                assert [(e.trigger.start, [(a.span.start, a.role) for a in e.arguments])
                        for e in events] == [(0, [(3, "R")])]
                assert ledger.trigger_votes((0, 2, "T")) == frozenset({4, 5, 6})
                assert ledger.argument_votes((0, 2, "T"), (3, 5, "R")) == frozenset({4, 5, 6})
                assert backend.calls.count(("d", "agent:1")) == 2
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("payload", [
    pytest.param("{[1]: 2}", id="unhashable-key"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param("1" * 5_000, id="long-integer"),
    pytest.param('{"trigger": "alpha", "type": "T"}', id="object-not-a-list"),
])
def test_unparseable_reply_is_retried_then_empty(parallelism, payload):
    doc = _doc()
    bad = f"```\nEvents = {payload}\n```"
    backend = ScriptedBackend({
        ("d", "agent:1"): [bad],
        ("d", "agent:2"): [render_events_answer([_event("alpha", doc.text)])],
    })
    events, ledger = run_self_moa(doc, "p", default_agents(2), backend, parallelism)
    assert [e.trigger.text for e in events] == ["alpha"]
    assert ledger.trigger_votes(trigger_id(events[0])) == frozenset({2})
    assert backend.calls.count(("d", "agent:1")) == 2


def test_fold_votes_first_seen_union_in_reply_order():
    text = _doc().text
    alpha, beta, gamma = (_event(w, text) for w in ("alpha", "beta", "gamma"))
    union, ledger = fold_votes([(2, [beta, alpha]), (1, [alpha, gamma]), (3, [])])
    assert union == [beta, alpha, gamma]
    assert ledger.trigger_votes(trigger_id(alpha)) == frozenset({1, 2})
    assert ledger.trigger_votes(trigger_id(gamma)) == frozenset({1})
    assert ledger.trigger_votes(trigger_id(beta)) == frozenset({2})
