"""A perfect extractor scores perfectly on dataset-shaped documents.

The synthetic corpus has only one-word triggers with one type each. Real
event datasets do not: CASIE and MLEE give one trigger two event types, MLEE
makes one event's trigger another event's argument, and every dataset has
multi-token spans, repeated trigger surfaces, nested arguments and spans in
two roles. ``make_shaped_corpus`` builds seeded documents from those six
shapes, and oracle agents with the oracle reflector must score Trg-C and
Arg-C F1 1.0 on them with no tagger, beside a perfect tagger, and with the
perfect tagger alone.
"""

import random

import pytest

from revent.backends import OracleBackend
from revent.confidence import ThresholdSet, ThresholdTriple, bundled_thresholds
from revent.ensemble import VoteLedger, default_agents, run_self_moa
from revent.ingest import TaggerPrediction
from revent.metrics import gold_from_corpus, score_predictions
from revent.model import ArgumentMention, Document, EventMention, Span, occurrences
from revent.pipeline import extract_document, oracle_reflector

N_AGENTS = 3

# Every ensemble item goes to reflection, so the oracle reflector judges each
# shape; tagger items are kept.
REFLECT_ALL = ThresholdTriple(theta_s=0.0, theta_smoa_hi=1.05, theta_smoa_lo=0.0)
THRESHOLD_SETS = {
    "bundled": bundled_thresholds("llama-3.1", "m2e2", 0.9),
    "reflect-all": ThresholdSet(REFLECT_ALL, REFLECT_ALL),
}


class _Passage:
    """Words joined by single spaces, each phrase returned as its Span."""

    def __init__(self):
        self.text = ""

    def emit(self, phrase: str) -> Span:
        if self.text:
            self.text += " "
        start = len(self.text)
        self.text += phrase
        return Span(phrase, start, len(self.text))


def _multi_token(p, rng):
    attacker = p.emit(rng.choice(["two armed men", "a masked group", "the rebel unit"]))
    trigger = p.emit(rng.choice(["opened fire", "set fire", "launched rockets"]))
    p.emit("at")
    target = p.emit(rng.choice(["the police station", "the city hall", "the old bridge"]))
    return [EventMention(trigger, "Conflict:Attack", (
        ArgumentMention(attacker, "Attacker"), ArgumentMention(target, "Target"),
    ))]


def _two_types(p, rng):
    attacker = p.emit(rng.choice(["militants", "insurgents", "separatists"]))
    p.emit("claimed the")
    trigger = p.emit(rng.choice(["bombing", "shelling", "ambush"]))
    p.emit("that left")
    victims = p.emit(rng.choice(["nine soldiers", "four guards", "six pilgrims"]))
    p.emit("dead")
    return [
        EventMention(trigger, "Conflict:Attack", (ArgumentMention(attacker, "Attacker"),)),
        EventMention(trigger, "Life:Die", (ArgumentMention(victims, "Victim"),)),
    ]


def _trigger_as_argument(p, rng):
    cause = p.emit(rng.choice(["PMA", "LPS", "insulin"]))
    regulation = p.emit(rng.choice(["induced", "stimulated", "enhanced"]))
    expression = p.emit(rng.choice(["expression", "transcription", "synthesis"]))
    p.emit("of")
    gene = p.emit(rng.choice(["IL-2", "VEGF", "TNF-alpha"]))
    return [
        EventMention(expression, "Gene_expression", (ArgumentMention(gene, "Theme"),)),
        EventMention(regulation, "Positive_regulation", (
            ArgumentMention(cause, "Cause"), ArgumentMention(expression, "Theme"),
        )),
    ]


def _repeated_surface(p, rng):
    word = rng.choice(["raided", "stormed", "besieged"])
    first, second = rng.sample(["troops", "guerrillas", "marines", "commandos"], 2)
    events = []
    for attacker, target, joiner in (
        (first, rng.choice(["a depot", "a farm"]), "and later"),
        (second, rng.choice(["a mill", "a port"]), None),
    ):
        attacker_span = p.emit(attacker)
        trigger = p.emit(word)
        target_span = p.emit(target)
        events.append(EventMention(trigger, "Conflict:Attack", (
            ArgumentMention(attacker_span, "Attacker"), ArgumentMention(target_span, "Target"),
        )))
        if joiner:
            p.emit(joiner)
    return events


def _nested_arguments(p, rng):
    p.emit("officers")
    trigger = p.emit(rng.choice(["detained", "arrested", "jailed"]))
    p.emit("the")
    title = rng.choice(["mayor", "governor", "treasurer"])
    city = rng.choice(["Karm", "Belun", "Ostrav"])
    person = p.emit(f"{title} of {city}")
    place = Span(city, person.end - len(city), person.end)
    return [EventMention(trigger, "Justice:Arrest-Jail", (
        ArgumentMention(person, "Person"), ArgumentMention(place, "Place"),
    ))]


def _two_roles(p, rng):
    person = p.emit(rng.choice(["Ravel", "Okafor", "Lindqvist"]))
    trigger = p.emit(rng.choice(["poisoned", "wounded", "injured"]))
    p.emit("himself")
    return [EventMention(trigger, "Life:Injure", (
        ArgumentMention(person, "Agent"), ArgumentMention(person, "Victim"),
    ))]


SHAPES = (
    _multi_token, _two_types, _trigger_as_argument,
    _repeated_surface, _nested_arguments, _two_roles,
)


def make_shaped_corpus(n_docs: int, seed: int) -> list[Document]:
    """``n_docs`` documents; document i holds shape i mod 6 and up to two
    more, in seeded order and word choice, each shape's words its own."""
    rng = random.Random(seed)
    corpus = []
    for d in range(n_docs):
        shapes = [SHAPES[d % len(SHAPES)]]
        shapes += rng.sample([s for s in SHAPES if s is not shapes[0]], rng.randint(0, 2))
        rng.shuffle(shapes)
        passage = _Passage()
        events = []
        for shape in shapes:
            passage.emit(rng.choice(["Reports said", "Meanwhile", "Earlier"]))
            events += shape(passage, rng)
        events.sort(key=lambda e: (e.trigger.start, e.event_type))
        doc = Document(f"shaped-{d:02d}", passage.text, tuple(events))
        # Agents answer with surfaces only, so each gold surface must occur
        # exactly where a gold span has it and nowhere else.
        spans = {s for e in events for s in (e.trigger, *(a.span for a in e.arguments))}
        for span in spans:
            assert occurrences(doc.text, span.text) == sorted(
                s.start for s in spans if s.text == span.text
            ), (doc.text, span)
        corpus.append(doc)
    return corpus


def _perfect_tagger(doc):
    return [
        TaggerPrediction(e, 1.0, (1.0,) * len(e.arguments)) for e in doc.gold_events
    ]


def test_generator_covers_every_shape_and_is_seeded():
    corpus = make_shaped_corpus(6, seed=1)
    types = {e.event_type for doc in corpus for e in doc.gold_events}
    assert {"Gene_expression", "Life:Die", "Justice:Arrest-Jail", "Life:Injure"} <= types
    assert make_shaped_corpus(6, seed=1) == corpus
    assert make_shaped_corpus(6, seed=2) != corpus


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("thresholds", sorted(THRESHOLD_SETS))
def test_perfect_sources_score_perfectly_on_dataset_shapes(seed, thresholds):
    corpus = make_shaped_corpus(12, seed=seed)
    backend = OracleBackend(corpus)
    agents = {
        doc.doc_id: run_self_moa(doc, "prompt", default_agents(N_AGENTS), backend, parallelism=1)
        for doc in corpus
    }
    cases = {
        "no tagger": lambda doc: ([], *agents[doc.doc_id]),
        "perfect tagger": lambda doc: (_perfect_tagger(doc), *agents[doc.doc_id]),
        "tagger alone": lambda doc: (_perfect_tagger(doc), [], VoteLedger()),
    }
    gold = gold_from_corpus(corpus)
    for case, inputs in cases.items():
        predictions = {
            doc.doc_id: extract_document(
                doc, *inputs(doc), N_AGENTS, THRESHOLD_SETS[thresholds], 0.5, oracle_reflector
            ).final_events
            for doc in corpus
        }
        metrics = score_predictions(predictions, gold)
        assert (metrics.trigger_cls.f1, metrics.argument_cls.f1) == (1.0, 1.0), case
