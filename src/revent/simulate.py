"""Seeded synthetic corpora and prediction generators.

These model the two real prediction sources at desk scale: a tagger profile
with high precision and limited recall, and an agent-ensemble profile with
high recall and limited precision. Both drop gold events at (1 - recall)
and inject text-grounded distractors to approach the target precision,
deterministically per seed, so pipeline-level properties (in particular
that the combined pipeline beats either source alone) are testable without
any model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .agreement import overlap_in_range
from .confidence import ThresholdSet
from .ensemble import VoteLedger, cleanup_predictions, fold_votes
from .errors import ConfigurationError, short_repr
from .ingest import TaggerPrediction, is_finite_number, read_json_document
from .model import ArgumentMention, Document, EventMention, Span, occurrences

__all__ = [
    "OracleProfile",
    "make_synthetic_corpus",
    "synthesize_tagger_predictions",
    "synthesize_agent_predictions",
    "DEFAULT_HALLUCINATION_VOCAB",
    "default_scenario",
    "load_scenario",
    "run_scenario",
]

# Words sprinkled through synthetic passages that are never gold triggers -
# the natural hallucination vocabulary for distractor injection.
DEFAULT_HALLUCINATION_VOCAB = (
    "report", "statement", "meeting", "decision", "review", "plan",
    "notice", "update", "briefing", "session", "account", "summary",
    "memo", "hearing", "record",
)

_TRIGGER_WORDS = {
    "Conflict:Attack": ("raid", "ambush", "strike", "assault", "clash"),
    "Movement:Transport": ("convoy", "airlift", "shipment", "transfer"),
    "Life:Die": ("perished", "died", "casualties"),
    "Justice:Arrest": ("detained", "arrested", "apprehended"),
    "Contact:Meet": ("summit", "talks", "negotiation"),
}

_ACTORS = (
    "officials", "soldiers", "villagers", "investigators", "ministers",
    "protesters", "rebels", "officers", "residents", "diplomats",
)

_PLACES = (
    "Karm", "Belun", "Ostrav", "Quilla", "Tarn", "Veles", "Ingra", "Dovel",
)


@dataclass(frozen=True)
class OracleProfile:
    """Target operating point for one synthetic prediction source.

    Distractors are drawn from the occurrences of ``hallucination_vocabulary``
    words in the corpus that touch no gold trigger, and no more are injected
    than there are such occurrences. When the corpus has too few, every one
    is injected, without a warning, and precision comes out above
    ``target_precision`` (1.0 on a corpus without those words).
    """

    target_precision: float
    target_recall: float
    hallucination_vocabulary: tuple[str, ...] = DEFAULT_HALLUCINATION_VOCAB
    seed: int = 0
    correct_confidence: tuple[float, float] = (0.75, 1.0)
    incorrect_confidence: tuple[float, float] = (0.05, 0.5)

    def __post_init__(self):
        for name in ("target_precision", "target_recall"):
            value = getattr(self, name)
            if not (is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be a number in [0, 1], got {short_repr(value)}")
        vocabulary = self.hallucination_vocabulary
        if not (
            isinstance(vocabulary, (list, tuple))
            and all(isinstance(word, str) and word for word in vocabulary)
        ):
            raise ConfigurationError(
                f"hallucination_vocabulary must be a list of non-empty strings, got {short_repr(vocabulary)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an integer, got {short_repr(self.seed)}")
        for name in ("correct_confidence", "incorrect_confidence"):
            pair = getattr(self, name)
            if not (
                len(pair) == 2 and all(map(is_finite_number, pair)) and 0 <= pair[0] <= pair[1] <= 1
            ):
                raise ConfigurationError(
                    f"{name} must be [lo, hi] with 0 <= lo <= hi <= 1, got {short_repr(pair)}"
                )
        if self.target_precision < 1.0 and not self.hallucination_vocabulary:
            raise ConfigurationError(
                "precision below 1.0 needs a non-empty hallucination vocabulary"
            )


def make_synthetic_corpus(
    n_docs: int,
    seed: int = 0,
    max_events_per_doc: int = 3,
) -> list[Document]:
    """Generate annotated documents with exactly groundable spans.

    Texts are assembled word-by-word with offset tracking, so every gold
    trigger and argument slices back exactly; filler words come from the
    default hallucination vocabulary, giving distractor injection something
    to anchor on.
    """
    rng = random.Random(seed)
    types = sorted(_TRIGGER_WORDS)
    docs = []
    for d in range(n_docs):
        words: list[str] = []
        offset = 0

        def emit(word: str) -> Span:
            nonlocal offset
            if words:
                offset += 1  # joining space
            start = offset
            words.append(word)
            offset += len(word)
            return Span(word, start, start + len(word))

        events = []
        for _ in range(rng.randint(1, max_events_per_doc)):
            emit(rng.choice(DEFAULT_HALLUCINATION_VOCAB))
            subj = emit(rng.choice(_ACTORS))
            event_type = rng.choice(types)
            trig = emit(rng.choice(_TRIGGER_WORDS[event_type]))
            emit("near")
            place = emit(rng.choice(_PLACES))
            args = [ArgumentMention(subj, "Agent")]
            if rng.random() < 0.7:
                args.append(ArgumentMention(place, "Place"))
            events.append(EventMention(trig, event_type, tuple(args)))
        docs.append(Document(f"doc-{d:04d}", " ".join(words), tuple(events)))
    return docs


def _distractor_spans(doc: Document, vocabulary) -> list[Span]:
    """Occurrences of vocabulary words that do not touch a gold trigger."""
    trigger_ranges = [(e.trigger.start, e.trigger.end) for e in doc.gold_events]
    spans = []
    for word in vocabulary:
        for idx in occurrences(doc.text, word):
            end = idx + len(word)
            if not any(idx < te and ts < end for ts, te in trigger_ranges):
                spans.append(Span(word, idx, end))
    spans.sort(key=lambda s: (s.start, s.end))
    return spans


def _sample_events(
    corpus: list[Document], profile: OracleProfile, rng: random.Random
) -> tuple[dict[str, list[EventMention]], list[tuple[str, EventMention]]]:
    """(kept gold events per doc, corpus-wide injected distractor events)."""
    kept: dict[str, list[EventMention]] = {}
    total_kept = 0
    for doc in corpus:
        kept[doc.doc_id] = [
            e for e in doc.require_gold() if rng.random() < profile.target_recall
        ]
        total_kept += len(kept[doc.doc_id])

    injected: list[tuple[str, EventMention]] = []
    p = profile.target_precision
    if p < 1.0 and total_kept:
        n_inject = round(total_kept * (1.0 - p) / p)
        pool = [
            (doc.doc_id, span)
            for doc in corpus
            for span in _distractor_spans(doc, profile.hallucination_vocabulary)
        ]
        types = sorted({e.event_type for doc in corpus for e in doc.gold_events})
        for doc_id, span in rng.sample(pool, min(n_inject, len(pool))):
            injected.append((doc_id, EventMention(span, rng.choice(types))))
    return kept, injected


def synthesize_tagger_predictions(
    corpus: list[Document], profile: OracleProfile
) -> dict[str, list[TaggerPrediction]]:
    """Simulated tagger output: kept gold gets high confidence, noise low."""
    rng = random.Random(f"tagger:{profile.seed}")
    kept, injected = _sample_events(corpus, profile, rng)

    out: dict[str, list[TaggerPrediction]] = {doc.doc_id: [] for doc in corpus}
    for doc in corpus:
        for event in kept[doc.doc_id]:
            out[doc.doc_id].append(
                TaggerPrediction(
                    event=event,
                    trigger_confidence=rng.uniform(*profile.correct_confidence),
                    argument_confidences=tuple(
                        rng.uniform(*profile.correct_confidence)
                        for _ in event.arguments
                    ),
                )
            )
    for doc_id, event in injected:
        out[doc_id].append(
            TaggerPrediction(
                event=event,
                trigger_confidence=rng.uniform(*profile.incorrect_confidence),
            )
        )
    for preds in out.values():
        preds.sort(key=lambda pr: (pr.event.trigger.start, pr.event.trigger.end))
    return out


def synthesize_agent_predictions(
    corpus: list[Document], profile: OracleProfile, n_agents: int
) -> dict[str, tuple[list[EventMention], VoteLedger]]:
    """Simulated ensemble output: n per-agent draws with independent noise.

    Returns, per document, the cleaned deduplicated union and the vote
    ledger, mirroring the live orchestration contract.
    """
    if n_agents < 1:
        raise ConfigurationError("agent count must be >= 1")
    per_doc_events: dict[str, list[list[EventMention]]] = {
        doc.doc_id: [[] for _ in range(n_agents)] for doc in corpus
    }
    for agent in range(1, n_agents + 1):
        rng = random.Random(f"agent:{profile.seed}:{agent}")
        kept, injected = _sample_events(corpus, profile, rng)
        for doc in corpus:
            per_doc_events[doc.doc_id][agent - 1].extend(kept[doc.doc_id])
        for doc_id, event in injected:
            per_doc_events[doc_id][agent - 1].append(event)

    out: dict[str, tuple[list[EventMention], VoteLedger]] = {}
    for doc in corpus:
        union, ledger = fold_votes(enumerate(per_doc_events[doc.doc_id], start=1))
        out[doc.doc_id] = (cleanup_predictions(union, doc), ledger)
    return out


def default_scenario() -> dict:
    """The fixed seeded complementarity scenario."""
    return {
        "n_docs": 60,
        "corpus_seed": 7,
        "n_agents": 10,
        "overlap_threshold": 0.5,
        "tagger": {"target_precision": 0.9, "target_recall": 0.6, "seed": 11},
        "agents": {"target_precision": 0.5, "target_recall": 0.9, "seed": 13},
        "thresholds": {
            "trigger": {"theta_s": 0.7, "theta_smoa_hi": 0.9, "theta_smoa_lo": 0.35},
            "argument": {"theta_s": 0.7, "theta_smoa_hi": 0.9, "theta_smoa_lo": 0.35},
        },
    }


def load_scenario(path: str | Path) -> dict:
    """The default scenario with the top-level keys a JSON object file sets
    replaced; every key must be one of the default's, each value must have
    its default's type (any number for a float), the counts must be at
    least 1, the overlap threshold in (0, 1], and the profiles and
    thresholds must build, else ConfigurationError."""

    def decode(data: dict) -> dict:
        scenario = {**default_scenario(), **data}
        unknown = set(data) - set(default_scenario())
        if unknown:
            raise ConfigurationError(f"unknown keys: {sorted(unknown)}")
        for key, default in default_scenario().items():
            value = scenario[key]
            kinds = (int, float) if isinstance(default, float) else type(default)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{key!r} must be a {type(default).__name__}, got {short_repr(value)}")
        for key in ("n_docs", "n_agents"):
            if scenario[key] < 1:
                raise ConfigurationError(f"{key!r} must be at least 1, got {scenario[key]}")
        overlap = scenario["overlap_threshold"]
        if not overlap_in_range(overlap):
            raise ConfigurationError(f"'overlap_threshold' must be in (0, 1], got {overlap}")
        OracleProfile(**scenario["tagger"])
        OracleProfile(**scenario["agents"])
        ThresholdSet.from_dict(scenario["thresholds"])
        return scenario

    return read_json_document(path, decode)


def run_scenario(scenario: dict) -> dict:
    """Run the complementarity experiment: each source alone vs combined.

    Returns per-source metrics plus the combined pipeline's (using gold-
    oracle reflection), so the complementarity claim - the combined F1
    exceeds both standalone F1s - is directly checkable from the report.
    """
    from .metrics import gold_from_corpus, score_predictions
    from .pipeline import extract_document, oracle_reflector

    corpus = make_synthetic_corpus(scenario["n_docs"], seed=scenario["corpus_seed"])
    tagger_profile = OracleProfile(**scenario["tagger"])
    agent_profile = OracleProfile(**scenario["agents"])
    n_agents = scenario["n_agents"]

    tagger_preds = synthesize_tagger_predictions(corpus, tagger_profile)
    agent_preds = synthesize_agent_predictions(corpus, agent_profile, n_agents)
    thresholds = ThresholdSet.from_dict(scenario["thresholds"])

    gold = gold_from_corpus(corpus)
    tagger_only = {
        doc_id: [p.event for p in preds] for doc_id, preds in tagger_preds.items()
    }
    smoa_only = {doc_id: events for doc_id, (events, _) in agent_preds.items()}

    combined = {}
    for doc in corpus:
        events, ledger = agent_preds[doc.doc_id]
        result = extract_document(
            doc,
            tagger_preds[doc.doc_id],
            events,
            ledger,
            n_agents,
            thresholds,
            scenario["overlap_threshold"],
            oracle_reflector,
        )
        combined[doc.doc_id] = result.final_events

    report = {"scenario": scenario}
    for name, preds in (("tagger", tagger_only), ("smoa", smoa_only), ("pipeline", combined)):
        report[name] = score_predictions(preds, gold).as_dict()
    report["trigger_cls_f1"] = {
        name: report[name]["trigger_cls"]["f1"] for name in ("tagger", "smoa", "pipeline")
    }
    return report
