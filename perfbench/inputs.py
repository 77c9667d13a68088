"""Seeded benchmark inputs: corpus, tagger file, per-agent draws, gold answers.

Everything the program reads is made here from the workload seed, with the
benchmark's own vocabulary and noise model, so that edits to the program's
simulator or answer codec cannot change the benchmark's inputs. Replies use
the documented wire format: agent replies carry one fenced
``Events = [...]`` block, trigger verdicts a fenced ``ClassificationMap``,
argument verdicts a fenced JSON list of ``{text, role, is_correct}``.

Noise model. Each document has one "ensemble version" of every gold event
(gold arguments, sometimes one dropped and sometimes one extra wrong
argument) and a pool of distractor events on filler words. Every agent draw
independently includes each gold version (recall) and each distractor (its
own inclusion rate), so vote counts spread over the whole confidence range.
A trigger has one argument set across agents: the replay fixture holds one
reply per (document, channel) and the argument channel is keyed by the
trigger id, so two argument sets under one trigger would need two replies
on one channel.
"""

from __future__ import annotations

import json
import random
import re

TRIGGER_WORDS = {
    "Conflict:Attack": ("raid", "ambush", "bombard", "assault", "skirmish"),
    "Movement:Transport": ("convoy", "airlift", "shipment", "relocation", "evacuation"),
    "Life:Die": ("perished", "drowned", "succumbed", "fatalities", "died"),
    "Justice:Arrest": ("detained", "arrested", "apprehended", "captured", "jailed"),
    "Contact:Meet": ("summit", "talks", "negotiation", "conference", "gathering"),
    "Transaction:Transfer": ("donation", "payment", "purchase", "grant", "loan"),
    "Personnel:Elect": ("elected", "voted", "appointed", "nominated", "chosen"),
    "Life:Injure": ("wounded", "injured", "hurt", "maimed", "bruised"),
}
EVENT_TYPES = tuple(sorted(TRIGGER_WORDS))
ALL_TRIGGERS = tuple((t, w) for t in EVENT_TYPES for w in TRIGGER_WORDS[t])
ACTORS = (
    "officials", "soldiers", "villagers", "investigators", "ministers",
    "protesters", "rebels", "officers", "residents", "diplomats", "farmers",
    "pilots", "doctors", "students", "merchants", "journalists", "engineers",
    "sailors", "clerks", "judges", "monks", "nurses", "miners", "guards",
)
FILLERS = (
    "report", "statement", "memo", "hearing", "briefing", "seminar",
    "account", "summary", "notice", "update", "review", "plan", "record",
    "bulletin", "dispatch", "letter", "remark", "comment", "digest", "ledger",
    "roster", "agenda", "survey", "inquiry", "tally", "census", "ruling",
    "verdict", "motion", "petition",
)
SYLLABLES = ("kar", "bel", "ost", "qui", "tam", "vel", "ing", "dov", "mur", "sel", "pan", "rov")
WRONG_ROLE = "Target"
DOC_MARKER = re.compile(r"\[(d\d{5})\]")

# Per-workload shapes. "events" is the per-document event-count cycle.
EXTRACT_SHAPE = {
    "events": (1, 1, 2, 2, 3, 3, 4, 5, 6, 8, 10, 12),
    "distinct_surfaces": True,
    "tagger": {"precision": 0.9, "recall": 0.6},
    "agents": {"precision": 0.5, "recall": 0.9},
}
TUNE_SHAPE = {  # the tuner acceptance fixture's shape
    "events": (1, 2),
    "distinct_surfaces": True,
    "tagger": {"precision": 0.85, "recall": 0.65},
    "agents": {"precision": 0.6, "recall": 0.9},
}
DECOMP_SHAPE = {  # the curriculum acceptance fixture's shape: 1-3 events, repeats allowed
    "events": (1, 2, 3),
    "distinct_surfaces": False,
}
N_AGENTS = 10


def _count(text: str, needle: str) -> int:
    count, start = 0, 0
    while (idx := text.find(needle, start)) >= 0:
        count += 1
        start = idx + 1
    return count


def _place(rng: random.Random) -> str:
    return "".join(rng.sample(SYLLABLES, 2)).capitalize()


def make_document(seed: int, index: int, shape: dict) -> dict:
    """One annotated document (corpus JSONL record) plus its filler spans.

    Built word by word with offset tracking. With ``distinct_surfaces``
    every trigger, argument and filler word occurs exactly once in the
    text, so grounding a surface string is unambiguous.
    """
    rng = random.Random(f"{seed}:doc:{index}")
    doc_id = f"d{index:05d}"
    # Lengths cycle through the mix, so every seed has the same length profile.
    n_events = shape["events"][index % len(shape["events"])]
    distinct = shape["distinct_surfaces"]
    while True:
        words: list[str] = []
        spans: list[dict] = []

        def emit(word: str) -> dict:
            start = sum(len(w) + 1 for w in words)
            words.append(word)
            return {"text": word, "start": start, "end": start + len(word)}

        pick = (lambda pool, k: rng.sample(pool, k)) if distinct else (
            lambda pool, k: [rng.choice(pool) for _ in range(k)])
        typed = pick(ALL_TRIGGERS, n_events)
        types = [t for t, _ in typed]
        triggers = [w for _, w in typed]
        actors = pick(ACTORS, n_events)
        fillers = pick(FILLERS, 2 * n_events)
        places = [_place(rng) for _ in range(n_events)]
        emit(f"[{doc_id}]")
        events = []
        for i in range(n_events):
            spans.append(emit(fillers[2 * i]))
            agent = emit(actors[i])
            trig = emit(triggers[i])
            emit("near")
            place = emit(places[i])
            spans.append(emit(fillers[2 * i + 1]))
            args = [dict(agent, role="Agent")]
            if rng.random() < 0.7:
                args.append(dict(place, role="Place"))
            events.append({"trigger": trig, "type": types[i], "arguments": args})
        text = " ".join(words)
        surfaces = [e["trigger"]["text"] for e in events]
        surfaces += [a["text"] for e in events for a in e["arguments"]]
        surfaces += [s["text"] for s in spans]
        if not distinct or all(_count(text, s) == 1 for s in surfaces):
            return {"doc_id": doc_id, "text": text, "events": events, "fillers": spans}


def _payload(event: dict) -> dict:
    return {
        "trigger": event["trigger"]["text"],
        "type": event["type"],
        "arguments": [{"text": a["text"], "role": a["role"]} for a in event["arguments"]],
    }


def tagger_record(seed: int, doc: dict, profile: dict) -> dict:
    """Tagger predictions for one document: kept gold gets high confidence,
    wrong arguments and distractor events low confidence."""
    rng = random.Random(f"{seed}:tagger:{doc['doc_id']}")
    actors = [a for e in doc["events"] for a in e["arguments"] if a["role"] == "Agent"]
    fillers = list(doc["fillers"])
    spurious_rate = (1 - profile["precision"]) / profile["precision"]
    events = []
    for gold in doc["events"]:
        if rng.random() >= profile["recall"]:
            continue
        args = [
            dict(a, confidence=round(rng.uniform(0.7, 1.0), 4))
            for a in gold["arguments"] if rng.random() < 0.85
        ]
        wrong = [a for a in actors if a["start"] != gold["arguments"][0]["start"]]
        if wrong and rng.random() < 0.15:
            arg = rng.choice(wrong)
            args.append({"text": arg["text"], "start": arg["start"], "end": arg["end"],
                         "role": WRONG_ROLE, "confidence": round(rng.uniform(0.05, 0.5), 4)})
        events.append({"trigger": gold["trigger"], "type": gold["type"],
                       "trigger_confidence": round(rng.uniform(0.75, 1.0), 4),
                       "arguments": args})
        if fillers and rng.random() < spurious_rate:
            span = fillers.pop(rng.randrange(len(fillers)))
            events.append({"trigger": span, "type": rng.choice(EVENT_TYPES),
                           "trigger_confidence": round(rng.uniform(0.05, 0.5), 4),
                           "arguments": []})
    events.sort(key=lambda e: e["trigger"]["start"])
    return {"doc_id": doc["doc_id"], "events": events}


def agent_draws(seed: int, doc: dict, profile: dict, n_agents: int = N_AGENTS) -> list[list[dict]]:
    """Per-agent answer payloads for one document (see the module docstring)."""
    rng = random.Random(f"{seed}:agents:{doc['doc_id']}")
    actors = [a["text"] for e in doc["events"] for a in e["arguments"] if a["role"] == "Agent"]
    versions = []
    for gold in doc["events"]:
        payload = _payload(gold)
        if len(payload["arguments"]) > 1 and rng.random() < 0.2:
            payload["arguments"].pop()
        own = payload["arguments"][0]["text"]
        wrong = [a for a in actors if a != own]
        if wrong and rng.random() < 0.3:
            payload["arguments"].append({"text": rng.choice(wrong), "role": WRONG_ROLE})
        versions.append((payload, rng.uniform(2 * profile["recall"] - 1, 1.0)))
    # Distractors on filler words; their mean inclusion rate sets precision.
    mean_rate = profile["recall"] * (1 - profile["precision"]) / profile["precision"] / 2
    for span in doc["fillers"]:
        args = [{"text": rng.choice(actors), "role": "Agent"}] if rng.random() < 0.5 else []
        payload = {"trigger": span["text"], "type": rng.choice(EVENT_TYPES), "arguments": args}
        versions.append((payload, rng.uniform(0.05, 2 * mean_rate - 0.05)))
    draws = []
    for _ in range(n_agents):
        chosen = [p for p, rate in versions if rng.random() < rate]
        rng.shuffle(chosen)
        draws.append(chosen)
    return draws


def render_events(payload: list[dict]) -> str:
    return "Extracted events:\n```Events = " + json.dumps(payload, ensure_ascii=False) + "```"


class Answerer:
    """Gold-derived replies for every prompt the pipeline sends.

    Agent prompts get the document's per-agent draws; trigger verification
    answers Trigger iff some gold trigger has the phrase as its surface;
    argument verification marks (text, role) correct iff it belongs to a
    gold event with the queried trigger surface and type. Prompts are
    recognised from their text alone, as a live endpoint would have to.
    """

    _TRIGGERS = re.compile(r"\nCandidates:\n(\[.*?\])\n\nQ: For each candidate", re.S)
    _ARGUMENTS = re.compile(
        r'\nTrigger:\n"(.*?)" \(type: "(.*?)"\)\n\nCandidate Arguments to verify:\n(\[.*?\])\n\nQ:',
        re.S,
    )

    def __init__(self, docs: list[dict], draws: dict[str, list[list[dict]]]):
        self.draws = draws
        self.trigger_surfaces = {d["doc_id"]: {e["trigger"]["text"] for e in d["events"]} for d in docs}
        self.valid_args = {}
        for d in docs:
            valid: dict[tuple[str, str], set] = {}
            for e in d["events"]:
                valid.setdefault((e["trigger"]["text"], e["type"]), set()).update(
                    (a["text"], a["role"]) for a in e["arguments"])
            self.valid_args[d["doc_id"]] = valid
        self._arrivals: dict[str, int] = {}

    def answer(self, prompt: str, agent_index: int | None = None) -> str:
        """The reply to one prompt.

        Agent prompts without an index take the document's draws in arrival
        order; vote counts do not depend on which agent got which draw.
        """
        match = DOC_MARKER.search(prompt)
        if match is None:
            raise ValueError("prompt names no benchmark document")
        doc_id = match.group(1)
        args = self._ARGUMENTS.search(prompt)
        if args is not None:
            valid = self.valid_args[doc_id].get((args.group(1), args.group(2)), set())
            verdicts = [
                {"text": c["text"], "role": c["role"], "is_correct": (c["text"], c["role"]) in valid}
                for c in json.loads(args.group(3))
            ]
            return "```\n" + json.dumps(verdicts, ensure_ascii=False) + "\n```"
        trig = self._TRIGGERS.search(prompt)
        if trig is not None:
            surfaces = self.trigger_surfaces[doc_id]
            verdicts = {p: "Trigger" if p in surfaces else "Non-Trigger" for p in json.loads(trig.group(1))}
            return "```ClassificationMap = " + json.dumps(verdicts, ensure_ascii=False) + "```"
        draws = self.draws[doc_id]
        if agent_index is None:
            agent_index = self._arrivals.get(doc_id, 0)
            self._arrivals[doc_id] = agent_index + 1
        return render_events(draws[agent_index % len(draws)])


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def make_inputs(seed: int, n_docs: int, shape: dict, workdir) -> dict:
    """Generate and write one workload's inputs under ``workdir``.

    Returns the generated records and file paths; the program reads only
    the files and, through a backend, the Answerer's replies.
    """
    docs = [make_document(seed, i, shape) for i in range(n_docs)]
    corpus = workdir / "corpus.jsonl"
    write_jsonl(corpus, ({k: d[k] for k in ("doc_id", "text", "events")} for d in docs))
    out = {"docs": docs, "corpus": corpus}
    if "tagger" in shape:
        out["tagger"] = workdir / "tagger.jsonl"
        write_jsonl(out["tagger"], (tagger_record(seed, d, shape["tagger"]) for d in docs))
        out["draws"] = {d["doc_id"]: agent_draws(seed, d, shape["agents"]) for d in docs}
    return out
