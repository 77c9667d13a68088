"""Decomposed instruction dataset generation.

Thirteen task variants isolate the stages of event extraction - from
trigger detection through role assignment up to full structure
construction - so a model can be fine-tuned on the complete reasoning
chain. Every prompt follows the same six-part canon (role, task, rules,
strict output format, fenced example, query) and every answer is a fenced
block under a single top-level key, so answers round-trip through
``parse_record_answer``.

Each variant is defined once, by its entry in the ``_SPECS`` table: the
answer key, the canon fields, builders for the context blocks, question,
answer and provenance, the kind of target it focuses on, and the targets
``generate_dataset`` emits for a document. ``render_instruction`` checks
the target against its kind and renders the spec; ``ANSWER_KEYS`` and
``WHOLE_DOCUMENT_VARIANTS`` are read off the table.

A record holds what renders it, not what it renders: its variant, the
corpus's own document, that document's ordered gold and its target. Its
query, answer, provenance and prompt are rendered from the variant's spec
on every read, so a dataset costs a few small objects per record until it
is written. Each variant's canon header (role through example) is rendered
once, at import, and held once, by its spec; a record's ``prompt`` joins
the header and the query, as ``extraction_prompt`` does.
``generate_dataset`` orders a document's gold once and shares that tuple
among all of the document's records; ``render_instruction`` builds the same
record after its target check. Each spec also holds its variant's JSON line
prefix, up to the record's query, encoded once at import: ``write_dataset``
writes that prefix and encodes only the rest of each record, so no header
is JSON-escaped per record.

Negative candidates for trigger discrimination are n-grams that occur
exactly once in the passage, neither contain nor sit inside any gold
trigger's text, overlap no gold trigger's span, sit within a three-token
window of a trigger, and pass a part-of-speech gate (verb / noun /
determiner, judged by ``default_pos_gate``'s lexicon and suffix
heuristic). At most three negatives per document. One pass over the
passage gates each token once and tests each n-gram's window distance
before the passage is scanned for its occurrences. The seeded draw runs
only when there are more than k candidates, and only picked ones become spans.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .errors import ContractError
from .fencing import compact_json, events_to_payload, parse_answer, render_answer
from .ingest import open_atomic
from .model import Document, EventMention, Span, occurrences

__all__ = [
    "TaskVariant",
    "InstructionRecord",
    "WHOLE_DOCUMENT_VARIANTS",
    "extraction_prompt",
    "render_instruction",
    "sample_negative_ngrams",
    "generate_dataset",
    "write_dataset",
    "parse_record_answer",
    "default_pos_gate",
]


class TaskVariant(Enum):
    FULL_STRUCTURE = "full_structure_construction"
    ROLE_ABLATED = "role_ablated_construction"
    TRIGGER_DETECTION = "trigger_detection_only"
    TRIGGER_TYPE_SINGLE = "trigger_type_classification_single"
    TRIGGER_TYPE_MULTI = "trigger_type_classification_multi"
    TRIGGER_DISCRIMINATION_SINGLE = "trigger_discrimination_single"
    TRIGGER_DISCRIMINATION_MULTI = "trigger_discrimination_multi"
    EVENT_DETECTION_JOINT = "event_detection_joint"
    ARG_EXTRACTION_SINGLE = "argument_extraction_single"
    ARG_EXTRACTION_MULTI = "argument_extraction_multi"
    ARG_EXTRACTION_JOINT = "argument_extraction_joint"
    ROLE_ASSIGNMENT_SINGLE = "role_assignment_single"
    ROLE_ASSIGNMENT_MULTI = "role_assignment_multi"


MASK_TOKEN = "<masked>"


@dataclass(frozen=True, slots=True)
class InstructionRecord:
    """One prompt/answer pair of the curriculum, held as what renders it.

    A record holds its variant, the corpus's own document, that document's
    gold in answer order (one tuple shared by all of the document's records)
    and its target. ``doc_id``, ``query``, ``answer``, ``provenance`` and
    ``prompt`` are rendered from the variant's spec on every read; no
    rendered string is held.
    """

    variant: TaskVariant
    doc: Document = field(repr=False)
    events: tuple[EventMention, ...] = field(repr=False)
    target: Any

    @property
    def doc_id(self) -> str:
        return self.doc.doc_id

    @property
    def query(self) -> str:
        """The prompt after its header: the quoted passage, the context blocks and the question."""
        return self._parts()[1]

    @property
    def answer(self) -> str:
        return self._parts()[2]

    @property
    def provenance(self) -> dict:
        return self._parts()[3]

    @property
    def prompt(self) -> str:
        spec, query, _, _ = self._parts()
        return spec.prompt(query)

    def to_record(self) -> dict:
        spec, query, answer, provenance = self._parts()
        return {
            "variant": self.variant.value,
            "prompt": spec.prompt(query),
            "answer": answer,
            "doc_id": self.doc.doc_id,
            "provenance": provenance,
        }

    def _parts(self) -> tuple[_Spec, str, str, dict]:
        """The variant's spec and the record's query, answer and provenance,
        rendered from one lookup of the spec."""
        spec = _SPECS[self.variant]
        events, target = self.events, self.target
        return (
            spec,
            _render_query(spec, self.doc, events, target),
            render_answer(spec.key, spec.answer(events, target)),
            spec.provenance(events, target),
        )


def parse_record_answer(record: InstructionRecord):
    """Parse a record's fenced answer back to its payload (round-trip)."""
    return parse_answer(record.answer, ANSWER_KEYS[record.variant])


# --- prompt canon ---------------------------------------------------------

def _canon_header(spec: _Spec) -> str:
    """The prompt up to the passage: role, task, rules, output format and
    example, the same for every record of a variant."""
    lines = [spec.role, spec.task, "", "Generation Rules:"]
    lines += [f"{i}. {rule}" for i, rule in enumerate(spec.rules, start=1)]
    lines += [
        "",
        "Output Format (strict):",
        "- Wrap the answer in triple backticks (```).",
        f"- Write: {spec.write_hint}",
        "",
        "Example:",
        "```",
        spec.example,
        "```",
        "",
        "Passage:",
    ]
    return "\n".join(lines)


def _render_query(spec: _Spec, doc: Document, events: tuple[EventMention, ...], target) -> str:
    lines = [f'"{doc.text}"']
    for block in spec.context(events, target):
        lines += ["", block]
    lines += ["", f"Q: {spec.question(events, target)}"]
    return "\n".join(lines)


def _ordered_gold(doc: Document) -> tuple[EventMention, ...]:
    return tuple(sorted(
        doc.require_gold(),
        key=lambda e: (e.trigger.start, e.trigger.end, e.event_type),
    ))


def extraction_prompt(doc: Document) -> str:
    """The full-structure prompt sent to extraction agents (no gold needed)."""
    spec = _SPECS[TaskVariant.FULL_STRUCTURE]
    return spec.prompt(_render_query(spec, doc, (), None))


# --- negative sampling ----------------------------------------------------

_DETERMINERS = frozenset(
    "the a an this that these those his her its their our my your some any "
    "each every no all both another".split()
)
_CLOSED_CLASS_REJECT = frozenset(
    "of in on at by with from to for as into over under between during "
    "after before and or but nor so yet if while because although when "
    "where he she it they we you i who whom which what there here not".split()
)


def default_pos_gate(token: str) -> bool:
    """Heuristic verb/noun/determiner gate for negative candidates.

    Determiners come from a closed lexicon; prepositions, conjunctions,
    pronouns, and -ly adverbs are rejected; remaining alphabetic tokens
    count as noun/verb material.
    """
    lower = token.lower()
    if lower in _DETERMINERS:
        return True
    if lower in _CLOSED_CLASS_REJECT:
        return False
    if not token.isalpha():
        return False
    if lower.endswith("ly") and len(lower) > 3:
        return False
    return True


def _strip_token(token: str, start: int) -> tuple[str, int, int] | None:
    stripped = token.strip(string.punctuation)
    if not stripped:
        return None
    offset = token.find(stripped)
    return (stripped, start + offset, start + offset + len(stripped))


def sample_negative_ngrams(
    doc: Document,
    gold_triggers: list[Span],
    k: int = 3,
    seed: int = 0,
) -> list[Span]:
    """Up to k hard-negative n-grams near the gold triggers.

    Every returned span occurs exactly once in the passage; for every gold
    trigger, neither its text nor the span's contains the other and the
    two spans do not overlap; it lies within a three-token window of some
    trigger; and every token passes the part-of-speech gate. Deterministic
    for a fixed seed; returns fewer than k when the candidate pool is
    smaller.
    """
    if k > 3:
        raise ContractError("at most three negatives per document")
    if k < 1 or not gold_triggers:
        return []

    raw_tokens = [(m.group(), m.start(), m.end()) for m in re.finditer(r"\S+", doc.text)]
    trigger_token_idx = [
        ti for ti, (_, tstart, tend) in enumerate(raw_tokens)
        if any(tstart < trig.end and trig.start < tend for trig in gold_triggers)
    ]
    if not trigger_token_idx:
        return []
    # token distance from each raw token to the nearest trigger token; a
    # window's distance is the least over its tokens (0 = overlapping)
    near = [min(abs(t - i) for t in trigger_token_idx) for i in range(len(raw_tokens))]

    # (raw index, start, end, bare, gated): bare tokens carry no punctuation
    # to strip, gated ones pass the part-of-speech gate
    stripped = []
    for idx, (tok, tstart, _) in enumerate(raw_tokens):
        cleaned = _strip_token(tok, tstart)
        if cleaned is not None:
            text, start, end = cleaned
            stripped.append((idx, start, end, text == tok, default_pos_gate(text)))

    # (start, end, text), in (start, end) order: windows grow rightwards
    # from each token in turn
    candidates: list[tuple[int, int, str]] = []
    for pos, (idx, start, _, bare, _) in enumerate(stripped):
        gap = len(raw_tokens)
        for offset, (last_idx, _, end, last_bare, gated) in enumerate(stripped[pos:pos + 3]):
            # a window failing any test that breaks fails it in every longer window
            if last_idx != idx + offset:
                break  # tokens must be adjacent in the raw text
            if offset and not (bare and last_bare):
                break  # multi-token candidates use punctuation-free tokens only
            if not gated:
                break
            gap = min(gap, near[last_idx])
            if gap == 0:
                break  # the window holds a trigger token
            if gap > 3:
                continue
            cand_text = doc.text[start:end]
            if any(
                cand_text in trig.text or trig.text in cand_text
                or (start < trig.end and trig.start < end)
                for trig in gold_triggers
            ):
                continue
            if len(occurrences(doc.text, cand_text)) == 1:
                candidates.append((start, end, cand_text))

    if len(candidates) > k:
        candidates = random.Random(f"{seed}:{doc.doc_id}:negatives").sample(candidates, k)
    return [Span(text, start, end) for start, end, text in sorted(candidates)]


# --- variant table --------------------------------------------------------

def _is_index(value, items) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < len(items)


class _Target(Enum):
    """The kind of ``target`` a variant renders around."""

    NONE = "no target"
    TRIGGER = "a trigger index"
    ARGUED_TRIGGER = "the index of a trigger with arguments"
    PAIR = "a (trigger, argument) index pair"
    CANDIDATE = "a (span, is_trigger) pair with a span of the passage"
    NEGATIVES = "a list of spans of the passage"

    def accepts(self, doc: Document, events: tuple[EventMention, ...], target) -> bool:
        if self is _Target.NONE:
            return target is None
        if self is _Target.TRIGGER:
            return _is_index(target, events)
        if self is _Target.ARGUED_TRIGGER:
            return _is_index(target, events) and bool(events[target].arguments)
        if self is _Target.PAIR:
            return (
                isinstance(target, tuple) and len(target) == 2
                and _is_index(target[0], events)
                and _is_index(target[1], events[target[0]].arguments)
            )
        if self is _Target.CANDIDATE:
            return (
                isinstance(target, tuple) and len(target) == 2
                and isinstance(target[0], Span) and isinstance(target[1], bool)
                and doc.contains(target[0])
            )
        return isinstance(target, list) and all(
            isinstance(span, Span) and doc.contains(span) for span in target
        )  # NEGATIVES


def _each_trigger(doc, events, negatives, seed) -> list:
    return list(range(len(events)))


def _each_argument(doc, events, negatives, seed) -> list:
    return [(ti, ai) for ti, e in enumerate(events) for ai in range(len(e.arguments))]


def _one_masked_argument(doc, events, negatives, seed) -> list:
    """One uniformly chosen (trigger, argument) pair, if the document has any."""
    pairs = _each_argument(doc, events, negatives, seed)
    return [random.Random(f"{seed}:{doc.doc_id}:ablate").choice(pairs)] if pairs else []


def _trigger_provenance(events, ti) -> dict:
    return {"trigger_index": ti}


def _typed_triggers_context(events, target) -> list[str]:
    return ["Triggers:\n" + compact_json([[e.trigger.text, e.event_type] for e in events])]


def _masked_context(events, pair) -> list[str]:
    payload = events_to_payload(events)
    ti, ai = pair
    payload[ti]["arguments"][ai]["role"] = MASK_TOKEN
    return ["Partial events:\n" + compact_json(payload)]


def _candidate_labels(events, negatives) -> dict[str, str]:
    """Triggers and negatives in passage order; a repeated phrase keeps its first label."""
    candidates = [(e.trigger, "Trigger") for e in events] + [(s, "Non-Trigger") for s in negatives]
    candidates.sort(key=lambda item: (item[0].start, item[0].end))
    labelled: dict[str, str] = {}
    for span, label in candidates:
        labelled.setdefault(span.text, label)
    return labelled


def _role_question(events, pair) -> str:
    event = events[pair[0]]
    return (
        f'What is the role of the argument "{event.arguments[pair[1]].span.text}" for the trigger '
        f'"{event.trigger.text}" (event type: "{event.event_type}")?'
    )


def _role_multi_context(events, ti) -> list[str]:
    event = events[ti]
    return [
        f'Trigger:\n"{event.trigger.text}" (type: "{event.event_type}")',
        "Candidate Arguments:\n" + compact_json([a.span.text for a in event.arguments]),
    ]


_Builder = Callable[[tuple[EventMention, ...], Any], Any]
_Enumerator = Callable[[Document, tuple[EventMention, ...], list[Span], int], list]


@dataclass(frozen=True)
class _Spec:
    """Everything that defines one task variant.

    Builders take the ordered gold events and the checked target; ``targets``
    lists what ``generate_dataset`` renders from (doc, events, negatives, seed).
    ``generate_dataset`` samples the negatives only when a chosen spec's
    target kind is a candidate span or a negative list; the others are
    handed an empty list.
    """

    key: str
    role: str
    task: str
    rules: tuple[str, ...]
    write_hint: str
    example: str
    question: _Builder
    answer: _Builder
    target: _Target = _Target.NONE
    targets: _Enumerator = lambda doc, events, negatives, seed: [None]
    context: _Builder = lambda events, target: []
    provenance: _Builder = lambda events, target: {}
    header: str = field(init=False)  # the canon up to the passage, rendered from the fields above
    # a JSON line of this variant up to the record's query, set below the table
    line_prefix: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "header", _canon_header(self))

    def prompt(self, query: str) -> str:
        """The whole prompt of a record of this variant with ``query``."""
        return self.header + "\n" + query


# Shared by full-structure (so by ``extraction_prompt``) and role-ablated construction.
_EVENTS_HINT = 'Events = [{"trigger": "t", "type": "T", "arguments": [{"text": "a", "role": "R"}]}, ...].'
_EVENTS_EXAMPLE = 'Events = [{"trigger": "therapy", "type": "Treatment", "arguments": [{"text": "insulin", "role": "Instrument"}]}]'

_SPECS: dict[TaskVariant, _Spec] = {
    TaskVariant.FULL_STRUCTURE: _Spec(
        key="Events",
        role="You are an event extractor.",
        task="Extract every event in the passage: each trigger, its event type, and its arguments with roles.",
        rules=(
            "List events in the exact order their triggers appear in the passage.",
            "Copy trigger and argument texts verbatim from the passage.",
            "Only include events that the passage supports.",
        ),
        write_hint=_EVENTS_HINT,
        example=_EVENTS_EXAMPLE,
        question=lambda events, _: "What are the events in the passage?",
        answer=lambda events, _: events_to_payload(events),
    ),
    TaskVariant.ROLE_ABLATED: _Spec(
        key="Events",
        role="You are an event extractor.",
        task=f'Complete the event structure below: one argument role is masked as "{MASK_TOKEN}".',
        rules=(
            "Rewrite the complete event list with every argument role filled in.",
            "Keep all triggers, types, and argument texts exactly as given.",
        ),
        write_hint=_EVENTS_HINT,
        example=_EVENTS_EXAMPLE,
        context=_masked_context,
        question=lambda events, _: "What is the complete event list with the masked role restored?",
        answer=lambda events, _: events_to_payload(events),
        provenance=lambda events, pair: {"masked_trigger": pair[0], "masked_argument": pair[1]},
        target=_Target.PAIR,
        targets=_one_masked_argument,
    ),
    TaskVariant.TRIGGER_DETECTION: _Spec(
        key="Triggers",
        role="You are an event trigger detector.",
        task="List every event trigger phrase in the passage.",
        rules=(
            "List triggers in the exact order they appear in the passage.",
            "Copy each trigger text verbatim; do not include event types.",
        ),
        write_hint='Triggers = ["t1", "t2", ...].',
        example='Triggers = ["therapy", "diagnosed"]',
        question=lambda events, _: "What are the event triggers in the passage?",
        answer=lambda events, _: [e.trigger.text for e in events],
    ),
    TaskVariant.TRIGGER_TYPE_SINGLE: _Spec(
        key="EventType",
        role="You are an event type classifier.",
        task="Assign the correct event type to the trigger shown below.",
        rules=(
            "Answer with exactly one event type label.",
            "Use the passage context to decide.",
        ),
        write_hint='EventType = "Type".',
        example='EventType = "Treatment"',
        question=lambda events, ti: f'What is the event type of the trigger "{events[ti].trigger.text}"?',
        answer=lambda events, ti: events[ti].event_type,
        provenance=_trigger_provenance,
        target=_Target.TRIGGER,
        targets=_each_trigger,
    ),
    TaskVariant.TRIGGER_TYPE_MULTI: _Spec(
        key="TriggerTypes",
        role="You are an event type classifier.",
        task="Assign an event type to each listed trigger.",
        rules=(
            "Assign one event type per listed trigger, in the given order.",
            "Output only the type labels.",
        ),
        write_hint='TriggerTypes = ["Type1", "Type2", ...].',
        example='TriggerTypes = ["Treatment", "Diagnosis"]',
        context=lambda events, _: ["Triggers:\n" + compact_json([e.trigger.text for e in events])],
        question=lambda events, _: "What are the event types of the listed triggers, in order?",
        answer=lambda events, _: [e.event_type for e in events],
    ),
    TaskVariant.TRIGGER_DISCRIMINATION_SINGLE: _Spec(
        key="Classification",
        role="You are an event trigger discriminator.",
        task="Decide whether the candidate phrase below works as an event trigger in the passage.",
        rules=(
            "Classify the phrase as either 'Trigger' or 'Non-Trigger'.",
            "Output strictly in the required format-no extra text.",
        ),
        write_hint='Classification = "Trigger" or Classification = "Non-Trigger".',
        example='Classification = "Trigger"',
        question=lambda events, candidate: (
            f"Is the phrase \"{candidate[0].text}\" a 'Trigger' or a 'Non-Trigger' in the passage?"
        ),
        answer=lambda events, candidate: "Trigger" if candidate[1] else "Non-Trigger",
        provenance=lambda events, candidate: {
            "candidate": [candidate[0].start, candidate[0].end], "is_trigger": candidate[1],
        },
        target=_Target.CANDIDATE,
        targets=lambda doc, events, negatives, seed: (
            [(e.trigger, True) for e in events] + [(span, False) for span in negatives]
        ),
    ),
    TaskVariant.TRIGGER_DISCRIMINATION_MULTI: _Spec(
        key="ClassificationMap",
        role="You are an event trigger discriminator.",
        task="Decide for each candidate phrase whether it works as an event trigger in the passage.",
        rules=(
            "Classify each phrase as either 'Trigger' or 'Non-Trigger'.",
            "Output strictly in the required format-no extra text.",
        ),
        write_hint='ClassificationMap = {"phrase1": "Trigger", "phrase2": "Non-Trigger", ...}.',
        example='ClassificationMap = {"therapy": "Trigger", "increase dose": "Non-Trigger"}',
        context=lambda events, negatives: [
            "Candidates:\n" + compact_json(list(_candidate_labels(events, negatives)))
        ],
        question=lambda events, _: "For each candidate above, decide whether it is a 'Trigger' or 'Non-Trigger'.",
        answer=_candidate_labels,
        provenance=lambda events, negatives: {"negatives": [[s.start, s.end] for s in negatives]},
        target=_Target.NEGATIVES,
        targets=lambda doc, events, negatives, seed: [list(negatives)] if negatives else [],
    ),
    TaskVariant.EVENT_DETECTION_JOINT: _Spec(
        key="DetectedEvents",
        role="You are an event detector.",
        task="Detect every event trigger in the passage and assign each its event type.",
        rules=(
            "List trigger/type pairs in the exact order the triggers appear in the passage.",
            "Copy trigger texts verbatim from the passage.",
        ),
        write_hint='DetectedEvents = [["trigger", "Type"], ...].',
        example='DetectedEvents = [["therapy", "Treatment"]]',
        question=lambda events, _: "What are the event triggers and their types?",
        answer=lambda events, _: [[e.trigger.text, e.event_type] for e in events],
    ),
    TaskVariant.ARG_EXTRACTION_SINGLE: _Spec(
        key="Arguments",
        role="You are an argument extractor.",
        task="Extract all arguments for the specific trigger shown below.",
        rules=(
            "List arguments in the exact order they appear in the passage.",
            "Ignore argument roles and include only the argument texts.",
        ),
        write_hint='Arguments = ["arg1", "arg2", ...].',
        example='Arguments = ["insulin", "VEGF"]',
        question=lambda events, ti: (
            f'What are the arguments of the trigger "{events[ti].trigger.text}" '
            f'(event type: "{events[ti].event_type}")?'
        ),
        answer=lambda events, ti: [a.span.text for a in events[ti].arguments],
        provenance=_trigger_provenance,
        target=_Target.TRIGGER,
        targets=_each_trigger,
    ),
    TaskVariant.ARG_EXTRACTION_MULTI: _Spec(
        key="ArgumentLists",
        role="You are an argument extractor.",
        task="For each listed trigger, extract its argument texts.",
        rules=(
            "Output one argument list per listed trigger, in the given order.",
            "Ignore argument roles and include only the argument texts.",
        ),
        write_hint='ArgumentLists = [["arg1", "arg2"], ...].',
        example='ArgumentLists = [["insulin", "VEGF"], []]',
        context=_typed_triggers_context,
        question=lambda events, _: "What are the arguments of each listed trigger, in order?",
        answer=lambda events, _: [[a.span.text for a in e.arguments] for e in events],
    ),
    TaskVariant.ARG_EXTRACTION_JOINT: _Spec(
        key="EventArguments",
        role="You are an argument extractor.",
        task="For each listed trigger, extract its arguments and assign each a semantic role.",
        rules=(
            "Output one argument list per listed trigger, in the given order.",
            "Give every argument exactly two fields: text and role.",
        ),
        write_hint='EventArguments = [[{"text": "a", "role": "R"}], ...].',
        example='EventArguments = [[{"text": "insulin", "role": "Instrument"}]]',
        context=_typed_triggers_context,
        question=lambda events, _: "What are the arguments and roles for each listed trigger, in order?",
        answer=lambda events, _: [
            [{"text": a.span.text, "role": a.role} for a in e.arguments] for e in events
        ],
    ),
    TaskVariant.ROLE_ASSIGNMENT_SINGLE: _Spec(
        key="Role",
        role="You are an argument role classifier.",
        task="Assign the correct semantic role to the argument shown below.",
        rules=(
            "Answer with exactly one role label.",
            "Use the trigger and the passage context to decide.",
        ),
        write_hint='Role = "RoleLabel".',
        example='Role = "Instrument"',
        question=_role_question,
        answer=lambda events, pair: events[pair[0]].arguments[pair[1]].role,
        provenance=lambda events, pair: {"trigger_index": pair[0], "argument_index": pair[1]},
        target=_Target.PAIR,
        targets=_each_argument,
    ),
    TaskVariant.ROLE_ASSIGNMENT_MULTI: _Spec(
        key="RoleAssignments",
        role="You are an argument role classifier.",
        task="Assign a semantic role to every candidate argument of the trigger shown below.",
        rules=(
            "Assign one role per candidate argument, in the given order.",
            "Output argument/role pairs only.",
        ),
        write_hint='RoleAssignments = [["arg", "Role"], ...].',
        example='RoleAssignments = [["insulin", "Instrument"]]',
        context=_role_multi_context,
        question=lambda events, _: "What is the role of each candidate argument, in order?",
        answer=lambda events, ti: [[a.span.text, a.role] for a in events[ti].arguments],
        provenance=_trigger_provenance,
        target=_Target.ARGUED_TRIGGER,
        targets=lambda doc, events, negatives, seed: [ti for ti, e in enumerate(events) if e.arguments],
    ),
}

_record_json = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
# how ``_record_json`` opens a record that starts at its query
_PROMPT_OPENING = '{"prompt": "'

for _variant, _spec in _SPECS.items():
    # {"variant": ..., "prompt": header + "\n"} encoded, without its closing '"}'
    _prefix = _record_json({"variant": _variant.value, "prompt": _spec.header + "\n"})[:-2]
    object.__setattr__(_spec, "line_prefix", _prefix)
del _variant, _spec, _prefix

ANSWER_KEYS = {variant: spec.key for variant, spec in _SPECS.items()}

# Variants that emit exactly one record per document, annotated or not.
WHOLE_DOCUMENT_VARIANTS = frozenset(
    variant for variant, spec in _SPECS.items() if spec.target is _Target.NONE
)


# --- rendering ------------------------------------------------------------

def render_instruction(
    variant: TaskVariant, doc: Document, target=None
) -> InstructionRecord:
    """Render one prompt/answer pair.

    ``target`` selects the focus where the variant needs one: a trigger
    index for single-trigger variants, a (trigger, argument) index pair for
    role assignment (single) and role-ablated construction, a (span,
    is_trigger) pair for single discrimination, and a list of negative
    spans for multi discrimination. Any other target is a ContractError.
    """
    events = _ordered_gold(doc)
    spec = _SPECS[variant]
    if not spec.target.accepts(doc, events, target):
        raise ContractError(f"{variant.value}: target must be {spec.target.value}, got {target!r}")
    if spec.target is _Target.NEGATIVES:
        target = list(target)  # the record renders on read: the caller's list may change
    return InstructionRecord(variant, doc, events, target)


def generate_dataset(
    corpus: list[Document],
    variants: set[TaskVariant] | None = None,
    seed: int = 0,
) -> list[InstructionRecord]:
    """Emit the decomposed curriculum for an annotated corpus.

    Whole-document variants emit one record per document (empty answers on
    zero-event documents); single-target variants emit one record per gold
    trigger or (trigger, argument) pair; role-ablated construction masks
    one uniformly chosen argument role per eligible document; and the
    discrimination variants draw their hard negatives per document. Output
    order is (document, variant, target) regardless of execution order, and
    the result is deterministic for a fixed seed. Each document's gold is
    ordered once, into one tuple all of its records share, and its targets,
    enumerated from the variant table, skip ``render_instruction``'s target
    check. Nothing is rendered here: records render when read.
    """
    chosen = [(v, _SPECS[v]) for v in TaskVariant if variants is None or v in variants]
    sample = any(spec.target in (_Target.CANDIDATE, _Target.NEGATIVES) for _, spec in chosen)
    records: list[InstructionRecord] = []
    for doc in corpus:
        events = _ordered_gold(doc)
        negatives = (
            sample_negative_ngrams(doc, [e.trigger for e in events], k=3, seed=seed) if sample else []
        )
        for variant, spec in chosen:
            for target in spec.targets(doc, events, negatives, seed):
                records.append(InstructionRecord(variant, doc, events, target))
    return records


def write_dataset(records: list[InstructionRecord], path: str | Path) -> None:
    """Stream the records to ``path`` as JSON lines, whole or not at all.

    A line is its variant's ``line_prefix`` and then the record encoded from
    its query on. JSON escapes a string one character at a time, so the
    line is ``_record_json(record.to_record())``, but no header is escaped.
    """
    with open_atomic(path) as fh:
        for record in records:
            spec, query, answer, provenance = record._parts()
            rest = _record_json(
                {"prompt": query, "answer": answer, "doc_id": record.doc.doc_id, "provenance": provenance}
            )
            fh.write(spec.line_prefix + rest[len(_PROMPT_OPENING):] + "\n")
