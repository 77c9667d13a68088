import dataclasses
import gc
import hashlib
import json
import random
import re
import string
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from revent import decomp
from revent.cli import main
from revent.decomp import (
    ANSWER_KEYS,
    WHOLE_DOCUMENT_VARIANTS,
    InstructionRecord,
    TaskVariant,
    default_pos_gate,
    extraction_prompt,
    generate_dataset,
    render_instruction,
    sample_negative_ngrams,
    write_dataset,
)
from revent.errors import ContractError
from revent.fencing import parse_answer
from revent.model import ArgumentMention, Document, EventMention, Span, occurrences, occurs_once
from revent.simulate import make_synthetic_corpus
from test_dataset_shapes import make_shaped_corpus

GOLDEN = Path(__file__).parent / "data" / "golden"

# sha256 of the dataset written for make_synthetic_corpus(200, seed=88) at seed 88
SYNTHETIC_DATASET_SHA256 = "42ab167a266f148e2e1f730d83e4bb46b298f0dc909372516d99f2ae15c51808"

FIG_PASSAGE = (
    "US Needs Broad Coalition to Fight IS Militants, Analysts Say-With President "
    "Barack Obama setting a new strategy to combat Islamic State militants (also "
    "known as ISIL or ISIS) in Iraq and Syria, analysts say he will need to build "
    "a broad-based coalition of international and regional players to support "
    "those efforts"
)

EXPECTED_ARG_SINGLE_PROMPT = f"""You are an argument extractor.
Extract all arguments for the specific trigger shown below.

Generation Rules:
1. List arguments in the exact order they appear in the passage.
2. Ignore argument roles and include only the argument texts.

Output Format (strict):
- Wrap the answer in triple backticks (```).
- Write: Arguments = ["arg1", "arg2", ...].

Example:
```
Arguments = ["insulin", "VEGF"]
```

Passage:
"{FIG_PASSAGE}"

Q: What are the arguments of the trigger "combat" (event type: "Conflict:Attack")?"""


def _fig_doc():
    combat = FIG_PASSAGE.index("combat")
    militants = FIG_PASSAGE.index("militants")  # the lowercase occurrence
    event = EventMention(
        Span("combat", combat, combat + 6),
        "Conflict:Attack",
        (ArgumentMention(Span("militants", militants, militants + 9), "Target"),),
    )
    return Document("fig", FIG_PASSAGE, (event,))


def test_argument_extraction_single_matches_template_bytes():
    record = render_instruction(TaskVariant.ARG_EXTRACTION_SINGLE, _fig_doc(), 0)
    assert record.prompt == EXPECTED_ARG_SINGLE_PROMPT
    assert record.answer == '```\nArguments = ["militants"]\n```'


def test_trigger_detection_empty_document():
    doc = Document("empty", "nothing to see here", ())
    record = render_instruction(TaskVariant.TRIGGER_DETECTION, doc)
    assert parse_answer(record.answer, ANSWER_KEYS[record.variant]) == []


def test_role_assignment_single_answer_is_one_role():
    record = render_instruction(TaskVariant.ROLE_ASSIGNMENT_SINGLE, _fig_doc(), (0, 0))
    assert parse_answer(record.answer, ANSWER_KEYS[record.variant]) == "Target"


def test_invalid_target_is_contract_error():
    with pytest.raises(ContractError):
        render_instruction(TaskVariant.ARG_EXTRACTION_SINGLE, _fig_doc(), 5)
    with pytest.raises(ContractError):
        render_instruction(TaskVariant.ROLE_ASSIGNMENT_SINGLE, _fig_doc(), (0, 9))
    with pytest.raises(ContractError):
        render_instruction(TaskVariant.TRIGGER_DISCRIMINATION_SINGLE, _fig_doc(), "combat")


def _argless_doc():
    text = "talks summit end"
    return Document("d", text, (EventMention(Span("summit", 6, 12), "Contact:Meet"),))


_OUTSIDE = Span("zzz", 0, 3)  # not a span of either passage


@pytest.mark.parametrize("variant, doc, target", [
    (TaskVariant.FULL_STRUCTURE, _fig_doc(), 7),
    (TaskVariant.TRIGGER_DETECTION, _fig_doc(), 0),
    (TaskVariant.TRIGGER_TYPE_SINGLE, _fig_doc(), None),
    (TaskVariant.TRIGGER_TYPE_SINGLE, _fig_doc(), False),
    (TaskVariant.ARG_EXTRACTION_SINGLE, _fig_doc(), -1),
    (TaskVariant.ROLE_ABLATED, _fig_doc(), ("a", 0)),
    (TaskVariant.ROLE_ABLATED, _fig_doc(), [0, 0]),
    (TaskVariant.ROLE_ASSIGNMENT_SINGLE, _fig_doc(), (0.0, 0)),
    (TaskVariant.ROLE_ASSIGNMENT_SINGLE, _fig_doc(), (0, 0, 0)),
    (TaskVariant.ROLE_ASSIGNMENT_MULTI, _argless_doc(), 0),
    (TaskVariant.TRIGGER_DISCRIMINATION_SINGLE, _fig_doc(), (_OUTSIDE, False)),
    (TaskVariant.TRIGGER_DISCRIMINATION_SINGLE, _fig_doc(), (Span("US", 0, 2), 1)),
    (TaskVariant.TRIGGER_DISCRIMINATION_MULTI, _fig_doc(), [_OUTSIDE]),
    (TaskVariant.TRIGGER_DISCRIMINATION_MULTI, _fig_doc(), (Span("US", 0, 2),)),
])
def test_every_bad_target_is_contract_error(variant, doc, target):
    with pytest.raises(ContractError):
        render_instruction(variant, doc, target)


def test_a_record_does_not_change_with_the_negatives_it_was_given():
    doc = _fig_doc()
    negatives = sample_negative_ngrams(doc, [e.trigger for e in doc.gold_events], k=3, seed=0)
    assert negatives
    record = render_instruction(TaskVariant.TRIGGER_DISCRIMINATION_MULTI, doc, negatives)
    before = record.to_record()
    negatives.clear()
    assert record.to_record() == before


def test_extraction_prompt_needs_no_gold():
    doc = Document("raw", FIG_PASSAGE)  # no gold events
    prompt = extraction_prompt(doc)
    assert FIG_PASSAGE in prompt
    assert "Events =" in prompt


def test_count_identities_on_synthetic_corpus():
    corpus = make_synthetic_corpus(40, seed=3)
    records = generate_dataset(corpus, seed=5)
    by_variant: dict[TaskVariant, list[InstructionRecord]] = {v: [] for v in TaskVariant}
    for record in records:
        by_variant[record.variant].append(record)

    n_docs = len(corpus)
    n_triggers = sum(len(d.gold_events) for d in corpus)
    for variant in WHOLE_DOCUMENT_VARIANTS:
        assert len(by_variant[variant]) == n_docs, variant
    assert len(by_variant[TaskVariant.TRIGGER_TYPE_SINGLE]) == n_triggers
    assert len(by_variant[TaskVariant.ARG_EXTRACTION_SINGLE]) == n_triggers
    n_args = sum(len(e.arguments) for d in corpus for e in d.gold_events)
    assert len(by_variant[TaskVariant.ROLE_ASSIGNMENT_SINGLE]) == n_args
    docs_with_args = sum(
        1 for d in corpus if any(e.arguments for e in d.gold_events)
    )
    assert len(by_variant[TaskVariant.ROLE_ABLATED]) == docs_with_args


def test_all_answers_round_trip():
    corpus = make_synthetic_corpus(15, seed=9)
    records = generate_dataset(corpus, seed=1)
    assert records, "generator emitted nothing"
    seen_variants = set()
    for record in records:
        payload = parse_answer(record.answer, ANSWER_KEYS[record.variant])  # raises on malformed answers
        seen_variants.add(record.variant)
        if record.variant is TaskVariant.TRIGGER_DISCRIMINATION_MULTI:
            assert set(payload.values()) <= {"Trigger", "Non-Trigger"}
    assert TaskVariant.FULL_STRUCTURE in seen_variants


def test_deterministic_for_fixed_seed():
    corpus = make_synthetic_corpus(10, seed=2)
    a = generate_dataset(corpus, seed=4)
    b = generate_dataset(corpus, seed=4)
    assert a == b
    c = generate_dataset(corpus, seed=5)

    def ablated(records):
        return [r.provenance for r in records if r.variant is TaskVariant.ROLE_ABLATED]

    assert any(x != y for x, y in zip(ablated(a), ablated(c)))


def test_role_ablated_masks_exactly_one_role():
    corpus = [d for d in make_synthetic_corpus(10, seed=8)
              if any(e.arguments for e in d.gold_events)]
    records = [
        r for r in generate_dataset(corpus, seed=3)
        if r.variant is TaskVariant.ROLE_ABLATED
    ]
    assert records
    for record in records:
        assert record.prompt.count("<masked>") >= 1
        partial = record.prompt.split("Partial events:\n", 1)[1].split("\n\nQ:", 1)[0]
        payload = json.loads(partial)
        masked = [
            a for e in payload for a in e["arguments"] if a["role"] == "<masked>"
        ]
        assert len(masked) == 1
        # the answer restores the full structure
        restored = parse_answer(record.answer, ANSWER_KEYS[record.variant])
        assert all(a["role"] != "<masked>" for e in restored for a in e["arguments"])


def test_full_structure_answer_parses_as_agent_reply():
    from revent.ingest import parse_agent_output

    corpus = make_synthetic_corpus(5, seed=12)
    for record in generate_dataset(corpus, variants={TaskVariant.FULL_STRUCTURE}, seed=0):
        doc = next(d for d in corpus if d.doc_id == record.doc_id)
        events = parse_agent_output(record.answer, doc)
        assert {(e.trigger.text, e.event_type) for e in events} == {
            (e.trigger.text, e.event_type) for e in doc.gold_events
        }


def _window_distance(text, span, triggers):
    tokens = [(m.start(), m.end()) for m in __import__("re").finditer(r"\S+", text)]

    def covering(s, e):
        return [i for i, (ts, te) in enumerate(tokens) if ts < e and s < te]

    cand = covering(span.start, span.end)
    best = None
    for trig in triggers:
        for ti in covering(trig.start, trig.end):
            for ci in cand:
                d = abs(ti - ci)
                best = d if best is None else min(best, d)
    return best


def test_negative_ngrams_satisfy_all_constraints():
    corpus = make_synthetic_corpus(60, seed=21)
    checked = 0
    for doc in corpus:
        triggers = [e.trigger for e in doc.gold_events]
        negatives = sample_negative_ngrams(doc, triggers, k=3, seed=11)
        assert len(negatives) <= 3
        for span in negatives:
            checked += 1
            assert doc.contains(span)
            # (i) occurs exactly once
            count, start = 0, 0
            while True:
                idx = doc.text.find(span.text, start)
                if idx < 0:
                    break
                count += 1
                start = idx + 1
            assert count == 1
            # (ii) no substring sharing with any gold trigger
            for trig in triggers:
                assert span.text not in trig.text and trig.text not in span.text
                assert not (span.start < trig.end and trig.start < span.end)
            # (iii) within a three-token window of some trigger
            assert _window_distance(doc.text, span, triggers) <= 3
            # (iv) POS gate passes for every token
            for token in span.text.split():
                assert default_pos_gate(token.strip(".,;:!?"))
    assert checked > 0


def test_negative_uniqueness_constraint_blocks_repeats():
    text = "officials met the coalition and the coalition met officials again summit"
    trig = Span("summit", text.index("summit"), text.index("summit") + 6)
    doc = Document("d", text, (EventMention(trig, "Contact:Meet"),))
    negatives = sample_negative_ngrams(doc, [trig], k=3, seed=0)
    assert all(n.text != "coalition" for n in negatives)
    assert all(n.text != "officials" for n in negatives)


def test_negative_substring_constraint():
    text = "forces combat losses while combative talks continue"
    trig = Span("combat", text.index("combat"), text.index("combat") + 6)
    doc = Document("d", text, (EventMention(trig, "Conflict:Attack"),))
    negatives = sample_negative_ngrams(doc, [trig], k=3, seed=0)
    for span in negatives:
        assert "combat" not in span.text


def test_negative_pool_smaller_than_k():
    text = "talks summit end"
    trig = Span("summit", 6, 12)
    doc = Document("d", text, (EventMention(trig, "Contact:Meet"),))
    negatives = sample_negative_ngrams(doc, [trig], k=3, seed=0)
    # the whole pool, with no error, when it is smaller than k
    assert negatives == [Span("talks", 0, 5), Span("end", 13, 16)]


def test_document_without_events_gets_one_empty_record_per_whole_document_variant():
    records = generate_dataset([Document("empty", "nothing to see here", ())])
    assert sorted(r.variant.value for r in records) == sorted(v.value for v in WHOLE_DOCUMENT_VARIANTS)
    assert all(parse_answer(r.answer, ANSWER_KEYS[r.variant]) == [] for r in records)


def test_whitespace_trigger_touches_no_token_and_has_no_negatives():
    doc = Document("w", "alpha beta gamma", ())
    assert sample_negative_ngrams(doc, [Span(" ", 5, 6)], k=3, seed=0) == []


def test_k_above_three_rejected():
    doc = Document("d", "a b c", ())
    with pytest.raises(ContractError):
        sample_negative_ngrams(doc, [], k=4, seed=0)


def test_gen_decomp_matches_golden_file(data_dir, tmp_path):
    out = tmp_path / "decomp.jsonl"
    code = main([
        "gen-decomp",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--out", str(out),
        "--seed", "0",
    ])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "decomp.jsonl").read_bytes()


def test_synthetic_dataset_bytes_pinned(tmp_path):
    out = tmp_path / "synthetic.jsonl"
    write_dataset(generate_dataset(make_synthetic_corpus(200, seed=88), seed=88), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYNTHETIC_DATASET_SHA256


def test_write_dataset_jsonl(tmp_path):
    corpus = make_synthetic_corpus(3, seed=1)
    records = generate_dataset(corpus, variants={TaskVariant.TRIGGER_DETECTION}, seed=0)
    out = tmp_path / "decomp.jsonl"
    write_dataset(records, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(records)
    first = json.loads(lines[0])
    assert set(first) == {"variant", "prompt", "answer", "doc_id", "provenance"}
    assert first["variant"] == "trigger_detection_only"


def test_write_dataset_failure_keeps_the_old_file(tmp_path):
    corpus = make_synthetic_corpus(3, seed=1)
    records = generate_dataset(corpus, variants={TaskVariant.TRIGGER_DETECTION}, seed=0)
    out = tmp_path / "decomp.jsonl"
    write_dataset(records[:1], out)
    before = out.read_bytes()

    class Broken:
        def _parts(self):  # what write_dataset renders a record's line from
            raise RuntimeError("record cannot be serialised")

    with pytest.raises(RuntimeError, match="serialised"):
        write_dataset([*records, Broken(), *records], out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["decomp.jsonl"]


# Quotes, backslash, every C0 control, DEL, the two JavaScript line
# terminators, non-ASCII and non-BMP characters.
_AWKWARD = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "é", "中", "\U0001F600"]


def _awkward_corpus(n, seed):
    """Documents whose texts, ids, event types and roles hold ``_AWKWARD``
    characters; plain words among them leave room for negatives."""
    rng = random.Random(seed)
    letters = string.ascii_lowercase + "éß中"
    corpus = []
    for i in range(n):
        tokens = [
            "".join(rng.choices(letters, k=rng.randint(3, 7))) if rng.random() < 0.6
            else "".join(rng.choices([*_AWKWARD, "x"], k=rng.randint(1, 4)))
            for _ in range(rng.randint(6, 16))
        ]
        starts = [sum(len(t) + 1 for t in tokens[:j]) for j in range(len(tokens))]
        spans = [Span(t, s, s + len(t)) for t, s in zip(tokens, starts)]
        picked = rng.sample(range(len(spans)), rng.randint(0, min(3, len(spans) // 2)))
        others = [j for j in range(len(spans)) if j not in picked]
        events = tuple(
            EventMention(spans[j], "Ty" + "".join(rng.choices(_AWKWARD, k=2)), tuple(
                ArgumentMention(spans[a], "R" + "".join(rng.choices(_AWKWARD, k=2)))
                for a in rng.sample(others, rng.randint(0, 2))
            ))
            for j in picked
        )
        corpus.append(Document(f"d{i}" + "".join(rng.choices(_AWKWARD, k=3)), " ".join(tokens), events))
    return corpus


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_written_lines_are_the_records_json_with_awkward_characters(tmp_path, seed):
    records = generate_dataset(_awkward_corpus(80, seed=seed), seed=seed)
    assert {r.variant for r in records} == set(TaskVariant)
    out = tmp_path / "awkward.jsonl"
    write_dataset(records, out)
    # splitlines would also split at U+2028, U+2029 and some C0 controls
    lines = out.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert line == json.dumps(record.to_record(), ensure_ascii=False, allow_nan=False)
    written = "".join(lines)
    assert [c for c in _AWKWARD if json.dumps(c, ensure_ascii=False)[1:-1] not in written] == []


def test_write_dataset_encodes_no_canon_header(tmp_path, monkeypatch):
    """Each header is escaped once, at import, not once per record, and each
    record's query is encoded once."""
    escaped = [json.dumps(spec.header, ensure_ascii=False)[1:-1] for spec in decomp._SPECS.values()]
    encode, encoded = decomp._record_json, []

    def recording(obj):
        encoded.append((obj, encode(obj)))
        return encoded[-1][1]

    monkeypatch.setattr(decomp, "_record_json", recording)
    records = generate_dataset(make_synthetic_corpus(30, seed=3), seed=3)
    assert {r.variant for r in records} == set(TaskVariant)
    write_dataset(records, tmp_path / "decomp.jsonl")
    queries = Counter(r.query for r in records)
    assert Counter(obj for obj, _ in encoded if isinstance(obj, str) and obj in queries) == queries
    assert [text for _, text in encoded if any(header in text for header in escaped)] == []


def test_trigger_detection_only_never_samples_negatives(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].doc_id)
        return sample_negative_ngrams(*args, **kwargs)

    monkeypatch.setattr(decomp, "sample_negative_ngrams", counting)
    corpus = make_synthetic_corpus(20, seed=4)
    generate_dataset(corpus, variants={TaskVariant.TRIGGER_DETECTION}, seed=4)
    assert calls == []
    generate_dataset(corpus, variants={TaskVariant.TRIGGER_DISCRIMINATION_MULTI}, seed=4)
    assert calls == [doc.doc_id for doc in corpus]


def _target_of(record, doc):
    """The target a generated record was rendered around, read off its provenance."""
    prov = record.provenance
    if "candidate" in prov:
        start, end = prov["candidate"]
        return (Span(doc.text[start:end], start, end), prov["is_trigger"])
    if "negatives" in prov:
        return [Span(doc.text[start:end], start, end) for start, end in prov["negatives"]]
    if "masked_trigger" in prov:
        return (prov["masked_trigger"], prov["masked_argument"])
    if "argument_index" in prov:
        return (prov["trigger_index"], prov["argument_index"])
    return prov.get("trigger_index")


def test_generated_records_equal_render_instruction(worked_corpus):
    synthetic = make_synthetic_corpus(30, seed=17)
    # the same passages with their gold out of passage order
    shuffled = [Document(f"{d.doc_id}-rev", d.text, d.gold_events[::-1]) for d in synthetic]
    corpus = [*worked_corpus, *synthetic, *shuffled]
    by_id = {doc.doc_id: doc for doc in corpus}
    assert len(by_id) == len(corpus)
    records = generate_dataset(corpus, seed=17)
    assert {r.variant for r in records} == set(TaskVariant)
    for record in records:
        doc = by_id[record.doc_id]
        assert record == render_instruction(record.variant, doc, _target_of(record, doc))


def _referenced_strings(obj) -> list[str]:
    """The strings ``obj`` refers to, looking through its attribute dict."""
    found, pending = [], list(gc.get_referents(obj))
    while pending:
        ref = pending.pop()
        if isinstance(ref, str):
            found.append(ref)
        elif isinstance(ref, dict):
            pending += [*ref.keys(), *ref.values()]
    return found


def test_records_hold_what_renders_them_and_no_string(worked_corpus):
    assert [f.name for f in dataclasses.fields(InstructionRecord)] == ["variant", "doc", "events", "target"]
    corpus = [*worked_corpus, *make_synthetic_corpus(200, seed=88)]
    by_id = {doc.doc_id: doc for doc in corpus}
    records = generate_dataset(corpus, seed=88)
    assert {r.variant for r in records} == set(TaskVariant)
    events_of: dict[str, tuple] = {}
    for record in records:
        header = decomp._SPECS[record.variant].header
        assert header.endswith("\nPassage:")
        assert record.query.startswith(f'"{by_id[record.doc_id].text}"')
        assert record.prompt == header + "\n" + record.query
        assert _referenced_strings(record) == []
        assert record.doc is by_id[record.doc_id]
        assert events_of.setdefault(record.doc_id, record.events) is record.events
    assert len(events_of) == len(corpus)


def test_one_dataset_holds_few_bytes_per_record(worked_corpus):
    corpus = [*worked_corpus, *make_synthetic_corpus(200, seed=88)]
    generate_dataset(corpus, seed=88)  # import-time and first-use state is not the records'
    gc.collect()
    tracemalloc.start()
    try:
        records = generate_dataset(corpus, seed=88)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(records) < 250


def test_shuffling_the_corpus_permutes_the_record_blocks():
    for corpus in (make_synthetic_corpus(40, seed=3), make_shaped_corpus(30, seed=4)):
        blocks: dict[str, list] = {}
        for record in generate_dataset(corpus, seed=5):
            blocks.setdefault(record.doc_id, []).append(record.to_record())
        shuffled = random.Random(6).sample(corpus, len(corpus))
        assert [d.doc_id for d in shuffled] != [d.doc_id for d in corpus]
        got = [record.to_record() for record in generate_dataset(shuffled, seed=5)]
        assert got == [rec for doc in shuffled for rec in blocks[doc.doc_id]]


def test_variant_subsets_match_the_full_dataset():
    corpus = make_synthetic_corpus(30, seed=9)
    full = generate_dataset(corpus, seed=9)
    for variant in TaskVariant:
        subset = generate_dataset(corpus, variants={variant}, seed=9)
        assert subset == [r for r in full if r.variant is variant]


# --- negative sampling against the reference enumeration -------------------

def _reference_strip_token(token, start):
    stripped = token.strip(string.punctuation)
    if not stripped:
        return None
    offset = token.find(stripped)
    return (stripped, start + offset, start + offset + len(stripped))


def _reference_sample_negative_ngrams(doc, gold_triggers, k=3, seed=0):
    """The plain enumeration: every n-gram of the passage, then each filter."""
    if k > 3:
        raise ContractError("at most three negatives per document")
    if k < 1 or not gold_triggers:
        return []

    raw_tokens = [(m.group(), m.start(), m.end()) for m in re.finditer(r"\S+", doc.text)]
    trigger_token_idx: set[int] = set()
    for ti, (_, tstart, tend) in enumerate(raw_tokens):
        for trig in gold_triggers:
            if tstart < trig.end and trig.start < tend:
                trigger_token_idx.add(ti)
    if not trigger_token_idx:
        return []

    stripped = []
    for idx, (tok, tstart, _) in enumerate(raw_tokens):
        cleaned = _reference_strip_token(tok, tstart)
        if cleaned is not None:
            stripped.append((idx, *cleaned))

    candidates: list[Span] = []
    for pos, (idx, _, _, _) in enumerate(stripped):
        for length in (1, 2, 3):
            window = stripped[pos:pos + length]
            if len(window) < length:
                break
            if [w[0] for w in window] != list(range(idx, idx + length)):
                break  # tokens must be adjacent in the raw text
            if length > 1 and any(
                raw_tokens[w[0]][0] != w[1] for w in window
            ):
                break  # multi-token candidates use punctuation-free tokens only
            start, end = window[0][2], window[-1][3]
            cand_text = doc.text[start:end]
            if not all(default_pos_gate(w[1]) for w in window):
                continue
            if len(occurrences(doc.text, cand_text)) != 1:
                continue
            if any(
                cand_text in trig.text or trig.text in cand_text
                or (start < trig.end and trig.start < end)
                for trig in gold_triggers
            ):
                continue
            # token distance to the nearest trigger token (0 = overlapping,
            # which the positional check above already excluded)
            c_lo, c_hi = idx, idx + length - 1
            gap = min(max(t - c_hi, c_lo - t, 0) for t in trigger_token_idx)
            if not 0 < gap <= 3:
                continue
            candidates.append(Span(cand_text, start, end))

    candidates.sort(key=lambda s: (s.start, s.end))
    rng = random.Random(f"{seed}:{doc.doc_id}:negatives")
    picked = candidates if len(candidates) <= k else rng.sample(candidates, k)
    return sorted(picked, key=lambda s: (s.start, s.end))


# Small on purpose, so surfaces repeat and overlap ("ban", "banana", "nana").
_PASSAGE_WORDS = (
    "raid", "raided", "talks", "summit", "ban", "banana", "nana", "the", "of",
    "quickly", "officials", "met", "2024", "east-west", "a", "an", "end",
    "(raid)", "talks,", '"summit"', "end.", "--", "officials;", "'ban'",
)


def _random_trigger(rng, text, tokens):
    kind = rng.choice(("token", "substring", "pair", "first", "last"))
    if kind == "first":
        start, end = tokens[0]
    elif kind == "last":
        start, end = tokens[-1]
    elif kind == "pair" and len(tokens) > 1:
        i = rng.randrange(len(tokens) - 1)
        start, end = tokens[i][0], tokens[i + 1][1]
    else:
        start, end = rng.choice(tokens)
        if kind == "substring" and end - start > 1:
            end = rng.randrange(start + 1, end)
    return Span(text[start:end], start, end)


def _random_negative_cases(n):
    rng = random.Random(1729)
    for case in range(n):
        text = " ".join(rng.choice(_PASSAGE_WORDS) for _ in range(rng.randint(1, 18)))
        tokens = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
        triggers = [_random_trigger(rng, text, tokens) for _ in range(rng.randint(1, 3))]
        events = tuple(EventMention(trig, "T") for trig in triggers)
        yield Document(f"n{case}", text, events), triggers


def test_negative_sampling_matches_the_reference_enumeration():
    compared = 0
    for doc, triggers in _random_negative_cases(400):
        for k in (1, 2, 3):
            for seed in (0, 7):
                expected = _reference_sample_negative_ngrams(doc, triggers, k=k, seed=seed)
                assert sample_negative_ngrams(doc, triggers, k=k, seed=seed) == expected, (doc, k, seed)
                compared += bool(expected)
    assert compared > 1000  # most cases have a non-empty pool


def _random_long_negative_cases(n):
    """Passages of 40-200 tokens: the small vocabulary above, so surfaces
    repeat and overlap, mixed with made-up words that mostly occur once."""
    rng = random.Random(4099)
    for case in range(n):
        words = [
            rng.choice(_PASSAGE_WORDS) if rng.random() < 0.5
            else "".join(rng.choice("abdeiklmnorstu") for _ in range(rng.randint(2, 6)))
            for _ in range(rng.randint(40, 200))
        ]
        text = " ".join(words)
        tokens = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
        triggers = [_random_trigger(rng, text, tokens) for _ in range(rng.randint(1, 3))]
        events = tuple(EventMention(trig, "T") for trig in triggers)
        yield Document(f"long{case}", text, events), triggers


def test_negative_sampling_matches_the_reference_enumeration_on_long_passages():
    compared = 0
    for doc, triggers in _random_long_negative_cases(150):
        for k in (1, 3):
            expected = _reference_sample_negative_ngrams(doc, triggers, k=k, seed=5)
            assert sample_negative_ngrams(doc, triggers, k=k, seed=5) == expected, (doc, k)
            compared += len(expected) == k
    assert compared > 250  # nearly every long passage has a full pool


@pytest.mark.parametrize("text, surface, once", [
    ("a a a", "a a", False),  # two overlapping occurrences
    ("a a", "a a", True),
    ("aaaa", "aa", False),
    ("banana nana", "nana", False),
    ("banana", "ana", False),
    ("abc", "abc", True),
    ("abc", "", False),  # an empty surface has no occurrences
    ("", "", False),
    ("abc", "x", False),  # nor has an absent one
    ("", "x", False),
])
def test_occurs_once_on_named_cases(text, surface, once):
    assert occurs_once(text, surface) is once
    assert once == (len(occurrences(text, surface)) == 1)


def test_occurs_once_is_exactly_one_occurrence():
    rng = random.Random(31)
    for _ in range(3000):
        text = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 12)))
        surface = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 4)))
        assert occurs_once(text, surface) == (len(occurrences(text, surface)) == 1), (text, surface)
