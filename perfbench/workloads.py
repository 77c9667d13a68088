"""The four benchmark workloads, driven through revent's public entry points.

Each workload has ``setup`` (make inputs from the seed and start whatever
serves them), ``op`` (one timed operation), ``check`` (output checks run
after timing) and ``teardown``. An op returns its failures as a list of
strings; the runner counts an op with failures, or one that raises, as
failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import inputs
from stub import ChatStub

import revent
from revent import cli, decomp, tuning
from revent.ensemble import default_agents, run_self_moa
from revent.pipeline import backend_reflector, extract_document, keep_all_reflector
from revent.reflection import AuditLog, ReflectionConfig

THRESHOLDS = "builtin:llama-3.1/m2e2/0.9"
THRESHOLD_KEY = ("llama-3.1", "m2e2", 0.9)
LIVE_LATENCY_S = 0.02
TUNE_GRID_STEP = 0.05
EXPECTED_TUNE = Path(__file__).with_name("expected_tune.json")


# --- scoring and checks ---------------------------------------------------

def f1_scores(pred_events: dict[str, list[dict]], docs: list[dict]) -> tuple[float, float]:
    """(Trg-C F1, Arg-C F1), exact match, micro-averaged, arguments gated on
    the classified trigger. Events are corpus-schema records."""
    def tuples(doc_id, events):
        trg, arg = set(), set()
        for e in events:
            t = (doc_id, e["trigger"]["start"], e["trigger"]["end"], e["type"])
            trg.add(t)
            arg.update(t + (a["start"], a["end"], a["role"]) for a in e["arguments"])
        return trg, arg

    counts = {"trg": [0, 0, 0], "arg": [0, 0, 0]}
    for d in docs:
        p = tuples(d["doc_id"], pred_events.get(d["doc_id"], []))
        g = tuples(d["doc_id"], d["events"])
        for name, ps, gs in (("trg", p[0], g[0]), ("arg", p[1], g[1])):
            tp = len(ps & gs)
            counts[name][0] += tp
            counts[name][1] += len(ps)
            counts[name][2] += len(gs)

    def f1(tp, n_pred, n_gold):
        return 2 * tp / (n_pred + n_gold) if n_pred + n_gold else 0.0

    return f1(*counts["trg"]), f1(*counts["arg"])


def _event_records(events) -> list[dict]:
    return [
        {"trigger": {"start": e.trigger.start, "end": e.trigger.end}, "type": e.event_type,
         "arguments": [{"start": a.span.start, "end": a.span.end, "role": a.role} for a in e.arguments]}
        for e in events
    ]


class RecordingBackend:
    """In-process backend that answers like the live stub (agent k gets draw
    k) and records every reply under the (doc_id, channel) key the replay
    fixture uses."""

    def __init__(self, answerer):
        self.answerer = answerer
        self.replies: dict[str, dict[str, str]] = {}

    def complete(self, request) -> str:
        doc_id, channel = request.metadata["doc_id"], request.metadata["channel"]
        index = int(channel.split(":")[1]) - 1 if channel.startswith("agent:") else None
        reply = self.answerer.answer(request.messages[-1][1], index)
        known = self.replies.setdefault(doc_id, {}).setdefault(channel, reply)
        if known != reply:
            raise RuntimeError(f"two different replies on replay channel {doc_id}/{channel}")
        return reply


def record_replay(inp: dict, path: Path, n_agents: int = inputs.N_AGENTS) -> None:
    """Drive the library once with a RecordingBackend and write the replay fixture."""
    corpus = revent.load_corpus(inp["corpus"])
    tagger = revent.load_tagger_predictions(inp["tagger"], corpus)
    backend = RecordingBackend(inputs.Answerer(inp["docs"], inp["draws"]))
    thresholds = revent.bundled_thresholds(*THRESHOLD_KEY)
    agents = default_agents(n_agents)
    reflector = backend_reflector(backend, ReflectionConfig(), AuditLog())
    for doc in corpus:
        events, ledger = run_self_moa(doc, decomp.extraction_prompt(doc), agents, backend)
        extract_document(doc, tagger[doc.doc_id], events, ledger, len(agents), thresholds, 0.5, reflector)
    path.write_text(json.dumps(backend.replies, sort_keys=True), encoding="utf-8")


def run_extract(inp: dict, backend: str, out: Path) -> tuple[bytes, list[str]]:
    """One in-process ``revent extract``: (predictions bytes, failures)."""
    if out.exists():
        shutil.rmtree(out)
    argv = [
        "extract", "--corpus", str(inp["corpus"]), "--tagger-preds", str(inp["tagger"]),
        "--backend", backend, "--agents", str(inputs.N_AGENTS),
        "--thresholds", THRESHOLDS, "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return b"", [f"revent extract exited with {code}"]
    data = (out / "predictions.jsonl").read_bytes()
    ids = [json.loads(line)["doc_id"] for line in data.decode("utf-8").splitlines()]
    expected = [d["doc_id"] for d in inp["docs"]]
    if ids != expected:
        missing = len(set(expected) - set(ids))
        return data, [f"predictions.jsonl has {len(ids)} lines, {missing} documents missing"]
    return data, []


def _prediction_f1(data: bytes, docs: list[dict]) -> tuple[float, float]:
    preds = {}
    for line in data.decode("utf-8").splitlines():
        rec = json.loads(line)
        preds[rec["doc_id"]] = rec["events"]
    return f1_scores(preds, docs)


# --- workloads ------------------------------------------------------------

class Workload:
    """A named workload over ``n_docs`` documents made from ``seed``."""

    name: str
    n_docs: int

    def __init__(self, seed: int):
        self.seed = seed

    def teardown(self, state: dict) -> None:
        pass


class _Extract(Workload):
    """One timed op is one ``revent extract`` over the whole corpus."""

    def backend(self, state: dict) -> str:
        raise NotImplementedError

    def op(self, state: dict) -> dict:
        out = state["workdir"] / "out"
        data, failures = run_extract(state["inp"], self.backend(state), out)
        if state["first"] is None and not failures:
            state["first"] = data
            state["metrics_json"] = json.loads((out / "metrics.json").read_text())
        elif data != state["first"]:
            failures.append("predictions.jsonl differs between runs on the same inputs")
        return {"docs": self.n_docs, "failures": failures, "out": out}

    def check_outputs(self, state: dict) -> tuple[list[str], dict]:
        """Scorer agreement and quality of the first run's predictions."""
        trg, arg = _prediction_f1(state["first"], state["inp"]["docs"])
        reported = state["metrics_json"]
        failures = []
        if abs(reported["trigger_cls"]["f1"] - trg) > 1e-9 or abs(reported["argument_cls"]["f1"] - arg) > 1e-9:
            failures.append(f"metrics.json F1 ({reported['trigger_cls']['f1']}, "
                            f"{reported['argument_cls']['f1']}) disagrees with the benchmark's ({trg}, {arg})")
        return failures, {"trg_c_f1": trg, "arg_c_f1": arg}


class ExtractOffline(_Extract):
    """``revent extract`` with a replay fixture and zero backend latency."""

    name = "extract-offline"
    n_docs = 120
    check_docs = 12  # corpus prefix also run against the live stub

    def setup(self, workdir: Path) -> dict:
        inp = inputs.make_inputs(self.seed, self.n_docs, inputs.EXTRACT_SHAPE, workdir)
        record_replay(inp, workdir / "replay.json")
        return {"inp": inp, "workdir": workdir, "first": None}

    def backend(self, state: dict) -> str:
        return f"replay:{state['workdir'] / 'replay.json'}"

    def check(self, state: dict) -> tuple[list[str], dict]:
        if state["first"] is None:
            return ["no successful run to check"], {}
        failures, quality = self.check_outputs(state)
        # The same inputs through the live endpoint must give the same bytes.
        small = state["workdir"] / "cross"
        small.mkdir()
        inp = inputs.make_inputs(self.seed, self.check_docs, inputs.EXTRACT_SHAPE, small)
        with ChatStub(inputs.Answerer(inp["docs"], inp["draws"]), LIVE_LATENCY_S) as stub:
            live, errs = run_extract(inp, stub.url, small / "out")
        failures += errs
        prefix = b"".join(state["first"].splitlines(keepends=True)[: self.check_docs])
        if live != prefix:
            failures.append("live and replay predictions.jsonl differ on the same inputs")
        return failures, quality


class ExtractLive(_Extract):
    """``revent extract`` against the asyncio stub over HTTP."""

    name = "extract-live"
    n_docs = 36

    def setup(self, workdir: Path) -> dict:
        inp = inputs.make_inputs(self.seed, self.n_docs, inputs.EXTRACT_SHAPE, workdir)
        stub = ChatStub(inputs.Answerer(inp["docs"], inp["draws"]), LIVE_LATENCY_S).start()
        return {"inp": inp, "workdir": workdir, "stub": stub, "first": None, "calls": []}

    def backend(self, state: dict) -> str:
        return state["stub"].url

    def op(self, state: dict) -> dict:
        before = state["stub"].calls
        result = super().op(state)
        state["calls"].append(state["stub"].calls - before)
        return result

    def check(self, state: dict) -> tuple[list[str], dict]:
        if state["first"] is None:
            return ["no successful run to check"], {}
        failures, quality = self.check_outputs(state)
        if state["stub"].errors:
            failures.append(f"stub rejected {state['stub'].errors} requests")
        if len(set(state["calls"])) != 1:
            failures.append(f"backend calls differ between runs: {state['calls']}")
        # The same inputs through a replay fixture must give the same bytes.
        replay = state["workdir"] / "replay.json"
        record_replay(state["inp"], replay)
        offline, errs = run_extract(state["inp"], f"replay:{replay}", state["workdir"] / "offline")
        failures += errs
        if offline != state["first"]:
            failures.append("live and replay predictions.jsonl differ on the same inputs")
        return failures, quality

    def teardown(self, state: dict) -> None:
        state["stub"].stop()


class Tune(Workload):
    """``tuning.tune_thresholds`` on a dev set with the tuner fixture's shape."""

    name = "tune"
    n_docs = 3
    # One fixed dev set, whatever the workload seed: the tuner's grid is
    # spanned by the quartiles of the dev set's confidence pools, which on
    # small dev sets are often empty or single, so the grid (and the time per
    # call) would swing 3x from seed to seed. The ThresholdSet the reference
    # commit returns on this dev set is recorded in expected_tune.json.
    input_seed = 0

    def setup(self, workdir: Path) -> dict:
        inp = inputs.make_inputs(self.input_seed, self.n_docs, inputs.TUNE_SHAPE, workdir)
        dev = revent.load_corpus(inp["corpus"])
        tagger = revent.load_tagger_predictions(inp["tagger"], dev)
        backend = RecordingBackend(inputs.Answerer(inp["docs"], inp["draws"]))
        agents = default_agents(inputs.N_AGENTS)
        smoa = {doc.doc_id: run_self_moa(doc, decomp.extraction_prompt(doc), agents, backend) for doc in dev}
        predictions = tuning.DevPredictions(tagger=tagger, smoa=smoa, n_agents=len(agents))
        return {"inp": inp, "dev": dev, "predictions": predictions, "results": []}

    def op(self, state: dict) -> dict:
        result = tuning.tune_thresholds(state["dev"], state["predictions"], grid_step=TUNE_GRID_STEP)
        state["results"].append(result)
        failures = [] if result == state["results"][0] else ["tune_thresholds differs between calls"]
        return {"docs": self.n_docs, "failures": failures}

    def check(self, state: dict) -> tuple[list[str], dict]:
        if not state["results"]:
            return ["no successful call to check"], {}
        tuned = state["results"][0]
        failures = []
        recorded = json.loads(EXPECTED_TUNE.read_text())
        if (recorded["input_seed"], recorded["n_docs"], recorded["grid_step"]) != (
                self.input_seed, self.n_docs, TUNE_GRID_STEP):
            failures.append("expected_tune.json was recorded for another dev set")
        expected = recorded["thresholds"]
        if expected != tuned.as_dict():
            failures.append(f"tune_thresholds returned {tuned.as_dict()}, recorded {expected}")
        preds = {}
        for doc in state["dev"]:
            events, ledger = state["predictions"].smoa[doc.doc_id]
            result = extract_document(doc, state["predictions"].tagger[doc.doc_id], events, ledger,
                                      inputs.N_AGENTS, tuned, 0.5, keep_all_reflector)
            preds[doc.doc_id] = _event_records(result.final_events)
        trg, arg = f1_scores(preds, state["inp"]["docs"])
        return failures, {"trg_c_f1": trg, "arg_c_f1": arg}


class GenDecomp(Workload):
    """``decomp.generate_dataset`` plus ``write_dataset`` on the curriculum fixture's shape."""

    name = "gen-decomp"
    n_docs = 1000

    def setup(self, workdir: Path) -> dict:
        inp = inputs.make_inputs(self.seed, self.n_docs, inputs.DECOMP_SHAPE, workdir)
        return {"inp": inp, "corpus": revent.load_corpus(inp["corpus"]),
                "out": workdir / "decomp.jsonl", "first": None}

    def op(self, state: dict) -> dict:
        records = decomp.generate_dataset(state["corpus"], seed=self.seed)
        decomp.write_dataset(records, state["out"])
        data = state["out"].read_bytes()
        failures = []
        if state["first"] is None:
            state["first"], state["records"] = data, records
        elif data != state["first"]:
            failures.append("decomp dataset differs between runs on the same inputs")
        return {"docs": self.n_docs, "failures": failures, "records": len(records)}

    def check(self, state: dict) -> tuple[list[str], dict]:
        records = state.get("records")
        if records is None:
            return ["no successful run to check"], {}
        failures = []
        counts: dict = {}
        for record in records:
            counts[record.variant] = counts.get(record.variant, 0) + 1
        n_triggers = sum(len(d["events"]) for d in state["inp"]["docs"])
        for variant in decomp.WHOLE_DOCUMENT_VARIANTS:
            if counts.get(variant, 0) != self.n_docs:
                failures.append(f"{variant.value}: {counts.get(variant, 0)} records for {self.n_docs} docs")
        for variant in (decomp.TaskVariant.TRIGGER_TYPE_SINGLE, decomp.TaskVariant.ARG_EXTRACTION_SINGLE):
            if counts.get(variant, 0) != n_triggers:
                failures.append(f"{variant.value}: {counts.get(variant, 0)} records for {n_triggers} triggers")
        if len(state["first"].splitlines()) != len(records):
            failures.append("written dataset line count differs from the record count")
        # Quality: do the full-structure answers ground back to the gold spans?
        by_id = {doc.doc_id: doc for doc in state["corpus"]}
        preds = {
            r.doc_id: _event_records(revent.parse_agent_output(r.answer, by_id[r.doc_id]))
            for r in records if r.variant is decomp.TaskVariant.FULL_STRUCTURE
        }
        trg, arg = f1_scores(preds, state["inp"]["docs"])
        return failures, {"trg_c_f1": trg, "arg_c_f1": arg}


WORKLOADS = {w.name: w for w in (ExtractOffline, ExtractLive, Tune, GenDecomp)}
