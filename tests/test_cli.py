import json
import os
import random
import stat
import sys
import threading
import time
from pathlib import Path

import pytest

from revent import cli
from revent.cli import main
from revent.errors import BackendError
from revent.fencing import render_events_answer
from revent.model import EventMention
from revent.simulate import OracleProfile, make_synthetic_corpus, synthesize_tagger_predictions

GOLDEN = Path(__file__).parent / "data" / "golden"


def _extract_args(data_dir, out_dir, **overrides):
    args = {
        "--corpus": str(data_dir / "corpus.jsonl"),
        "--tagger-preds": str(data_dir / "tagger.jsonl"),
        "--backend": f"replay:{data_dir / 'replay.json'}",
        "--agents": "10",
        "--thresholds": "builtin:llama-3.1/m2e2/0.9",
        "--out": str(out_dir),
    }
    args.update(overrides)
    flat = ["extract"]
    for key, value in args.items():
        flat += [key, value]
    return flat


def test_extract_matches_golden_files(data_dir, tmp_path, capsys):
    assert main(_extract_args(data_dir, tmp_path)) == 0
    for name in ("predictions.jsonl", "metrics.json", "audit.jsonl"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    out = capsys.readouterr().out
    assert "Trg-I" in out


def test_extract_thresholds_and_summary_match_golden_files(data_dir, tmp_path):
    argv = _extract_args(data_dir, tmp_path)
    assert main(argv) == 0
    assert (tmp_path / "thresholds.json").read_bytes() == (GOLDEN / "thresholds.json").read_bytes()
    # "backend" holds this run's fixture path; the golden file has the
    # descriptor of a run from the repo root.
    summary = (tmp_path / "run_summary.json").read_text(encoding="utf-8")
    backend = json.dumps(argv[argv.index("--backend") + 1])
    assert summary.count(backend) == 1
    masked = summary.replace(backend, json.dumps("replay:tests/data/replay.json"))
    assert masked == (GOLDEN / "run_summary.json").read_text(encoding="utf-8")


def test_tune_thresholds_file_and_stdout_match_golden_file(data_dir, tmp_path, capsys):
    out = tmp_path / "tuned.json"
    code = main([
        "tune-thresholds",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--tagger-preds", str(data_dir / "tagger.jsonl"),
        "--backend", f"replay:{data_dir / 'replay.json'}",
        "--grid-step", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    golden = (GOLDEN / "tune_thresholds.json").read_bytes()
    assert out.read_bytes() == golden
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_simulate_report_matches_golden_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["simulate", "--out", str(out)]) == 0
    golden = (GOLDEN / "simulate.json").read_bytes()
    assert out.read_bytes() == golden
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_evaluate_golden_predictions_writes_golden_metrics(data_dir, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main([
        "evaluate",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--predictions", str(GOLDEN / "predictions.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "metrics.json").read_bytes()
    assert "Trg-I" in capsys.readouterr().out


def test_extract_twice_is_byte_identical(data_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_extract_args(data_dir, out1)) == 0
    assert main(_extract_args(data_dir, out2)) == 0
    for name in ("predictions.jsonl", "metrics.json", "audit.jsonl",
                 "thresholds.json", "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_extract_on_empty_corpus_writes_empty_jsonl_files(data_dir, tmp_path):
    (tmp_path / "corpus.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "tagger.jsonl").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    argv = _extract_args(
        data_dir, out, **{"--corpus": str(tmp_path / "corpus.jsonl"),
                          "--tagger-preds": str(tmp_path / "tagger.jsonl")},
    )
    assert main(argv) == 0
    assert (out / "predictions.jsonl").read_bytes() == b""
    assert (out / "audit.jsonl").read_bytes() == b""


def test_thresholds_file_written_like_other_artifacts(data_dir, tmp_path):
    assert main(_extract_args(data_dir, tmp_path)) == 0
    mode = (tmp_path / "predictions.jsonl").stat().st_mode
    assert (tmp_path / "thresholds.json").stat().st_mode == mode
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_artifacts_honour_the_umask(data_dir, tmp_path):
    artifacts = ["audit.jsonl", "decomp.jsonl", "metrics.json", "predictions.jsonl",
                 "run_summary.json", "thresholds.json"]
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / oct(umask)
        previous = os.umask(umask)
        try:
            assert main(_extract_args(data_dir, out)) == 0
            assert main(["gen-decomp", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--out", str(out / "decomp.jsonl")]) == 0
        finally:
            os.umask(previous)
        assert sorted(p.name for p in out.iterdir()) == artifacts
        for name in artifacts:
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, (oct(umask), name)


def test_extract_missing_tagger_file_nonzero_exit(data_dir, tmp_path, capsys):
    code = main(_extract_args(data_dir, tmp_path, **{"--tagger-preds": "no/such/file.jsonl"}))
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def _assert_configuration_error(argv, out, capsys, match):
    """``main(argv)`` exits 2 with a JSON ConfigurationError naming ``match``
    and leaves ``out`` without files."""
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigurationError"
    assert match in error["message"]
    assert not out.exists() or not list(out.iterdir())


def test_run_config_requires_exactly_one_threshold_source(data_dir, tmp_path):
    out = tmp_path / "out"
    without = _extract_args(data_dir, out, **{"--backend": "oracle"})
    del without[without.index("--thresholds"):without.index("--thresholds") + 2]
    for argv in (without,
                 _extract_args(data_dir, out, **{"--tune": str(data_dir / "corpus.jsonl")}),
                 _extract_args(data_dir, out, **{"--grid-step": "0.1"})):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("parallelism", [0, -3])
def test_run_config_rejects_parallelism_below_one(data_dir, tmp_path, capsys, parallelism):
    out = tmp_path / "out"
    argv = _extract_args(data_dir, out, **{"--backend": "oracle", "--parallelism": str(parallelism)})
    _assert_configuration_error(argv, out, capsys, "parallelism")


def test_flags_are_checked_before_any_input_is_read(tmp_path, capsys):
    out = tmp_path / "out"
    argv = _extract_args(tmp_path / "missing", out, **{"--parallelism": "0"})
    _assert_configuration_error(argv, out, capsys, "parallelism")
    argv = _extract_args(tmp_path / "missing", out, **{"--agents": "0"})
    _assert_configuration_error(argv, out, capsys, "agents")
    argv = ["tune-thresholds", "--corpus", str(tmp_path / "missing.jsonl"),
            "--tagger-preds", str(tmp_path / "missing.jsonl"), "--backend", "oracle",
            "--parallelism", "0", "--out", str(out / "thresholds.json")]
    _assert_configuration_error(argv, out, capsys, "parallelism")
    for value in ("0", "-0.5", "1.5", "nan"):
        argv = _extract_args(tmp_path / "missing", out, **{"--overlap-threshold": value})
        _assert_configuration_error(argv, out, capsys, "--overlap-threshold")
    for value in ("0", "-0.1", "inf", "nan", "1e-9", "5e-7"):
        argv = ["tune-thresholds", "--corpus", str(tmp_path / "missing.jsonl"),
                "--tagger-preds", str(tmp_path / "missing.jsonl"), "--backend", "oracle",
                "--grid-step", value, "--out", str(out / "thresholds.json")]
        _assert_configuration_error(argv, out, capsys, "--grid-step")
    for value in ("nan", "inf", "-1"):
        argv = _extract_args(tmp_path / "missing", out, **{"--temperature": value})
        _assert_configuration_error(argv, out, capsys, "--temperature")
        argv[0] = "tune-thresholds"
        del argv[argv.index("--thresholds"):argv.index("--thresholds") + 2]
        _assert_configuration_error(argv, out, capsys, "--temperature")
    argv = _extract_args(tmp_path / "missing", out, **{"--thresholds": "builtin:llama-3.1/m2e2"})
    _assert_configuration_error(argv, out, capsys, "builtin:MODEL/DATASET/TEMP")


# Configuration files and descriptors that are wrong in content, by shape
# or by type: (file content or None, flags with {path} for the file).
BAD_CONFIGURATIONS = {
    "builtin-temperature-not-a-number": (None, {"--thresholds": "builtin:llama-3.1/m2e2/abc"}),
    "thresholds-wrong-type": ('{"trigger": 5}', {"--thresholds": "{path}"}),
    "thresholds-not-json": ("{oops", {"--thresholds": "{path}"}),
    "thresholds-nan": (
        '{"trigger": {"theta_s": NaN, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}, '
        '"argument": {"theta_s": 0.5, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}}',
        {"--thresholds": "{path}"},
    ),
    "thresholds-bool": (
        '{"trigger": {"theta_s": 0.5, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}, '
        '"argument": {"theta_s": true, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}}',
        {"--thresholds": "{path}"},
    ),
    "replay-not-json": ("{oops", {"--backend": "replay:{path}"}),
    "replay-not-an-object": ("[1, 2]", {"--backend": "replay:{path}"}),
    "replay-reply-not-a-string": ('{"gandhi": {"agent:1": 5}}', {"--backend": "replay:{path}"}),
    "thresholds-missing-level": (
        '{"trigger": {"theta_s": 0.5, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}}',
        {"--thresholds": "{path}"},
    ),
    "thresholds-negative": (
        '{"trigger": {"theta_s": -0.5, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}, '
        '"argument": {"theta_s": 0.5, "theta_smoa_hi": 0.5, "theta_smoa_lo": 0.1}}',
        {"--thresholds": "{path}"},
    ),
    "scenario-not-json": ("{oops", {"--scenario": "{path}"}),
    "scenario-unknown-key": ('{"n_doc": 5}', {"--scenario": "{path}"}),
    "scenario-not-an-object": ("[1, 2]", {"--scenario": "{path}"}),
    "scenario-wrong-type": ('{"n_docs": "x"}', {"--scenario": "{path}"}),
    "scenario-missing-key": ('{"thresholds": {"trigger": {}}}', {"--scenario": "{path}"}),
    "scenario-negative-docs": ('{"n_docs": -3}', {"--scenario": "{path}"}),
    "scenario-zero-agents": ('{"n_agents": 0}', {"--scenario": "{path}"}),
    "scenario-overlap-nan": ('{"overlap_threshold": NaN}', {"--scenario": "{path}"}),
    "scenario-confidence-nan": (
        '{"tagger": {"target_precision": 0.9, "target_recall": 0.6, '
        '"correct_confidence": [NaN, 1.0]}}',
        {"--scenario": "{path}"},
    ),
    "scenario-confidence-above-one": (
        '{"agents": {"target_precision": 0.5, "target_recall": 0.9, '
        '"correct_confidence": [0.5, 7]}}',
        {"--scenario": "{path}"},
    ),
    "scenario-seed-nan": (
        '{"tagger": {"target_precision": 0.9, "target_recall": 0.6, "seed": NaN}}',
        {"--scenario": "{path}"},
    ),
    "scenario-precision-bool": (
        '{"tagger": {"target_precision": true, "target_recall": 0.6}}',
        {"--scenario": "{path}"},
    ),
    "scenario-vocabulary-string": (
        '{"agents": {"target_precision": 0.5, "target_recall": 0.9, "hallucination_vocabulary": "report"}}',
        {"--scenario": "{path}"},
    ),
    "scenario-vocabulary-numbers": (
        '{"agents": {"target_precision": 0.5, "target_recall": 0.9, "hallucination_vocabulary": [1, 2]}}',
        {"--scenario": "{path}"},
    ),
    "scenario-vocabulary-empty-word": (
        '{"tagger": {"target_precision": 0.9, "target_recall": 0.6, "hallucination_vocabulary": ["report", ""]}}',
        {"--scenario": "{path}"},
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGURATIONS))
def test_bad_configuration_exits_2_with_json_error(data_dir, tmp_path, capsys, case):
    content, flags = BAD_CONFIGURATIONS[case]
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    flags = {key: value.format(path=path) for key, value in flags.items()}
    out = tmp_path / "out"
    if "--scenario" in flags:
        argv = ["simulate", "--scenario", flags["--scenario"], "--out", str(out / "report.json")]
    else:
        argv = _extract_args(data_dir, out, **flags)
    match = "abc" if content is None else str(path)
    _assert_configuration_error(argv, out, capsys, match)


def test_tune_thresholds_rejects_parallelism_below_one(data_dir, tmp_path, capsys):
    code = main([
        "tune-thresholds",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--tagger-preds", str(data_dir / "tagger.jsonl"),
        "--backend", f"replay:{data_dir / 'replay.json'}",
        "--parallelism", "0",
        "--out", str(tmp_path / "thresholds.json"),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"
    assert not (tmp_path / "thresholds.json").exists()


def test_tune_thresholds_subcommand(data_dir, tmp_path, capsys):
    out = tmp_path / "thresholds.json"
    code = main([
        "tune-thresholds",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--tagger-preds", str(data_dir / "tagger.jsonl"),
        "--backend", f"replay:{data_dir / 'replay.json'}",
        "--agents", "10",
        "--grid-step", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    tuned = json.loads(out.read_text())
    assert set(tuned) == {"trigger", "argument"}
    for level in tuned.values():
        assert set(level) == {"theta_s", "theta_smoa_hi", "theta_smoa_lo"}


def test_extract_with_tuned_thresholds(data_dir, tmp_path):
    tuned = tmp_path / "tuned.json"
    assert main([
        "tune-thresholds",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--tagger-preds", str(data_dir / "tagger.jsonl"),
        "--backend", f"replay:{data_dir / 'replay.json'}",
        "--grid-step", "0.1",
        "--out", str(tuned),
    ]) == 0
    out = tmp_path / "out"
    assert main(_extract_args(data_dir, out, **{"--thresholds": str(tuned)})) == 0
    assert (out / "thresholds.json").read_bytes() == tuned.read_bytes()
    assert (out / "predictions.jsonl").exists()


def test_evaluate_subcommand(data_dir, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main([
        "evaluate",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--predictions", str(GOLDEN / "predictions.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["trigger_cls"]["tp"] == 3
    assert metrics["argument_cls"]["tp"] == 2
    assert metrics["argument_cls"]["fn"] == 1


@pytest.mark.parametrize("bad_line", ['[1, 2]', '{"doc_id": "gandhi", "events": [{"type": "T"}]}'])
def test_evaluate_malformed_predictions_exits_2_with_json_error(data_dir, tmp_path, capsys, bad_line):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        (GOLDEN / "predictions.jsonl").read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8"
    )
    n_good = len((GOLDEN / "predictions.jsonl").read_text(encoding="utf-8").splitlines())
    code = main([
        "evaluate",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--predictions", str(predictions),
        "--out", str(tmp_path / "metrics.json"),
    ])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "CorpusFormatError"
    assert error["message"].startswith(f"line {n_good + 1}: ")
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command", ["extract", "evaluate", "gen-decomp"])
def test_corpus_that_is_not_utf8_exits_2_with_json_error(data_dir, tmp_path, capsys, command):
    lines = (data_dir / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    lines[1] = lines[1].replace(b"Gandhi", b"Gandh\xe9", 1)
    corpus.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    argv = {
        "extract": _extract_args(data_dir, out, **{"--corpus": str(corpus)}),
        "evaluate": ["evaluate", "--corpus", str(corpus),
                     "--predictions", str(GOLDEN / "predictions.jsonl"), "--out", str(out)],
        "gen-decomp": ["gen-decomp", "--corpus", str(corpus), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "CorpusFormatError"
    assert error["message"] == "line 2: not UTF-8: byte 0xE9"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-decomp", "evaluate", "tune-thresholds"])
def test_document_without_gold_exits_2_naming_it(data_dir, tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        (data_dir / "corpus.jsonl").read_text(encoding="utf-8")
        + json.dumps({"doc_id": "bare", "text": "nothing happened"}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = {
        "gen-decomp": ["gen-decomp", "--corpus", str(corpus), "--out", str(out)],
        "evaluate": ["evaluate", "--corpus", str(corpus),
                     "--predictions", str(GOLDEN / "predictions.jsonl"), "--out", str(out)],
        "tune-thresholds": ["tune-thresholds", "--corpus", str(corpus),
                            "--tagger-preds", str(data_dir / "tagger.jsonl"),
                            "--backend", f"replay:{data_dir / 'replay.json'}", "--out", str(out)],
    }[command]
    _assert_configuration_error(argv, out, capsys, "doc 'bare' has no gold events")


class _CallLog:
    """Passes every request on to ``inner`` and keeps it."""

    def __init__(self, inner):
        self.inner, self.requests = inner, []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


def test_dev_document_without_gold_fails_before_any_backend_call(
    data_dir, tmp_path, monkeypatch, capsys
):
    dev = tmp_path / "dev.jsonl"
    dev.write_text(
        (data_dir / "corpus.jsonl").read_text(encoding="utf-8")
        + json.dumps({"doc_id": "bare", "text": "nothing happened"}) + "\n",
        encoding="utf-8",
    )
    backends = []

    def logged(inner, corpus):
        backends.append(_CallLog(inner))
        return backends[-1]

    _wrap_backend(monkeypatch, logged)
    out = tmp_path / "out"
    argv = ["tune-thresholds", "--corpus", str(dev),
            "--tagger-preds", str(data_dir / "tagger.jsonl"),
            "--backend", f"replay:{data_dir / 'replay.json'}", "--out", str(out)]
    _assert_configuration_error(argv, out, capsys, "doc 'bare' has no gold events")
    assert sum(len(backend.requests) for backend in backends) == 0


def test_gen_decomp_subcommand(data_dir, tmp_path, capsys):
    out = tmp_path / "decomp.jsonl"
    code = main([
        "gen-decomp",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--out", str(out),
        "--seed", "3",
    ])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    # two documents -> two full-structure records among the output
    assert sum(1 for r in lines if r["variant"] == "full_structure_construction") == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == len(lines)


def test_gen_decomp_unknown_variant_rejected(data_dir, tmp_path, capsys):
    code = main([
        "gen-decomp",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--out", str(tmp_path / "d.jsonl"),
        "--variants", "nonexistent_variant",
    ])
    assert code == 2


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["simulate", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    f1 = report["trigger_cls_f1"]
    assert f1["pipeline"] > f1["tagger"]
    assert f1["pipeline"] > f1["smoa"]


def test_simulate_reads_a_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"n_docs": 5}', encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report == json.loads(capsys.readouterr().out)
    assert report["scenario"]["n_docs"] == 5


def test_oracle_backend_end_to_end(data_dir, tmp_path):
    # With a gold-answering backend every prediction source is perfect.
    argv = _extract_args(data_dir, tmp_path, **{"--backend": "oracle"})
    assert main(argv) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["trigger_cls"]["recall"] == 1.0


# --- cross-document concurrency -------------------------------------------

ARTIFACTS = ("predictions.jsonl", "audit.jsonl", "metrics.json", "run_summary.json")


def _span_record(span):
    return {"text": span.text, "start": span.start, "end": span.end}


def _write_synthetic(directory, n_docs, seed=5):
    """A seeded corpus and tagger file; returns the ``extract`` input flags."""
    corpus = make_synthetic_corpus(n_docs, seed=seed)
    tagger = synthesize_tagger_predictions(
        corpus, OracleProfile(target_precision=0.8, target_recall=0.7, seed=seed)
    )
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path, tagger_path = directory / "corpus.jsonl", directory / "tagger.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            events = [{
                "trigger": _span_record(e.trigger),
                "type": e.event_type,
                "arguments": [{**_span_record(a.span), "role": a.role} for a in e.arguments],
            } for e in doc.gold_events]
            fh.write(json.dumps({"doc_id": doc.doc_id, "text": doc.text, "events": events}) + "\n")
    with open(tagger_path, "w", encoding="utf-8") as fh:
        for doc_id, preds in tagger.items():
            events = [{
                "trigger": _span_record(p.event.trigger),
                "type": p.event.event_type,
                "trigger_confidence": p.trigger_confidence,
                "arguments": [
                    {**_span_record(a.span), "role": a.role, "confidence": c}
                    for a, c in zip(p.event.arguments, p.argument_confidences)
                ],
            } for p in preds]
            fh.write(json.dumps({"doc_id": doc_id, "events": events}) + "\n")
    return {"--corpus": str(corpus_path), "--tagger-preds": str(tagger_path), "--backend": "oracle"}


def _wrap_backend(monkeypatch, wrapper):
    """Route ``extract``'s backends through ``wrapper(backend, corpus)``."""
    real = cli.make_backend
    monkeypatch.setattr(
        cli, "make_backend",
        lambda descriptor, corpus=None: wrapper(real(descriptor, corpus=corpus), corpus),
    )


class _NoisyBackend:
    """Seeded per-request jitter over the oracle, with agents that each miss
    some gold events, so votes split and reflection runs.

    Delay and reply depend only on (seed, doc_id, channel), so completion
    order differs between runs at different parallelism but answers do not.
    """

    def __init__(self, inner, corpus, seed=11):
        self.inner, self.seed = inner, seed
        self.gold = {doc.doc_id: doc.gold_events for doc in corpus}

    def complete(self, request):
        doc_id, channel = request.metadata.get("doc_id"), request.metadata.get("channel")
        rng = random.Random(f"{self.seed}:{doc_id}:{channel}")
        time.sleep(rng.uniform(0.0005, 0.004))
        if channel.startswith("agent:"):
            return render_events_answer([e for e in self.gold[doc_id] if rng.random() < 0.6])
        return self.inner.complete(request)


def test_extract_is_byte_identical_across_parallelism(data_dir, tmp_path, monkeypatch):
    flags = _write_synthetic(tmp_path / "in", 14)
    _wrap_backend(monkeypatch, _NoisyBackend)
    outputs = {}
    for parallelism in (1, 3, 4, 8):
        out = tmp_path / f"p{parallelism}"
        argv = _extract_args(data_dir, out, **flags, **{"--parallelism": str(parallelism)})
        assert main(argv) == 0
        outputs[parallelism] = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert json.loads(outputs[1]["run_summary.json"])["documents"] == 14
    assert len(outputs[1]["audit.jsonl"].splitlines()) >= 14
    for parallelism in (3, 4, 8):
        for name in ARTIFACTS:
            assert outputs[parallelism][name] == outputs[1][name], (parallelism, name)


def _doc_blocks(path):
    """A JSON-lines artifact's lines grouped into runs of one doc_id, keyed by it."""
    blocks: dict[str, list[str]] = {}
    previous = None
    for line in path.read_text(encoding="utf-8").splitlines():
        doc_id = json.loads(line)["doc_id"]
        assert doc_id == previous or doc_id not in blocks, f"{doc_id} is split"
        blocks.setdefault(doc_id, []).append(line)
        previous = doc_id
    return blocks


def test_shuffling_the_corpus_permutes_the_extract_artifacts(data_dir, tmp_path, monkeypatch):
    flags = _write_synthetic(tmp_path / "in", 16)
    _wrap_backend(monkeypatch, _NoisyBackend)
    lines = Path(flags["--corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = tmp_path / "in" / "shuffled.jsonl"
    shuffled.write_text("".join(random.Random(7).sample(lines, len(lines))), encoding="utf-8")
    order = [json.loads(line)["doc_id"] for line in shuffled.read_text(encoding="utf-8").splitlines()]
    assert order != [json.loads(line)["doc_id"] for line in lines]
    outputs = {}
    for name, corpus in (("plain", flags["--corpus"]), ("shuffled", str(shuffled))):
        outputs[name] = tmp_path / name
        assert main(_extract_args(data_dir, outputs[name], **{**flags, "--corpus": corpus})) == 0
    plain, permuted = outputs["plain"], outputs["shuffled"]
    predictions = _doc_blocks(plain / "predictions.jsonl")
    assert (permuted / "predictions.jsonl").read_text(encoding="utf-8").splitlines() == [
        line for doc_id in order for line in predictions[doc_id]
    ]
    audit = _doc_blocks(plain / "audit.jsonl")
    assert len(audit) >= 8
    assert list(_doc_blocks(permuted / "audit.jsonl").items()) == [
        (doc_id, audit[doc_id]) for doc_id in order if doc_id in audit
    ]
    for name in ("metrics.json", "run_summary.json"):
        assert (permuted / name).read_bytes() == (plain / name).read_bytes(), name


class _CountingBackend:
    """Records the peak number of concurrent calls, and of documents with a
    call in flight.

    Until ``target`` calls have been in flight at once, each call waits
    (bounded by a timeout) for others to arrive, so a run that can reach
    the target does; after one timeout nobody waits again.
    """

    def __init__(self, inner, target):
        self.inner, self.target = inner, target
        self.by_doc: dict[str, int] = {}
        self.peak = self.peak_docs = 0
        self.gave_up = False
        self.cond = threading.Condition()

    def complete(self, request):
        doc_id = request.metadata.get("doc_id")
        with self.cond:
            self.by_doc[doc_id] = self.by_doc.get(doc_id, 0) + 1
            self.peak = max(self.peak, sum(self.by_doc.values()))
            self.peak_docs = max(self.peak_docs, len(self.by_doc))
            self.cond.notify_all()
            if not self.gave_up and not self.cond.wait_for(
                lambda: self.peak >= self.target, timeout=2.0
            ):
                self.gave_up = True
        try:
            time.sleep(0.001)
            return self.inner.complete(request)
        finally:
            with self.cond:
                self.by_doc[doc_id] -= 1
                if not self.by_doc[doc_id]:
                    del self.by_doc[doc_id]


@pytest.mark.parametrize("n_docs,parallelism", [(12, 3), (12, 4), (1, 4), (12, 8), (5, 8)])
def test_backend_calls_in_flight_never_exceed_parallelism(
    data_dir, tmp_path, monkeypatch, n_docs, parallelism
):
    flags = _write_synthetic(tmp_path / "in", n_docs)
    backends = []

    def counting(inner, corpus):
        backends.append(_CountingBackend(inner, parallelism))
        return backends[-1]

    _wrap_backend(monkeypatch, counting)
    argv = _extract_args(data_dir, tmp_path / "out", **flags, **{"--parallelism": str(parallelism)})
    codes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert codes == [0]
    (backend,) = backends
    # min(parallelism, documents) documents run at once, each with
    # parallelism // that many agent workers (at least one).
    doc_workers = min(parallelism, n_docs)
    assert backend.peak <= parallelism
    assert backend.peak_docs == doc_workers
    assert backend.peak == doc_workers * max(1, parallelism // doc_workers)
    assert not backend.gave_up or backend.peak < parallelism


class _FailingBackend:
    """Fails every call for one document, answers the others after a delay."""

    def __init__(self, inner, failing_doc):
        self.inner, self.failing_doc = inner, failing_doc
        self.requested = set()
        self.lock = threading.Lock()

    def complete(self, request):
        doc_id = request.metadata.get("doc_id")
        with self.lock:
            self.requested.add(doc_id)
        if doc_id == self.failing_doc:
            raise BackendError(f"simulated outage for {doc_id}")
        time.sleep(0.003)
        return self.inner.complete(request)


def test_failing_document_stops_the_run(data_dir, tmp_path, monkeypatch, capsys):
    flags = _write_synthetic(tmp_path / "in", 40)
    backends = []

    def failing(inner, corpus):
        backends.append(_FailingBackend(inner, "doc-0002"))
        return backends[-1]

    _wrap_backend(monkeypatch, failing)
    out = tmp_path / "out"
    assert main(_extract_args(data_dir, out, **flags, **{"--parallelism": "4"})) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "OrchestrationError"
    assert "doc-0002" in error["message"]
    assert not out.exists() or not list(out.iterdir())
    (backend,) = backends
    assert "doc-0002" in backend.requested
    assert max(int(doc_id.split("-")[1]) for doc_id in backend.requested) < 10


def test_reflection_backend_error_stops_extract_with_exit_2(data_dir, tmp_path, capsys):
    # Agent replies only: the first reflection call finds no scripted reply.
    replay = json.loads((data_dir / "replay.json").read_text(encoding="utf-8"))
    agents_only = {
        doc_id: {c: r for c, r in channels.items() if c.startswith("agent:")}
        for doc_id, channels in replay.items()
    }
    fixture = tmp_path / "agents_only.json"
    fixture.write_text(json.dumps(agents_only), encoding="utf-8")
    out = tmp_path / "out"
    assert main(_extract_args(data_dir, out, **{"--backend": f"replay:{fixture}"})) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "OrchestrationError"
    assert error["message"].startswith("reflection:")
    assert not out.exists() or not list(out.iterdir())


def test_oracle_extract_scores_perfect_argument_f1(tmp_path):
    # make_synthetic_corpus(200, seed=88) repeats argument surfaces; each
    # must ground to the occurrence nearest its trigger.
    flags = _write_synthetic(tmp_path / "in", 200, seed=88)
    argv = _extract_args(tmp_path, tmp_path / "out", **flags)
    assert main(argv) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["trigger_cls"]["f1"] == 1.0
    assert metrics["argument_cls"]["f1"] == 1.0


class _SubsetAgents:
    """Agents that each keep every gold event with p 0.9 and each of its
    arguments with p 0.8, so one trigger reaches reflection with several
    argument sets; reflection is answered by the wrapped backend. Records
    every (doc_id, channel, reply)."""

    def __init__(self, inner, corpus):
        self.inner = inner
        self.gold = {doc.doc_id: doc.gold_events for doc in corpus}
        self.calls = []
        self.lock = threading.Lock()

    def complete(self, request):
        doc_id, channel = request.metadata["doc_id"], request.metadata["channel"]
        if channel.startswith("agent:"):
            rng = random.Random(f"{doc_id}:{channel}")
            reply = render_events_answer([
                EventMention(
                    e.trigger, e.event_type, tuple(a for a in e.arguments if rng.random() < 0.8)
                )
                for e in self.gold[doc_id] if rng.random() < 0.9
            ])
        else:
            reply = self.inner.complete(request)
        with self.lock:
            self.calls.append((doc_id, channel, reply))
        return reply


def _subset_agents_run(tmp_path, monkeypatch):
    """One extract run under _SubsetAgents; returns (flags, output dir, backend)."""
    flags = _write_synthetic(tmp_path / "in", 20, seed=3)
    backends = []

    def subset_agents(inner, corpus):
        backends.append(_SubsetAgents(inner, corpus))
        return backends[-1]

    _wrap_backend(monkeypatch, subset_agents)
    out = tmp_path / "recorded"
    assert main(_extract_args(tmp_path, out, **flags)) == 0
    monkeypatch.undo()
    (backend,) = backends
    return flags, out, backend


def test_one_argument_prompt_per_trigger_id(tmp_path, monkeypatch):
    _, _, backend = _subset_agents_run(tmp_path, monkeypatch)
    asked = [(doc_id, channel) for doc_id, channel, _ in backend.calls
             if channel.startswith("reflection:arguments:")]
    assert asked
    assert len(set(asked)) == len(asked)


def test_recorded_run_replays_byte_identically(tmp_path, monkeypatch):
    flags, recorded, backend = _subset_agents_run(tmp_path, monkeypatch)
    fixture: dict[str, dict[str, str]] = {}
    for doc_id, channel, reply in backend.calls:
        fixture.setdefault(doc_id, {})[channel] = reply
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    replayed = tmp_path / "replayed"
    argv = _extract_args(tmp_path, replayed, **{**flags, "--backend": f"replay:{path}"})
    assert main(argv) == 0
    for name in ("predictions.jsonl", "audit.jsonl", "metrics.json", "thresholds.json"):
        assert (replayed / name).read_bytes() == (recorded / name).read_bytes(), name
