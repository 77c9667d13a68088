import json
from pathlib import Path

import pytest

from revent.cli import RunConfig, main
from revent.errors import ConfigurationError

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


def test_extract_twice_is_byte_identical(data_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_extract_args(data_dir, out1)) == 0
    assert main(_extract_args(data_dir, out2)) == 0
    for name in ("predictions.jsonl", "metrics.json", "audit.jsonl",
                 "thresholds.json", "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_thresholds_file_written_like_other_artifacts(data_dir, tmp_path):
    assert main(_extract_args(data_dir, tmp_path)) == 0
    mode = (tmp_path / "predictions.jsonl").stat().st_mode
    assert (tmp_path / "thresholds.json").stat().st_mode == mode
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_extract_missing_tagger_file_nonzero_exit(data_dir, tmp_path, capsys):
    code = main(_extract_args(data_dir, tmp_path, **{"--tagger-preds": "no/such/file.jsonl"}))
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def test_run_config_requires_exactly_one_threshold_source(data_dir, tmp_path):
    with pytest.raises(ConfigurationError):
        RunConfig(
            corpus=data_dir / "corpus.jsonl",
            tagger_preds=data_dir / "tagger.jsonl",
            backend="oracle",
            out_dir=tmp_path,
        )
    with pytest.raises(ConfigurationError):
        RunConfig(
            corpus=data_dir / "corpus.jsonl",
            tagger_preds=data_dir / "tagger.jsonl",
            backend="oracle",
            out_dir=tmp_path,
            thresholds_path="x.json",
            tune_corpus=data_dir / "corpus.jsonl",
        )


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


def test_extract_with_tune_source(data_dir, tmp_path):
    argv = _extract_args(data_dir, tmp_path)
    argv.remove("--thresholds")
    argv.remove("builtin:llama-3.1/m2e2/0.9")
    argv += [
        "--tune", str(data_dir / "corpus.jsonl"),
        "--tune-tagger-preds", str(data_dir / "tagger.jsonl"),
        "--grid-step", "0.1",
    ]
    assert main(argv) == 0
    assert (tmp_path / "thresholds.json").exists()
    assert (tmp_path / "predictions.jsonl").exists()


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


def test_oracle_backend_end_to_end(data_dir, tmp_path):
    # With a gold-answering backend every prediction source is perfect.
    argv = _extract_args(data_dir, tmp_path, **{"--backend": "oracle"})
    assert main(argv) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["trigger_cls"]["recall"] == 1.0
