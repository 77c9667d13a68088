"""Tests that run revent in fresh interpreters: what ``import revent`` loads,
and artifacts that must not depend on the process that wrote them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

# Standard-library modules that only some paths need: HTTP, the agent
# thread pool and the reflection fallback's warning import their own.
_LOADED_ON_FIRST_USE = [
    "urllib.request", "http.client", "email", "ssl", "concurrent.futures", "logging", "secrets",
]


def _python(args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _loaded_by(modules: str) -> set[str]:
    """Every module loaded in a fresh interpreter once ``import <modules>``
    has run, under -S, where no .pth file preloads any."""
    code = f"import json, sys; import {modules}; print(json.dumps(sorted(sys.modules)))"
    result = _python(["-S", "-c", code])
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_import_revent_loads_no_module_that_only_some_paths_need():
    assert sorted(_loaded_by("revent") & set(_LOADED_ON_FIRST_USE)) == []


def test_cli_simulate_and_decomp_load_no_http_module():
    """HTTP stays a first-use import of the command line too."""
    loaded = _loaded_by("revent.cli, revent.simulate, revent.decomp")
    assert sorted(loaded & {"urllib.request", "http.client", "ssl", "email"}) == []


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_artifacts_match_golden_files_in_any_process(tmp_path, hash_seed):
    """Criterion 10 compares two runs in one process; string-hash order
    differs only between processes."""
    cli = ["-c", "import sys; from revent.cli import main; sys.exit(main(sys.argv[1:]))"]
    out = tmp_path / "extract"
    result = _python(cli + [
        "extract",
        "--corpus", "tests/data/corpus.jsonl",
        "--tagger-preds", "tests/data/tagger.jsonl",
        "--backend", "replay:tests/data/replay.json",
        "--agents", "10",
        "--thresholds", "builtin:llama-3.1/m2e2/0.9",
        "--out", str(out),
    ], hash_seed)
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in out.iterdir())
    assert written == ["audit.jsonl", "metrics.json", "predictions.jsonl",
                       "run_summary.json", "thresholds.json"]
    decomp = tmp_path / "decomp.jsonl"
    result = _python(cli + [
        "gen-decomp", "--corpus", "tests/data/corpus.jsonl", "--out", str(decomp), "--seed", "0",
    ], hash_seed)
    assert result.returncode == 0, result.stderr
    for path in [*(out / name for name in written), decomp]:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
