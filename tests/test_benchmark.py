"""The benchmark's contract with the program: the names it traces exist."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name, monkeypatch):
    """perfbench/``name``.py as a module, registered only for this test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch).Tracer()
    try:
        tracer.install(_load("run", monkeypatch).trace_targets())
    finally:
        tracer.uninstall()
    # A known stale target: tuning no longer imports extract_document.
    assert tracer.missing == ["revent.tuning.extract_document"]


def test_tune_reaches_every_traced_tuning_name(monkeypatch):
    from revent import tuning
    from test_tuning import _dev_fixture

    names = sorted(
        attr
        for owner, attr, _ in _load("run", monkeypatch).trace_targets()
        if owner is tuning and hasattr(tuning, attr)
    )
    assert names == [
        "cleanup_predictions",
        "collect_confidence_samples",
        "evaluate_threshold_set",
        "score_predictions",
        "tune_thresholds",
    ]
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(tuning, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tuning, name, counted)
    tuning.tune_thresholds(*_dev_fixture(3))
    assert all(calls.values()), calls


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_its_parent_and_host(path):
    """A committed speed claim records the commit it was measured against
    and the host it ran on."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    nproc = record["host"]["nproc"]
    assert type(nproc) is int and nproc >= 1
    assert isinstance(record["host"]["python"], str) and record["host"]["python"]
