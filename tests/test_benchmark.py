"""The benchmark's contract with the program: the names it traces exist."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
