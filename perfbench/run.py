"""revent benchmark: one workload per invocation, result JSON on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload extract-offline --seed 1 --seconds 15 --trace 0

Workloads are extract-offline, extract-live, tune and gen-decomp (see
``workloads.py`` and ``layers.json``). With ``--trace 0`` the result holds
the end-to-end metrics; with ``--trace 1`` a separate traced run wraps the
program's public functions and reports per-layer metrics. The program is
imported from ``src/`` of the checkout the script sits in; the benchmark
writes only under ``.perfbench_tmp/`` there and removes it on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_OPS = 3

END_TO_END = {
    "docs_per_s": "docs/s",
    "op_s": "s",
    "trg_c_f1": "F1",
    "arg_c_f1": "F1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: (traced layer, field) -> unit, then derived metrics.
LAYER_FIELDS = {
    "ingest.load": {"s": "s"},
    "ingest.parse_agent_output": {"calls": "count", "s": "s", "fail": "count"},
    "backends.complete": {"calls": "count", "s": "s", "p50_ms": "ms", "p99_ms": "ms", "fail": "count"},
    "ensemble.run_self_moa": {"calls": "count", "s": "s", "self_s": "s"},
    "ensemble.cleanup_predictions": {"s": "s"},
    "ensemble.ledger": {"calls": "count", "s": "s"},
    "agreement.match_triggers": {"s": "s"},
    "agreement.match_arguments": {"s": "s"},
    "confidence.filter_disagreements": {"calls": "count", "s": "s"},
    "integration.finalize_events": {"s": "s"},
    "pipeline.extract_document": {"calls": "count", "self_s": "s"},
    "reflection.reflect": {"calls": "count", "self_s": "s"},
    "tuning.evaluate_threshold_set": {"calls": "count"},
    "tuning.collect_confidence_samples": {"s": "s"},
    "tuning.tune_thresholds": {"s": "s"},
    "decomp.generate_dataset": {"s": "s"},
    "decomp.sample_negative_ngrams": {"s": "s"},
    "decomp.render_instruction": {"calls": "count", "s": "s"},
    "decomp.write_dataset": {"s": "s"},
    "decomp.extraction_prompt": {"s": "s"},
    "metrics.score_predictions": {"s": "s"},
    "cli.run_pipeline": {"self_s": "s"},
}
RENAMED = {"ensemble.ledger.calls": "ensemble.ledger.queries"}
DERIVED = {
    "backends.in_flight.max": "count",
    "backends.in_flight.mean": "count",
    "reflection.prompts": "count",
    "reflection.parse_fail": "count",
    "reflection.fallbacks": "count",
    "reflection.ok_ratio": "ratio",
    "stub.calls": "count",
    "backend_calls_per_doc": "calls/doc",
    "decomp.records": "count",
    "trace.untraced_docs_per_s": "docs/s",
    "trace.traced_docs_per_s": "docs/s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fields in LAYER_FIELDS.items():
        for field, unit in fields.items():
            name = f"{layer}.{field}"
            units[RENAMED.get(name, name)] = unit
    units.update(DERIVED)
    return units


def load_program() -> None:
    """Import revent from this checkout's src/, and nothing else."""
    if not (SRC / "revent" / "__init__.py").is_file():
        raise SystemExit(f"no revent package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import revent

    if Path(revent.__file__).resolve().parent != SRC / "revent":
        raise SystemExit(f"imported revent from {revent.__file__}, not from {SRC}")


def import_seconds() -> list[float]:
    """Times of ``import revent`` in fresh interpreters (set-up a user pays)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import revent; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def trace_targets():
    """(owner, attribute, layer) for every wrapped function, under the name
    its callers look up."""
    from revent import backends, cli, decomp, ensemble, pipeline, tuning

    return [
        (cli, "load_corpus", "ingest.load"),
        (cli, "load_tagger_predictions", "ingest.load"),
        (ensemble, "parse_agent_output", "ingest.parse_agent_output"),
        (backends.HttpChatBackend, "complete", "backends.complete"),
        (backends.ReplayBackend, "complete", "backends.complete"),
        (cli, "run_self_moa", "ensemble.run_self_moa"),
        (pipeline, "cleanup_predictions", "ensemble.cleanup_predictions"),
        (tuning, "cleanup_predictions", "ensemble.cleanup_predictions"),
        (ensemble.VoteLedger, "trigger_votes", "ensemble.ledger"),
        (ensemble.VoteLedger, "argument_votes", "ensemble.ledger"),
        (pipeline, "match_triggers", "agreement.match_triggers"),
        (pipeline, "match_arguments", "agreement.match_arguments"),
        (pipeline, "filter_disagreements", "confidence.filter_disagreements"),
        (pipeline, "finalize_events", "integration.finalize_events"),
        (cli, "extract_document", "pipeline.extract_document"),
        (tuning, "extract_document", "pipeline.extract_document"),
        (pipeline, "reflect", "reflection.reflect"),
        (tuning, "evaluate_threshold_set", "tuning.evaluate_threshold_set"),
        (tuning, "collect_confidence_samples", "tuning.collect_confidence_samples"),
        (tuning, "tune_thresholds", "tuning.tune_thresholds"),
        (decomp, "generate_dataset", "decomp.generate_dataset"),
        (decomp, "sample_negative_ngrams", "decomp.sample_negative_ngrams"),
        (decomp, "render_instruction", "decomp.render_instruction"),
        (decomp, "write_dataset", "decomp.write_dataset"),
        (decomp, "extraction_prompt", "decomp.extraction_prompt"),
        (cli, "score_predictions", "metrics.score_predictions"),
        (tuning, "score_predictions", "metrics.score_predictions"),
        (cli, "run_pipeline", "cli.run_pipeline"),
    ]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _audit_counts(out: Path | None) -> dict[str, int]:
    """Reflection outcomes in an extract run's audit.jsonl (zeros without one)."""
    counts = {"lines": 0, "ok": 0, "parse_fail": 0, "fallbacks": 0}
    path = out / "audit.jsonl" if out else None
    if path is None or not path.exists():
        return counts
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        counts["lines"] += 1
        counts["fallbacks"] += bool(entry.get("fallback"))
        counts["ok"] += entry.get("outcome") == "ok"
        counts["parse_fail"] += str(entry.get("outcome", "")).startswith("parse-error")
    return counts


class Runner:
    def __init__(self, workload, tmp: Path, seconds: float):
        self.workload = workload
        self.tmp = tmp
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.walls: list[float] = []
        self.rates: list[float] = []

    def setup(self) -> tuple[dict, list[float]]:
        samples = []
        for i in range(SETUP_REPEATS):
            workdir = self.tmp / f"setup{i}"
            workdir.mkdir(parents=True)
            gc.collect()
            start = time.perf_counter()
            state = self.workload.setup(workdir)
            samples.append(time.perf_counter() - start)
            if i < SETUP_REPEATS - 1:
                self.workload.teardown(state)
        return state, samples

    def op(self, state: dict) -> dict:
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.workload.op(state)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = {"failures": [f"{type(exc).__name__}: {exc}"], "docs": 0}
        wall = time.perf_counter() - start
        self.attempted += 1
        if result["failures"]:
            self.failed += 1
            self.failures += result["failures"]
        else:
            self.walls.append(wall)
            self.rates.append(result["docs"] / wall)
        return result

    def loop(self, state: dict, min_ops: int) -> list[dict]:
        results = []
        start = time.perf_counter()
        while len(results) < min_ops or time.perf_counter() - start < self.seconds:
            results.append(self.op(state))
        return results

    def check(self, state: dict) -> dict:
        self.attempted += 1
        try:
            failures, quality = self.workload.check(state)
        except Exception as exc:
            failures, quality = [f"check raised {type(exc).__name__}: {exc}"], {}
        if failures:
            self.failed += 1
            self.failures += failures
        return quality


def run_untraced(runner: Runner, state: dict, setup_s: float) -> dict:
    runner.loop(state, MIN_OPS)
    quality = runner.check(state)
    return {
        "docs_per_s": statistics.median(runner.rates) if runner.rates else 0.0,
        "op_s": statistics.median(runner.walls) if runner.walls else 0.0,
        "trg_c_f1": quality.get("trg_c_f1", 0.0),
        "arg_c_f1": quality.get("arg_c_f1", 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(runner: Runner, state: dict, spans_path: Path | None) -> dict:
    from tracer import Tracer

    runner.op(state)  # untraced reference for the tracing overhead
    untraced_rate = runner.rates[-1] if runner.rates else 0.0
    stub = state.get("stub")
    stub_before = stub.calls if stub else 0
    tracer = Tracer()
    tracer.install(trace_targets())
    try:
        first = len(runner.rates)
        traced_start = time.perf_counter()
        results = runner.loop(state, 1)
        traced_wall = time.perf_counter() - traced_start
    finally:
        tracer.uninstall()
    n_ops = len(results)
    stub_calls = (stub.calls - stub_before) if stub else 0
    traced_rates = runner.rates[first:]

    summary = tracer.summary()
    metrics: dict[str, float] = {}
    for layer, fields in LAYER_FIELDS.items():
        entry = summary.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0, "durations": []})
        for field in fields:
            if field == "p50_ms":
                value = _percentile(entry["durations"], 0.5) * 1000
            elif field == "p99_ms":
                value = _percentile(entry["durations"], 0.99) * 1000
            else:
                value = entry[field] / n_ops
            name = f"{layer}.{field}"
            metrics[RENAMED.get(name, name)] = value
    peak, busy = tracer.in_flight("backends.complete")
    metrics["backends.in_flight.max"] = peak
    metrics["backends.in_flight.mean"] = busy / traced_wall
    reflection_calls = sum(
        1 for s in tracer.spans if s.name == "backends.complete" and (s.channel or "").startswith("reflection")
    )
    out = results[-1].get("out")
    audit = _audit_counts(out)
    prompts = audit["lines"] - audit["fallbacks"]
    metrics["reflection.prompts"] = prompts
    metrics["reflection.parse_fail"] = audit["parse_fail"]
    metrics["reflection.fallbacks"] = audit["fallbacks"]
    metrics["reflection.ok_ratio"] = audit["ok"] / prompts if prompts else 0.0
    metrics["stub.calls"] = stub_calls / n_ops
    docs = runner.workload.n_docs
    complete_calls = summary.get("backends.complete", {}).get("calls", 0)
    metrics["backend_calls_per_doc"] = (stub_calls if stub else complete_calls) / n_ops / docs
    metrics["decomp.records"] = results[-1].get("records", 0)
    traced_rate = statistics.median(traced_rates) if traced_rates else 0.0
    metrics["trace.untraced_docs_per_s"] = untraced_rate
    metrics["trace.traced_docs_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = (
        (untraced_rate - traced_rate) / untraced_rate * 100 if untraced_rate else 0.0
    )

    # Trace consistency: the program's counts agree with independent ones.
    problems = tracer.check_documents()
    if stub and complete_calls != stub_calls:
        problems.append(f"traced backend calls {complete_calls} != stub count {stub_calls}")
    if out and reflection_calls != prompts * n_ops:
        problems.append(
            f"traced reflection calls {reflection_calls} != {n_ops} x audit.jsonl prompts {prompts}"
        )
    if tracer.missing:
        print(json.dumps({"trace_missing": tracer.missing}), file=sys.stderr)
    if spans_path is not None:
        tracer.write(spans_path)
    runner.attempted += 1
    if problems:
        runner.failed += 1
        runner.failures += problems[:20]
    runner.check(state)
    return metrics


def run_info(args, runner: Runner, setups: list[float], imports: list[float]) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "revent").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_docs": runner.workload.n_docs,
        "ops": len(runner.walls),
        "op_s_quartiles": _quartiles(runner.walls) if runner.walls else [],
        "setup_samples_s": setups,
        "import_samples_s": imports,
        "failures": runner.failures[:20],
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="with --trace 1: write the spans here as JSON lines")
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    # One core: with the program's per-document thread pools, GIL hand-offs
    # across cores made run-to-run times swing by a fifth on a shared host.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # The live stub is on loopback; never route it through a proxy.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed), tmp, args.seconds)
    state = None
    try:
        imports = import_seconds()
        state, setups = runner.setup()
        setup_s = statistics.median(imports) + statistics.median(setups)
        if args.trace:
            metrics, units = run_traced(runner, state, args.spans), per_layer_units()
        else:
            metrics, units = run_untraced(runner, state, setup_s), END_TO_END
    finally:
        if state is not None:
            runner.workload.teardown(state)
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    print(json.dumps({"info": run_info(args, runner, setups, imports)}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
