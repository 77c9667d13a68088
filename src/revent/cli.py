"""Command-line entry points.

Subcommands: extract (run the full pipeline and write predictions, metrics,
and the reflection audit log), tune-thresholds, evaluate, gen-decomp, and
simulate. Each runs from its parsed arguments. ``main`` checks the flags
(``--parallelism``, ``--agents``, ``--overlap-threshold``, ``--temperature``
and ``--grid-step``) before any input is read, and so before any backend
call; every bad input after parsing,
configuration files included, exits 2 with a JSON error on stderr. All
reports are JSON, in the one format of ``ingest.json_report``; files are
written once, atomically, at the end of a run.

``--parallelism`` bounds the backend calls in flight across the whole run.
``_run_agents`` is the one agent fan-out, for extract and for tuning:
``doc_workers = min(parallelism, documents)`` documents run at a time,
each fanning its agents out over ``parallelism // doc_workers`` workers
(at least one) and then making its reflection calls one after another, so
at most ``parallelism`` calls are ever in flight. Every document keeps its
own audit log and results are joined in corpus order, so the artifacts are
byte-identical to a serial run. The first failing document stops new ones
from starting and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from pathlib import Path

from . import decomp, simulate
from .agreement import overlap_in_range
from .backends import make_backend
from .confidence import ThresholdSet, bundled_thresholds, load_threshold_set, save_threshold_set
from .decomp import TaskVariant, generate_dataset, write_dataset
from .ensemble import default_agents, run_self_moa, temperature_in_range
from .errors import ConfigurationError, ReventError
from .ingest import json_report, load_corpus, load_final_predictions, load_tagger_predictions
from .ingest import write_json_atomic, write_text_atomic
from .metrics import gold_from_corpus, score_predictions
from .pipeline import backend_reflector, extract_document
from .reflection import AuditLog, ReflectionConfig
from .tuning import DevPredictions, grid_step_in_range, tune_thresholds

_GATE_FLAGS = {"trgC": "trg-c", "trgI": "trg-i"}


def _check_flags(args) -> None:
    """Reject bad flag values and combinations before any input is read."""
    for flag in ("parallelism", "agents"):
        if getattr(args, flag, 1) < 1:
            raise ConfigurationError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if "overlap_threshold" in args and not overlap_in_range(args.overlap_threshold):
        raise ConfigurationError(
            f"--overlap-threshold must be in (0, 1], got {args.overlap_threshold}"
        )
    if "temperature" in args and not temperature_in_range(args.temperature):
        raise ConfigurationError(
            f"--temperature must be non-negative and finite, got {args.temperature}"
        )
    if "grid_step" in args and not grid_step_in_range(args.grid_step):
        raise ConfigurationError(f"--grid-step must be positive and finite, got {args.grid_step}")


def _resolve_thresholds(source: str) -> ThresholdSet:
    if source.startswith("builtin:"):
        parts = source.split(":", 1)[1].split("/")
        if len(parts) != 3:
            raise ConfigurationError(
                "builtin threshold descriptor must be builtin:MODEL/DATASET/TEMP"
            )
        return bundled_thresholds(*parts)
    return load_threshold_set(source)


def _run_agents(corpus, args, backend, then) -> list:
    """``then(doc, events, ledger)`` for every document, after its
    ``run_self_moa``; the results in corpus order.

    ``doc_workers`` documents run at a time with ``agent_workers`` agent
    calls each, and their product never exceeds ``--parallelism``. The
    first failure stops new documents from starting; the exception of the
    earliest failing document in corpus order is raised.
    """
    agents = default_agents(args.agents, temperature=args.temperature)
    doc_workers = max(1, min(args.parallelism, len(corpus)))
    agent_workers = max(1, args.parallelism // doc_workers)

    def task(doc):
        prompt = decomp.extraction_prompt(doc)
        return then(doc, *run_self_moa(doc, prompt, agents, backend, agent_workers))

    with ThreadPoolExecutor(max_workers=doc_workers) as pool:
        futures = [pool.submit(task, doc) for doc in corpus]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def _score(predictions, corpus, args, out: Path | None) -> dict:
    """Score ``predictions`` against the corpus gold, write the metrics to
    ``out`` (if given), print the table, and return the metrics dict."""
    metrics = score_predictions(
        predictions, gold_from_corpus(corpus), gating=_GATE_FLAGS[args.metrics_gate]
    )
    if out:
        write_json_atomic(out, metrics.as_dict())
    print(metrics.table())
    return metrics.as_dict()


def _report(value, out: Path | None = None) -> None:
    """Write ``value`` as a JSON report to ``out`` (if given), then print it."""
    if out:
        write_json_atomic(out, value)
    sys.stdout.write(json_report(value))


def _json_lines(records) -> str:
    """One key-sorted JSON line per record, each ending in a newline; no
    records is the empty string."""
    return "".join(
        json.dumps(record, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n"
        for record in records
    )


def run_pipeline(args) -> dict:
    """Execute the extract workflow and write all artifacts.

    Returns a small summary dict (also written as run_summary.json).
    """
    thresholds = _resolve_thresholds(args.thresholds)
    corpus = load_corpus(args.corpus)
    tagger_preds = load_tagger_predictions(args.tagger_preds, corpus)
    backend = make_backend(args.backend, corpus=corpus)

    def extract(doc, events, ledger):
        audit = AuditLog()
        result = extract_document(
            doc, tagger_preds[doc.doc_id], events, ledger, args.agents, thresholds,
            args.overlap_threshold, backend_reflector(backend, ReflectionConfig(), audit),
        )
        return result, audit.entries

    results = _run_agents(corpus, args, backend, extract)
    write_text_atomic(args.out / "predictions.jsonl", _json_lines(
        {"doc_id": doc.doc_id, "events": [pe.to_record() for pe in result.final]}
        for doc, (result, _) in zip(corpus, results)
    ))
    write_text_atomic(
        args.out / "audit.jsonl", _json_lines(entry for _, entries in results for entry in entries)
    )
    save_threshold_set(thresholds, args.out / "thresholds.json")
    summary: dict = {
        "documents": len(corpus),
        "events": sum(len(result.final) for result, _ in results),
        "thresholds": thresholds.as_dict(),
        "overlap_threshold": args.overlap_threshold,
        "agents": args.agents,
        "backend": args.backend,
    }
    if all(doc.gold_events is not None for doc in corpus):
        summary["metrics"] = _score(
            {doc.doc_id: result.final_events for doc, (result, _) in zip(corpus, results)},
            corpus,
            args,
            args.out / "metrics.json",
        )
    write_json_atomic(args.out / "run_summary.json", summary)
    return summary


def _cmd_tune(args) -> None:
    """Run the agents on a dev split, tune thresholds on it, and report them."""
    corpus = load_corpus(args.corpus)
    for doc in corpus:
        doc.require_gold()  # before any backend call
    tagger_preds = load_tagger_predictions(args.tagger_preds, corpus)
    backend = make_backend(args.backend, corpus=corpus)
    replies = _run_agents(corpus, args, backend, lambda doc, *reply: reply)
    smoa = {doc.doc_id: reply for doc, reply in zip(corpus, replies)}
    predictions = DevPredictions(tagger=tagger_preds, smoa=smoa, n_agents=args.agents)
    thresholds = tune_thresholds(
        corpus, predictions, grid_step=args.grid_step, overlap_threshold=args.overlap_threshold,
        reflection_standin=args.reflection_standin,
    )
    _report(thresholds.as_dict(), args.out)


def _cmd_evaluate(args) -> None:
    corpus = load_corpus(args.corpus)
    _score(load_final_predictions(args.predictions, corpus), corpus, args, args.out)


def _cmd_gen_decomp(args) -> None:
    variants = None
    if args.variants:
        wanted = set(args.variants.split(","))
        variants = {v for v in TaskVariant if v.value in wanted}
        missing = wanted - {v.value for v in variants}
        if missing:
            raise ConfigurationError(f"unknown variants: {sorted(missing)}")
    records = generate_dataset(load_corpus(args.corpus), variants=variants, seed=args.seed)
    write_dataset(records, args.out)
    by_variant = Counter(record.variant.value for record in records)
    _report({"records": len(records), "by_variant": by_variant})


def _cmd_simulate(args) -> None:
    scenario = simulate.load_scenario(args.scenario) if args.scenario else simulate.default_scenario()
    _report(simulate.run_scenario(scenario), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revent",
        description="Reconcile event-extraction predictions from a sequence "
        "tagger and a generative agent ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--corpus", required=True, type=Path)
        p.add_argument("--tagger-preds", required=True, type=Path)
        p.add_argument("--backend", required=True,
                       help="chat backend: http(s) URL, replay:PATH, or oracle")
        p.add_argument("--agents", type=int, default=10)
        p.add_argument("--temperature", type=float, default=0.9)
        p.add_argument("--parallelism", type=int, default=4,
                       help="most backend calls in flight across the run")
        p.add_argument("--overlap-threshold", type=float, default=0.5)
        p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("extract", help="run the full pipeline on a corpus")
    add_run_flags(p)
    p.add_argument("--thresholds", required=True,
                   help="threshold JSON path or builtin:MODEL/DATASET/TEMP")
    p.add_argument("--metrics-gate", choices=sorted(_GATE_FLAGS), default="trgC")
    p.set_defaults(func=run_pipeline)

    p = sub.add_parser("tune-thresholds", help="calibrate thresholds on a dev split")
    add_run_flags(p)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--reflection-standin", default="keep-all",
                   choices=["keep-all", "drop-all", "oracle"])
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("evaluate", help="score a prediction file against gold")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--predictions", required=True, type=Path)
    p.add_argument("--metrics-gate", choices=sorted(_GATE_FLAGS), default="trgC")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gen-decomp", help="emit the decomposed instruction dataset")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variants", help="comma-separated variant names (default: all)")
    p.set_defaults(func=_cmd_gen_decomp)

    p = sub.add_parser("simulate", help="run the seeded complementarity scenario")
    p.add_argument("--scenario", type=Path, help="scenario config JSON")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        args.func(args)
        return 0
    except (ReventError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
