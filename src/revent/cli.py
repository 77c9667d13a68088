"""Command-line entry points.

Subcommands: extract (run the full pipeline and write predictions, metrics,
and the reflection audit log), tune-thresholds, evaluate, gen-decomp, and
simulate. All reports are JSON; files are written once, atomically, at the
end of a run.

``--parallelism`` bounds the backend calls in flight across the whole run.
Documents run concurrently: ``doc_workers = min(parallelism, documents)``
of them at a time, each fanning its agents out over
``parallelism // doc_workers`` workers (at least one) and then making its
reflection calls one after another, so at most ``parallelism`` calls are
ever in flight. Every document keeps its own audit log and results are
joined in corpus order, so the artifacts are byte-identical to a serial
run. The first failing document stops new ones from starting and nothing
is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from . import decomp, simulate
from .backends import make_backend
from .confidence import (
    ThresholdSet,
    bundled_thresholds,
    load_threshold_set,
    save_threshold_set,
)
from .decomp import TaskVariant, generate_dataset, write_dataset
from .ensemble import default_agents, run_self_moa
from .errors import ConfigurationError, ReventError
from .ingest import load_corpus, load_final_predictions, load_tagger_predictions, write_text_atomic
from .metrics import gold_from_corpus, score_predictions
from .pipeline import backend_reflector, extract_document
from .reflection import AuditLog, ReflectionConfig
from .tuning import DevPredictions, tune_thresholds

_GATE_FLAGS = {"trgC": "trg-c", "trgI": "trg-i"}


@dataclass
class RunConfig:
    """Validated configuration for one extract run."""

    corpus: Path
    tagger_preds: Path
    backend: str
    out_dir: Path
    agents: int = 10
    temperature: float = 0.9
    thresholds_path: str | None = None
    tune_corpus: Path | None = None
    tune_tagger_preds: Path | None = None
    overlap_threshold: float = 0.5
    metrics_gate: str = "trg-c"
    grid_step: float = 0.05
    parallelism: int = 4

    def __post_init__(self):
        if (self.thresholds_path is None) == (self.tune_corpus is None):
            raise ConfigurationError(
                "exactly one threshold source must be set: --thresholds or --tune"
            )
        if self.tune_corpus is not None and self.tune_tagger_preds is None:
            raise ConfigurationError("--tune requires --tune-tagger-preds")
        if self.parallelism < 1:
            raise ConfigurationError(f"--parallelism must be >= 1, got {self.parallelism}")


def _resolve_thresholds(source: str) -> ThresholdSet:
    if source.startswith("builtin:"):
        parts = source.split(":", 1)[1].split("/")
        if len(parts) != 3:
            raise ConfigurationError(
                "builtin threshold descriptor must be builtin:MODEL/DATASET/TEMP"
            )
        return bundled_thresholds(*parts)
    return load_threshold_set(source)


def _map_documents(corpus, parallelism, task) -> list:
    """``task(doc, agent_workers)`` for every document, results in corpus order.

    ``doc_workers`` documents run at a time with ``agent_workers`` agent
    calls each, and their product never exceeds ``parallelism``. The first
    failure stops new documents from starting; the exception of the
    earliest failing document in corpus order is raised.
    """
    if parallelism < 1:
        raise ConfigurationError(f"--parallelism must be >= 1, got {parallelism}")
    doc_workers = max(1, min(parallelism, len(corpus)))
    agent_workers = max(1, parallelism // doc_workers)
    with ThreadPoolExecutor(max_workers=doc_workers) as pool:
        futures = [pool.submit(task, doc, agent_workers) for doc in corpus]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def _tune_on(corpus_path, tagger_path, descriptor, agents, parallelism, **tune_options):
    """Load a dev split, run the agents on it, and return
    ``tune_thresholds(dev, predictions, **tune_options)``."""
    corpus = load_corpus(corpus_path)
    tagger_preds = load_tagger_predictions(tagger_path, corpus)
    backend = make_backend(descriptor, corpus=corpus)

    def gather(doc, agent_workers):
        prompt = decomp.extraction_prompt(doc)
        return run_self_moa(doc, prompt, agents, backend, agent_workers)

    replies = _map_documents(corpus, parallelism, gather)
    smoa = {doc.doc_id: reply for doc, reply in zip(corpus, replies)}
    predictions = DevPredictions(tagger=tagger_preds, smoa=smoa, n_agents=len(agents))
    return tune_thresholds(corpus, predictions, **tune_options)


def run_pipeline(config: RunConfig) -> dict:
    """Execute the extract workflow and write all artifacts.

    Returns a small summary dict (also written as run_summary.json).
    """
    corpus = load_corpus(config.corpus)
    tagger_preds = load_tagger_predictions(config.tagger_preds, corpus)
    backend = make_backend(config.backend, corpus=corpus)
    agents = default_agents(config.agents, temperature=config.temperature)

    if config.thresholds_path is not None:
        thresholds = _resolve_thresholds(config.thresholds_path)
    else:
        thresholds = _tune_on(
            config.tune_corpus,
            config.tune_tagger_preds,
            config.backend,
            agents,
            config.parallelism,
            grid_step=config.grid_step,
            overlap_threshold=config.overlap_threshold,
        )

    def extract(doc, agent_workers):
        prompt = decomp.extraction_prompt(doc)
        events, ledger = run_self_moa(doc, prompt, agents, backend, agent_workers)
        audit = AuditLog()
        result = extract_document(
            doc,
            tagger_preds.get(doc.doc_id, []),
            events,
            ledger,
            len(agents),
            thresholds,
            config.overlap_threshold,
            backend_reflector(backend, ReflectionConfig(), audit),
        )
        return result, audit.entries

    prediction_lines = []
    final_by_doc = {}
    audit_entries = []
    for doc, (result, entries) in zip(corpus, _map_documents(corpus, config.parallelism, extract)):
        final_by_doc[doc.doc_id] = result
        audit_entries.extend(entries)
        prediction_lines.append(
            json.dumps(
                {"doc_id": doc.doc_id, "events": [pe.to_record() for pe in result.final]},
                ensure_ascii=False,
                sort_keys=True,
            )
        )

    out = Path(config.out_dir)
    write_text_atomic(out / "predictions.jsonl", "\n".join(prediction_lines) + "\n")
    write_text_atomic(
        out / "audit.jsonl",
        "".join(
            json.dumps(e, ensure_ascii=False, sort_keys=True) + "\n" for e in audit_entries
        ),
    )
    save_threshold_set(thresholds, out / "thresholds.json")

    summary: dict = {
        "documents": len(corpus),
        "events": sum(len(r.final) for r in final_by_doc.values()),
        "thresholds": thresholds.as_dict(),
        "overlap_threshold": config.overlap_threshold,
        "agents": config.agents,
        "backend": str(config.backend),
    }
    if all(doc.gold_events is not None for doc in corpus):
        metrics = score_predictions(
            {doc_id: r.final_events for doc_id, r in final_by_doc.items()},
            gold_from_corpus(corpus),
            gating=config.metrics_gate,
        )
        write_text_atomic(
            out / "metrics.json",
            json.dumps(metrics.as_dict(), indent=2, sort_keys=True) + "\n",
        )
        summary["metrics"] = metrics.as_dict()
        print(metrics.table())
    write_text_atomic(
        out / "run_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def _cmd_extract(args) -> int:
    config = RunConfig(
        corpus=args.corpus,
        tagger_preds=args.tagger_preds,
        backend=args.backend,
        out_dir=args.out,
        agents=args.agents,
        temperature=args.temperature,
        thresholds_path=args.thresholds,
        tune_corpus=args.tune,
        tune_tagger_preds=args.tune_tagger_preds,
        overlap_threshold=args.overlap_threshold,
        metrics_gate=_GATE_FLAGS[args.metrics_gate],
        grid_step=args.grid_step,
        parallelism=args.parallelism,
    )
    run_pipeline(config)
    return 0


def _cmd_tune(args) -> int:
    thresholds = _tune_on(
        args.corpus,
        args.tagger_preds,
        args.backend,
        default_agents(args.agents, temperature=args.temperature),
        args.parallelism,
        grid_step=args.grid_step,
        overlap_threshold=args.overlap_threshold,
        reflection_standin=args.reflection_standin,
    )
    save_threshold_set(thresholds, args.out)
    print(json.dumps(thresholds.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    preds = load_final_predictions(args.predictions, corpus)
    metrics = score_predictions(
        preds, gold_from_corpus(corpus), gating=_GATE_FLAGS[args.metrics_gate]
    )
    if args.out:
        write_text_atomic(
            Path(args.out), json.dumps(metrics.as_dict(), indent=2, sort_keys=True) + "\n"
        )
    print(metrics.table())
    return 0


def _cmd_gen_decomp(args) -> int:
    corpus = load_corpus(args.corpus)
    variants = None
    if args.variants:
        wanted = set(args.variants.split(","))
        variants = {v for v in TaskVariant if v.value in wanted}
        missing = wanted - {v.value for v in variants}
        if missing:
            raise ConfigurationError(f"unknown variants: {sorted(missing)}")
    records = generate_dataset(corpus, variants=variants, seed=args.seed)
    write_dataset(records, args.out)
    by_variant: dict[str, int] = {}
    for record in records:
        by_variant[record.variant.value] = by_variant.get(record.variant.value, 0) + 1
    print(json.dumps({"records": len(records), "by_variant": by_variant},
                     indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    scenario = simulate.load_scenario(args.scenario) if args.scenario else simulate.default_scenario()
    report = simulate.run_scenario(scenario)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_text_atomic(Path(args.out), text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revent",
        description="Reconcile event-extraction predictions from a sequence "
        "tagger and a generative agent ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p):
        p.add_argument("--backend", required=True,
                       help="chat backend: http(s) URL, replay:PATH, or oracle")
        p.add_argument("--agents", type=int, default=10)
        p.add_argument("--temperature", type=float, default=0.9)
        p.add_argument("--parallelism", type=int, default=4,
                       help="most backend calls in flight across the run")

    p = sub.add_parser("extract", help="run the full pipeline on a corpus")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--tagger-preds", required=True, type=Path)
    add_backend_flags(p)
    p.add_argument("--thresholds",
                   help="threshold JSON path or builtin:MODEL/DATASET/TEMP")
    p.add_argument("--tune", type=Path, help="dev corpus to tune thresholds on")
    p.add_argument("--tune-tagger-preds", type=Path)
    p.add_argument("--overlap-threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--metrics-gate", choices=sorted(_GATE_FLAGS), default="trgC")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("tune-thresholds", help="calibrate thresholds on a dev split")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--tagger-preds", required=True, type=Path)
    add_backend_flags(p)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--overlap-threshold", type=float, default=0.5)
    p.add_argument("--reflection-standin", default="keep-all",
                   choices=["keep-all", "drop-all", "oracle"])
    p.add_argument("--out", required=True, type=Path)
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
        return args.func(args)
    except (ReventError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
