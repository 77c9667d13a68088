"""revent: reconcile event-extraction predictions from a discriminative
sequence tagger and a generative agent ensemble.

The pipeline detects consensus between the two sources, filters
single-source disagreements by confidence, resolves the intermediate band
through structured reflection against a pluggable chat backend, and emits a
provenance-tagged final event set with exact-match micro-F1 scoring. It
also generates the decomposed instruction curriculum used to fine-tune the
extraction agents.
"""

from .agreement import MatchReport, match_arguments, match_triggers
from .backends import ChatRequest, HttpChatBackend, OracleBackend, ReplayBackend, make_backend
from .confidence import (
    Partition,
    ScoredArgument,
    ScoredEvent,
    Source,
    ThresholdSet,
    ThresholdTriple,
    bundled_thresholds,
    filter_disagreements,
    smoa_confidence,
)
from .decomp import InstructionRecord, TaskVariant, generate_dataset, render_instruction
from .ensemble import AgentConfig, VoteLedger, cleanup_predictions, default_agents, run_self_moa
from .ingest import TaggerPrediction, load_corpus, load_tagger_predictions, parse_agent_output
from .integration import Provenance, ProvenancedEvent, finalize_events
from .metrics import Metrics, gold_from_corpus, score_predictions
from .model import (
    ArgumentMention,
    Document,
    EventKey,
    EventMention,
    Span,
    canonical_key,
    span_overlap,
)
from .pipeline import DocumentResult, extract_document
from .reflection import ReflectionConfig, reflect
from .tuning import DevPredictions, tune_thresholds

__version__ = "0.1.0"
