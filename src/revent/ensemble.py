"""Self-ensemble orchestration: fan out one extraction prompt to n agent
instances, parse replies, and aggregate the deduplicated union with
per-trigger and per-argument vote bookkeeping.

Agent requests run on up to ``parallelism`` worker threads, or inline on the
calling thread when only one worker would run. Aggregation is
``fold_votes``, a deterministic fold in agent-id order, so results are
independent of completion order; the simulated ensemble of
``revent.simulate`` folds its agents with the same function. All agents of
one document, and their parse retries, share one ``ingest.Grounding``: each
surface's occurrences are found once per document, and an event that
several agents return is grounded once and shared. ``revent extract`` runs
several documents at once and passes each its share of the run's
``--parallelism`` (see ``revent.cli``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .backends import ChatBackend, ask
from .errors import ConfigurationError
from .ingest import Grounding, parse_agent_output
from .model import ArgumentKey, Document, EventKey, EventMention, TriggerId, canonical_key

__all__ = [
    "AgentConfig",
    "VoteLedger",
    "default_agents",
    "temperature_in_range",
    "run_self_moa",
    "fold_votes",
    "cleanup_predictions",
]


# The output-token limit of every agent request.
_MAX_OUTPUT_TOKENS = 4096


def temperature_in_range(temperature: float) -> bool:
    """Whether ``temperature`` is a usable sampling temperature: non-negative
    and finite."""
    return 0.0 <= temperature < math.inf


@dataclass(frozen=True)
class AgentConfig:
    agent_id: int
    temperature: float = 0.9

    def __post_init__(self):
        if self.agent_id < 1:
            raise ConfigurationError("agent ids start at 1")
        if not temperature_in_range(self.temperature):
            raise ConfigurationError(
                f"temperature must be non-negative and finite, got {self.temperature}"
            )


def default_agents(n: int, temperature: float = 0.9) -> list[AgentConfig]:
    return [AgentConfig(i, temperature) for i in range(1, n + 1)]


class VoteLedger:
    """Which agents voted for each trigger, and for each argument of a
    trigger: the two vote sets ``confidence.smoa_confidence`` reads.

    ``record`` files an agent's vote for a whole event (EventKey) under its
    trigger triple and under each of its argument keys, so a trigger's set
    is the union over every event that shares the triple, and an argument's
    over those that also carry the argument. A query costs one lookup.
    """

    def __init__(self):
        self._trigger_votes: dict[TriggerId, set[int]] = {}
        self._argument_votes: dict[TriggerId, dict[ArgumentKey, set[int]]] = {}

    def record(self, key: EventKey, agent_id: int) -> None:
        if agent_id < 1:
            raise ValueError("agent ids start at 1")
        tid = key.trigger_id
        self._trigger_votes.setdefault(tid, set()).add(agent_id)
        by_arg = self._argument_votes.setdefault(tid, {})
        for arg_key in key.argument_keys:
            by_arg.setdefault(arg_key, set()).add(agent_id)

    def trigger_votes(self, trig: TriggerId) -> frozenset[int]:
        return frozenset(self._trigger_votes.get(trig, ()))

    def argument_votes(self, trig: TriggerId, arg_key: ArgumentKey) -> frozenset[int]:
        return frozenset(self._argument_votes.get(trig, {}).get(arg_key, ()))


def _validate_agents(agents: list[AgentConfig]) -> None:
    ids = sorted(a.agent_id for a in agents)
    if not ids or ids != list(range(1, len(ids) + 1)):
        raise ConfigurationError(
            f"agent ids must be distinct and contiguous from 1, got {ids}"
        )


def run_self_moa(
    doc: Document,
    prompt: str,
    agents: list[AgentConfig],
    backend: ChatBackend,
    parallelism: int = 4,
) -> tuple[list[EventMention], VoteLedger]:
    """Query every agent with ``prompt`` and aggregate the parsed replies.

    Returns the deduplicated union of grounded events (first-seen order,
    folding agents in id order) and the vote ledger. A reply that fails to
    parse is retried once; on the second failure that agent contributes the
    empty set. A transport failure raises OrchestrationError naming the
    agent and the document - never a partial silent result.
    """
    _validate_agents(agents)
    grounding = Grounding(doc)

    def one_agent(agent: AgentConfig) -> list[EventMention]:
        return ask(
            backend, prompt, lambda reply: parse_agent_output(reply, doc, grounding),
            1, lambda reply: [], f"agent {agent.agent_id} for doc {doc.doc_id!r}",
            temperature=agent.temperature, max_output_tokens=_MAX_OUTPUT_TOKENS,
            metadata={"doc_id": doc.doc_id, "channel": f"agent:{agent.agent_id}"},
        )

    ordered = sorted(agents, key=lambda a: a.agent_id)
    workers = max(1, min(parallelism, len(ordered)))
    if workers == 1:
        replies = [one_agent(a) for a in ordered]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            replies = list(pool.map(one_agent, ordered))
    return fold_votes(zip((a.agent_id for a in ordered), replies))


def fold_votes(
    replies: Iterable[tuple[int, list[EventMention]]],
) -> tuple[list[EventMention], VoteLedger]:
    """Fold (agent id, events) replies, in the order given, into the
    first-seen union of distinct events and the ledger of their votes."""
    union: dict[EventKey, EventMention] = {}
    ledger = VoteLedger()
    for agent_id, events in replies:
        for event in events:
            key = canonical_key(event)
            union.setdefault(key, event)
            ledger.record(key, agent_id)
    return list(union.values()), ledger


def cleanup_predictions(raw: list[EventMention], doc: Document) -> list[EventMention]:
    """Span-validate and canonically order an aggregated prediction set.

    Drops events whose trigger span does not slice back to its surface
    string, keeps the first event per ``canonical_key``, and returns the
    kept events in ``EventKey`` order. Idempotent; output order is a pure
    function of the event set.
    """
    kept: dict[EventKey, EventMention] = {}
    for event in raw:
        if doc.contains(event.trigger):
            kept.setdefault(canonical_key(event), event)
    return list(map(kept.get, sorted(kept)))
