"""Confidence scoring and three-way filtering of disagreement predictions.

Single-source disagreements are scored - tagger events by their softmax
confidence, ensemble events by smoa_confidence, the fraction of agents
voting for the trigger (or for the argument under it) - and partitioned
against a threshold triple:

* tagger events with conf >= theta_s are retained directly, others removed;
* ensemble events with conf >= theta_smoa_hi are retained directly, those
  below theta_smoa_lo are removed, and the intermediate band is forwarded
  to reflection.

Threshold values above 1.0 are legal and mean "never retain directly".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .ensemble import VoteLedger
from .errors import ConfigurationError
from .ingest import is_finite_number, read_json_document, write_json_atomic
from .model import ArgumentKey, ArgumentMention, EventMention, TriggerId

__all__ = [
    "Source",
    "ScoredEvent",
    "ScoredArgument",
    "ThresholdTriple",
    "ThresholdSet",
    "Partition",
    "smoa_confidence",
    "filter_disagreements",
    "bundled_thresholds",
    "load_threshold_set",
    "save_threshold_set",
]


class Source(Enum):
    TAGGER = "tagger"
    SMOA = "smoa"


@dataclass(frozen=True)
class ScoredEvent:
    """A trigger-level disagreement prediction, pre-scored."""

    event: EventMention
    source: Source
    confidence: float


@dataclass(frozen=True)
class ScoredArgument:
    """An argument-level disagreement under some trigger, pre-scored."""

    argument: ArgumentMention
    source: Source
    confidence: float


@dataclass(frozen=True)
class ThresholdTriple:
    """Keep/drop cutoffs for one prediction level (triggers or arguments)."""

    theta_s: float
    theta_smoa_hi: float
    theta_smoa_lo: float

    def __post_init__(self):
        for name in ("theta_s", "theta_smoa_hi", "theta_smoa_lo"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.theta_smoa_lo < 0 or self.theta_s < 0:
            raise ConfigurationError("thresholds must be non-negative")
        if self.theta_smoa_lo > self.theta_smoa_hi:
            raise ConfigurationError(
                f"theta_smoa_lo {self.theta_smoa_lo} exceeds theta_smoa_hi {self.theta_smoa_hi}"
            )

    def as_dict(self) -> dict[str, float]:
        return {
            "theta_s": self.theta_s,
            "theta_smoa_hi": self.theta_smoa_hi,
            "theta_smoa_lo": self.theta_smoa_lo,
        }


@dataclass(frozen=True)
class ThresholdSet:
    """One threshold triple for triggers and one for arguments."""

    trigger: ThresholdTriple
    argument: ThresholdTriple

    def as_dict(self) -> dict:
        return {"trigger": self.trigger.as_dict(), "argument": self.argument.as_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdSet":
        return cls(
            trigger=ThresholdTriple(**data["trigger"]),
            argument=ThresholdTriple(**data["argument"]),
        )


@dataclass(frozen=True)
class Partition:
    """Disjoint split of a disagreement set; the union is the input.

    Items are whatever was filtered - anything with a ``source`` and a
    ``confidence``: the pipeline's single-source trigger candidates, or
    ScoredArgument at the argument level.
    """

    retained_tagger: tuple
    retained_smoa: tuple
    removed: tuple
    reflect: tuple


def smoa_confidence(
    ledger: VoteLedger,
    n: int,
    trigger_id: TriggerId,
    arg_key: ArgumentKey | None = None,
) -> float:
    """Fraction of the n agents that voted for this trigger or, given
    ``arg_key``, for this argument under the trigger."""
    if n < 1:
        raise ConfigurationError("agent count must be >= 1")
    if arg_key is None:
        return len(ledger.trigger_votes(trigger_id)) / n
    return len(ledger.argument_votes(trigger_id, arg_key)) / n


def filter_disagreements(dis, thresholds: ThresholdTriple) -> Partition:
    """Partition disagreement predictions into retained / removed / reflect.

    Tagger-side events are kept iff their confidence reaches theta_s (there
    is no tagger reflection band). Ensemble-side events are kept at or above
    theta_smoa_hi, dropped below theta_smoa_lo, and reflected in between.
    """
    retained_tagger: list = []
    retained_smoa: list = []
    removed: list = []
    reflect: list = []
    for item in dis:
        conf = item.confidence
        if item.source is Source.TAGGER:
            (retained_tagger if conf >= thresholds.theta_s else removed).append(item)
        elif conf >= thresholds.theta_smoa_hi:
            retained_smoa.append(item)
        elif conf < thresholds.theta_smoa_lo:
            removed.append(item)
        else:
            reflect.append(item)
    return Partition(
        retained_tagger=tuple(retained_tagger),
        retained_smoa=tuple(retained_smoa),
        removed=tuple(removed),
        reflect=tuple(reflect),
    )


def save_threshold_set(thresholds: ThresholdSet, path: str | Path) -> None:
    write_json_atomic(path, thresholds.as_dict())


def load_threshold_set(path: str | Path) -> ThresholdSet:
    return read_json_document(path, ThresholdSet.from_dict)


def bundled_thresholds(model: str, dataset: str, temperature: float | str) -> ThresholdSet:
    """Look up the packaged per-(model, dataset, temperature) thresholds.

    Models: phi-3, llama-3.1. Datasets: casie, m2e2, mlee. Temperatures:
    0.1, 0.6, 0.9. Case-insensitive.
    """
    from importlib import resources

    table = json.loads(
        resources.files("revent.data").joinpath("thresholds.json").read_text("utf-8")
    )
    try:
        temp_key = f"{float(temperature):g}"
    except ValueError as exc:
        raise ConfigurationError(f"temperature {temperature!r} is not a number") from exc
    try:
        trig = table["trigger"][model.lower()][dataset.lower()][temp_key]
        arg = table["argument"][model.lower()][dataset.lower()][temp_key]
    except KeyError as exc:
        raise ConfigurationError(
            f"no bundled thresholds for model={model!r} dataset={dataset!r} "
            f"temperature={temp_key!r}"
        ) from exc
    return ThresholdSet(trigger=ThresholdTriple(**trig), argument=ThresholdTriple(**arg))
