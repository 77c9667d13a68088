"""In-memory span tracer that wraps the program's public functions.

Each wrapper is installed under the name its callers look up (for example
``revent.cli.run_self_moa`` or ``revent.pipeline.match_triggers``) and is
removed again by ``uninstall``. A span records its name, start, end, parent
and doc_id; spans stay in memory until the run ends and are written out\nonly on request. A span opened on a worker
thread with no open span of its own takes as parent the open span of the
same document, so the ensemble's pool threads attribute to their
``run_self_moa`` call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    doc_id: str | None
    failed: bool = False
    channel: str | None = None


def _doc_and_channel(args) -> tuple[str | None, str | None]:
    """The document a call works on: a Document argument or a request's metadata."""
    for arg in args:
        doc_id = getattr(arg, "doc_id", None)
        if isinstance(doc_id, str) and hasattr(arg, "text"):
            return doc_id, None
        metadata = getattr(arg, "metadata", None)
        if metadata:
            return metadata.get("doc_id"), metadata.get("channel")
    return None, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._open_by_doc: dict[str, list[int]] = {}
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """targets: iterable of (owner, attribute, layer name)."""
        for owner, attr, name in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            doc_id, channel = _doc_and_channel(args)
            parent = stack[-1] if stack else None
            with tracer._lock:
                if doc_id is None and parent is not None:
                    doc_id = tracer.spans[parent].doc_id
                if parent is None and doc_id in tracer._open_by_doc:
                    parent = tracer._open_by_doc[doc_id][-1]
                # Only a document's top-level spans are parents for other threads.
                top = doc_id is not None and (parent is None or tracer.spans[parent].doc_id != doc_id)
                span = Span(name, time.perf_counter(), 0.0, parent, doc_id, channel=channel)
                index = len(tracer.spans)
                tracer.spans.append(span)
                if top:
                    tracer._open_by_doc.setdefault(doc_id, []).append(index)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if top:
                    with tracer._lock:
                        opened = tracer._open_by_doc[doc_id]
                        opened.remove(index)
                        if not opened:
                            del tracer._open_by_doc[doc_id]

        return traced

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "doc_id": s.doc_id, "failed": s.failed, "channel": s.channel,
                }) + "\n")

    # --- analysis ---------------------------------------------------------

    def self_intervals(self) -> list[list[tuple[float, float]]]:
        """Per span: its interval minus the union of its children's intervals."""
        children: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(i)
        out = []
        for i, span in enumerate(self.spans):
            covered = _union(
                (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
                for c in children[i]
            )
            out.append(_subtract((span.start, span.end), covered))
        return out

    def check_documents(self) -> list[str]:
        """Problems with per-document attribution; empty when consistent.

        A document's span is the total time of its top-level spans (those
        whose parent belongs to no document). No layer's self time within
        one document may exceed it, and no self time may be negative.
        """
        problems = []
        selfs = self.self_intervals()
        doc_span: dict[str, float] = {}
        layer_self: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for i, span in enumerate(self.spans):
            if span.end < span.start:
                problems.append(f"span {span.name} ends before it starts")
            if span.doc_id is None:
                continue
            parent = self.spans[span.parent] if span.parent is not None else None
            if parent is None or parent.doc_id != span.doc_id:
                doc_span[span.doc_id] = doc_span.get(span.doc_id, 0.0) + span.end - span.start
            layer_self.setdefault((span.doc_id, span.name), []).extend(selfs[i])
        for (doc_id, name), intervals in layer_self.items():
            covered = sum(b - a for a, b in _union(intervals))
            if covered > doc_span.get(doc_id, 0.0) + 1e-6:
                problems.append(
                    f"{name} self time {covered:.6f}s exceeds document {doc_id} span "
                    f"{doc_span.get(doc_id, 0.0):.6f}s"
                )
        return problems

    def summary(self) -> dict[str, dict]:
        """Per layer name: calls, total s, self s, failures and durations."""
        selfs = self.self_intervals()
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, selfs):
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0, "durations": []})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += sum(b - a for a, b in own)
            entry["fail"] += span.failed
            entry["durations"].append(span.end - span.start)
        return out

    def in_flight(self, name: str) -> tuple[int, float]:
        """(max concurrent, busy time summed over spans) for one layer."""
        events = []
        for span in self.spans:
            if span.name == name:
                events.append((span.start, 1))
                events.append((span.end, -1))
        events.sort()
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        busy = sum(s.end - s.start for s in self.spans if s.name == name)
        return peak, busy


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _subtract(interval, covered) -> list[tuple[float, float]]:
    start, end = interval
    out = []
    for a, b in covered:
        if a > start:
            out.append((start, min(a, end)))
        start = max(start, b)
    if start < end:
        out.append((start, end))
    return out
