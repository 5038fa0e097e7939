"""In-memory span tracing of corefkit's layers, recorded from outside.

:func:`traced_layers` swaps each layer function named in :data:`LAYERS`
for a wrapper that records a :class:`Span` (name, start, end, parent,
thread, attributes) and restores the originals on exit. The swap covers
every ``corefkit`` module that holds a reference to the function, so a
call through ``from corefkit.conll import parse_corpus`` in the CLI and
a call inside the defining module are both seen. The package itself is
not modified.

:func:`layer_metrics` turns the spans of one pipeline pass into the
per-layer figures: a layer's time is its spans' self time, the duration
minus the part covered by child spans. :func:`pool_metrics` reports how
busy the ``map_documents`` worker pool kept its threads.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (defining module, attribute, span name). Spans of ``metrics.lea`` wrap
# the per-document LEA sums that ``evaluate`` pools.
LAYERS = (
    ("corefkit.conll", "parse_corpus", "conll.parse_corpus"),
    ("corefkit.conll", "serialize_corpus", "conll.serialize_corpus"),
    ("corefkit.model", "validate_corpus", "model.validate_corpus"),
    ("corefkit.transform", "swap_pronouns", "transform.swap_pronouns"),
    ("corefkit.transform", "anonymize_names", "transform.anonymize_names"),
    ("corefkit.transform", "replace_nouns", "transform.replace_nouns"),
    ("corefkit.resolver", "resolve", "resolver.resolve"),
    ("corefkit.metrics", "evaluate", "metrics.evaluate"),
    ("corefkit.metrics", "_lea_sums", "metrics.lea"),
    ("corefkit.metrics", "pronoun_score", "metrics.pronoun_score"),
    ("corefkit.stats", "pronoun_frequencies", "stats.pronoun_frequencies"),
)
MAP_DOCUMENTS = "model.map_documents"
MAP_TASK = "model.map_documents.task"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int  # 0 for a root span
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    time.perf_counter(), attrs=attrs)
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


def _describe_parse(args, result) -> dict:
    text = args[0] if isinstance(args[0], str) else ""
    corpus, diagnostics = result
    return {"tokens": sum(d.token_count for d in corpus.documents),
            "diagnostics": len(diagnostics),
            "dropped": text.count("#begin document ") - len(corpus.documents)}


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if describe is not None:
            span.attrs.update(describe(args, result))
        return result
    return traced


def _wrap_map_documents(tracer: Tracer, fn):
    """Trace the pool call and every task, which may run on worker threads."""

    @functools.wraps(fn)
    def traced(corpus, task, *args, **kwargs):
        with tracer.span(MAP_DOCUMENTS) as outer:
            def traced_task(document):
                with tracer.span(MAP_TASK, parent=outer.id):
                    return task(document)
            return fn(corpus, traced_task, *args, **kwargs)
    return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Route every layer call through ``tracer`` until the block exits."""
    replacements = [(importlib.import_module(module), attr, name)
                    for module, attr, name in LAYERS]
    replacements.append((importlib.import_module("corefkit.model"),
                         "map_documents", MAP_DOCUMENTS))
    patched = []
    try:
        for module, attr, name in replacements:
            original = getattr(module, attr)
            if name == MAP_DOCUMENTS:
                wrapper = _wrap_map_documents(tracer, original)
            else:
                describe = _describe_parse if attr == "parse_corpus" else None
                wrapper = _wrap(tracer, name, original, describe)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "")
                if holder_name != "corefkit" and not holder_name.startswith("corefkit."):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of children covers."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return {span.id: span.duration - _covered(span, children.get(span.id, []))
            for span in spans}


def _under(spans: list[Span], commands) -> list[Span]:
    """The spans inside the ``cli.<command>`` spans of ``commands``."""
    by_id = {s.id: s for s in spans}
    roots = {f"cli.{c}" for c in commands}

    def root(span: Span) -> str:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span.name

    return [s for s in spans if root(s) in roots]


def layer_metrics(spans: list[Span], commands) -> dict[str, float]:
    """Per-layer figures of one pipeline pass, in ms unless named otherwise.

    Only the spans of ``commands`` count. A command's span is called
    ``cli.<command>``; its self time is the time the CLI spends outside
    every layer (file I/O, argument parsing, report formatting).
    """
    spans = _under(spans, commands)
    own = self_times(spans)
    out: dict[str, float] = {}
    for _, _, name in LAYERS:
        out[f"{name}.ms"] = 1000 * sum(own[s.id] for s in spans if s.name == name)
    parses = [s for s in spans if s.name == "conll.parse_corpus"]
    tokens = sum(s.attrs.get("tokens", 0) for s in parses)
    parse_s = out["conll.parse_corpus.ms"] / 1000
    out["conll.parse_corpus.ktok_s"] = tokens / 1000 / parse_s if parse_s else 0.0
    out["conll.parse_corpus.calls"] = len(parses)
    out["conll.diagnostics"] = sum(s.attrs.get("diagnostics", 0) for s in parses)
    out["conll.docs_dropped"] = sum(s.attrs.get("dropped", 0) for s in parses)
    for command in commands:
        out[f"cli.{command}.self_ms"] = 1000 * sum(
            own[s.id] for s in spans if s.name == f"cli.{command}")
    return out


def pool_metrics(spans: list[Span], commands) -> dict[str, float]:
    """Wall and busy time of ``map_documents`` in ``commands``, and their ratio."""
    spans = _under(spans, commands)
    wall = sum(s.duration for s in spans if s.name == MAP_DOCUMENTS)
    busy = sum(s.duration for s in spans if s.name == MAP_TASK)
    return {"model.map_documents.wall_ms": 1000 * wall,
            "model.map_documents.busy_ms": 1000 * busy,
            "model.map_documents.speedup": busy / wall if wall else 0.0}
