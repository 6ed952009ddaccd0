"""The traced run: span collection, timing wrappers and per-layer metrics.

Two sources of timing, neither of which changes the library:

* the library's own :class:`repro.obs.Tracer` spans (``engine.query``,
  ``fit``, ``execute.*``, ``sql.statement``, ``serve.request`` /
  ``serve.admission`` / ``serve.batch``), kept in memory by
  :class:`CollectingTracer`;
* wrappers this file puts around public functions of layers that have no
  span.  ``maxscore_top_k`` becomes a span; the hot leaf functions (kernels,
  index candidates, tokenizers, string distances) add their self time and
  call count to the enclosing span as ``leaf.<layer>.s`` /
  ``leaf.<layer>.calls`` attributes, which keeps span trees small.

A layer's self time is its spans' durations minus their child spans and the
leaf time recorded on them.  Wrappers are installed where each function is
looked up -- every ``repro`` module attribute bound to it, or the class
attribute for methods -- and removed by the returned ``restore`` callable.

A metric reads 0 where its layer does no work on a workload (no SQL on the
direct workloads, no HTTP in process).  What cannot be measured from outside
the library also reads 0:

* ``run_many`` annotates no per-query candidate counts and publishes no
  pruning counters, so on ``served`` (where every request runs through
  ``run_many``) the per-predicate ``candidates`` / ``result_ratio`` and
  ``core.topk.candidates_*`` / ``postings_skipped_ratio`` are 0;
* the server process's own tracer sees requests only from admission on, so
  ``serve.wire_ms`` (HTTP parse, JSON encode, the socket both ways) is the
  client's mean latency minus the mean ``serve.request`` span.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import kernels, topk
from repro.core.index import InvertedIndex
from repro.engine import available_predicates
from repro.obs import SCHEMA, Span, Tracer, perf_clock, write_json
from repro.text import strings as text_strings
from repro.text import tokenize as text_tokenize

_PREDICATE_METRICS = (
    ("top_k_ms", "ms"),
    ("select_ms", "ms"),
    ("fit_s", "s"),
    ("candidates", "count"),
    ("result_ratio", "ratio"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine.query_self_ms", "ms"),
    ("engine.fit_s", "s"),
    ("engine.cache_hits", "count"),
    ("core.topk.top_k_ms", "ms"),
    ("core.topk.candidates_scored", "count"),
    ("core.topk.candidates_rescored", "count"),
    ("core.topk.postings_skipped_ratio", "ratio"),
    ("core.kernels.accumulate_ms", "ms"),
    ("core.kernels.select_ms", "ms"),
    ("core.kernels.ops", "count"),
    *(
        (f"core.predicates.{name}.{metric}", unit)
        for name in available_predicates()
        for metric, unit in _PREDICATE_METRICS
    ),
    ("core.index.candidates_ms", "ms"),
    ("text.tokenize_ms", "ms"),
    ("text.strings_calls", "count"),
    ("text.strings_ms", "ms"),
    ("backends.statements_per_query", "count"),
    ("backends.statement_ms", "ms"),
    ("backends.fit_statement_ms", "ms"),
    ("declarative.rows_scored", "count"),
    ("serve.wire_ms", "ms"),
    ("serve.admission_wait_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.rejections", "count"),
    ("serve.timeouts", "count"),
    ("bench.gen_lateness_ms", "ms"),
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.overhead_qps_ratio", "ratio"),
)

#: Layer that owns the self time of each span name.
_SPAN_LAYER = {
    "engine.query": "engine",
    "cache_hit": "engine",
    "fit": "core.predicates",
    "execute.direct": "core.predicates",
    "execute.declarative": "declarative",
    "sql.statement": "backends+dbengine",
    "core.topk.maxscore_top_k": "core.topk",
    "serve.request": "serve",
    "serve.admission": "serve",
    "serve.batch": "serve",
}


class CollectingTracer(Tracer):
    """A tracer that keeps every finished root span in memory.

    The library publishes a finished root by assigning ``last_root`` (the
    span stack does it, and so does the service for its hand-built
    ``serve.request`` spans), so capturing that assignment sees them all.
    """

    def __init__(self):
        self.roots: List[Span] = []
        super().__init__()

    @property
    def last_root(self) -> Optional[Span]:
        return self.roots[-1] if self.roots else None

    @last_root.setter
    def last_root(self, span: Optional[Span]) -> None:
        if span is not None:
            self.roots.append(span)


# -- wrappers -------------------------------------------------------------------


class _LeafStack(threading.local):
    def __init__(self):
        self.frames: List[list] = []


def _leaf(layer: str, original: Callable, tracer: Tracer, local: _LeafStack) -> Callable:
    key_s = f"leaf.{layer}.s"
    key_calls = f"leaf.{layer}.calls"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frames = local.frames
        frame = [layer, 0.0]
        frames.append(frame)
        started = perf_clock()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = perf_clock() - started
            frames.pop()
            if frames:
                frames[-1][1] += elapsed
            span = tracer.current
            if span is not None:
                span.add(key_s, elapsed - frame[1])
                if not frames or frames[-1][0] != layer:
                    span.add(key_calls, 1)

    return wrapper


def _spanned(name: str, original: Callable, tracer: Tracer) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    return wrapper


_LEAF_FUNCTIONS = (
    (kernels, "accumulate", "core.kernels.accumulate"),
    (kernels, "top_items", "core.kernels.select"),
    (kernels, "sorted_items", "core.kernels.select"),
    (kernels, "select_items", "core.kernels.select"),
    (text_tokenize, "normalize_string", "text.tokenize"),
    (text_tokenize, "qgrams", "text.tokenize"),
    (text_tokenize, "word_tokens", "text.tokenize"),
    (text_strings, "levenshtein", "text.strings"),
    (text_strings, "levenshtein_within", "text.strings"),
    (text_strings, "edit_similarity", "text.strings"),
    (text_strings, "jaro", "text.strings"),
    (text_strings, "jaro_winkler", "text.strings"),
)

_LEAF_METHODS = (
    (InvertedIndex, "candidates", "core.index"),
    (text_tokenize.Tokenizer, "tokenize_many", "text.tokenize"),
    (text_tokenize.QgramTokenizer, "tokenize", "text.tokenize"),
    (text_tokenize.WordTokenizer, "tokenize", "text.tokenize"),
    (text_tokenize.TwoLevelTokenizer, "tokenize", "text.tokenize"),
    (text_tokenize.TwoLevelTokenizer, "word_qgrams", "text.tokenize"),
    (text_tokenize.TwoLevelTokenizer, "tokenize_nested", "text.tokenize"),
)


def install_wrappers(tracer: Tracer) -> Callable[[], None]:
    """Wrap the span-less layers; returns the callable that undoes it."""
    local = _LeafStack()
    patches: List[Tuple[object, str, object]] = []

    def patch_everywhere(module, name: str, wrapped: Callable) -> None:
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapped)

    patch_everywhere(
        topk,
        "maxscore_top_k",
        _spanned("core.topk.maxscore_top_k", topk.maxscore_top_k, tracer),
    )
    for module, name, layer in _LEAF_FUNCTIONS:
        patch_everywhere(module, name, _leaf(layer, getattr(module, name), tracer, local))
    for cls, name, layer in _LEAF_METHODS:
        original = cls.__dict__[name]
        patches.append((cls, name, original))
        setattr(cls, name, _leaf(layer, original, tracer, local))

    def restore() -> None:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)

    return restore


# -- span arithmetic ------------------------------------------------------------


def _leaf_seconds(span: Span) -> float:
    return sum(
        value
        for key, value in span.attributes.items()
        if key.startswith("leaf.") and key.endswith(".s")
    )


def self_seconds(span: Span) -> float:
    """Duration minus child spans and leaf time recorded on the span."""
    children = sum(child.duration for child in span.children)
    return max(0.0, span.duration - children - _leaf_seconds(span))


def _engine_roots(roots: Iterable[Span]) -> List[Span]:
    """Roots that own their subtree (``serve.request`` holds batch copies)."""
    return [root for root in roots if root.name != "serve.request"]


def self_time_by_layer(roots: List[Span]) -> Dict[str, float]:
    """Total self seconds per layer over every collected span."""
    totals: Dict[str, float] = defaultdict(float)
    for root in _engine_roots(roots):
        for span in root.walk():
            totals[_SPAN_LAYER.get(span.name, "other")] += self_seconds(span)
            for key, value in span.attributes.items():
                if key.startswith("leaf.") and key.endswith(".s"):
                    totals[key[len("leaf."):-len(".s")]] += value
    for root in roots:
        if root.name == "serve.request":
            # Request self time plus admission; the batch is counted once,
            # from its own root, not from each request's copy of it.
            totals["serve"] += self_seconds(root)
            for child in root.children:
                if child.name == "serve.admission":
                    totals["serve"] += child.duration
    return dict(totals)


def _sum_leaf(spans: Iterable[Span], layer: str, what: str = "s") -> float:
    key = f"leaf.{layer}.{what}"
    return sum(span.attributes.get(key, 0) for root in spans for span in root.walk())


def per_layer_metrics(
    roots: List[Span],
    counters: Dict[str, float],
    served: Optional[Dict[str, float]] = None,
    overhead: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_METRICS`; 0 where a layer did no work.

    ``counters`` is the traced engine's (or service's) metrics registry
    counters; ``served`` carries the client-side serve measurements and
    ``overhead`` the traced/untraced ratios.
    """
    owned = _engine_roots(roots)
    queries = [s for root in owned for s in root.walk() if s.name == "engine.query"]
    fits = [s for root in owned for s in root.walk() if s.name == "fit"]

    def logical(span: Span) -> int:
        if span.attributes.get("op") == "run_many":
            return int(span.attributes.get("num_queries", 0))
        return 1

    def op_of(span: Span) -> str:
        attrs = span.attributes
        return attrs.get("batch_op") if attrs.get("op") == "run_many" else attrs.get("op")

    num_queries = sum(logical(span) for span in queries)
    per_query = 1.0 / num_queries if num_queries else 0.0
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER_METRICS}

    metrics["engine.query_self_ms"] = sum(map(self_seconds, queries)) * per_query * 1e3
    metrics["engine.fit_s"] = sum(span.duration for span in fits)
    metrics["engine.cache_hits"] = sum(
        1 for q in queries for span in q.walk() if span.name == "cache_hit"
    )

    top_k_queries = sum(logical(span) for span in queries if op_of(span) == "top_k")
    maxscore = [s for q in queries for s in q.walk() if s.name == "core.topk.maxscore_top_k"]
    if top_k_queries:
        metrics["core.topk.top_k_ms"] = sum(s.duration for s in maxscore) / top_k_queries * 1e3
    scans = [s for q in queries for s in q.walk() if s.name == "postings.scan"]
    if scans:
        metrics["core.topk.candidates_scored"] = sum(
            s.attributes["candidates_scored"] for s in scans
        ) / len(scans)
        metrics["core.topk.candidates_rescored"] = sum(
            s.attributes["candidates_rescored"] for s in scans
        ) / len(scans)
        total = sum(s.attributes["postings_total"] for s in scans)
        if total:
            metrics["core.topk.postings_skipped_ratio"] = (
                sum(s.attributes["postings_skipped"] for s in scans) / total
            )

    metrics["core.kernels.accumulate_ms"] = (
        _sum_leaf(queries, "core.kernels.accumulate") * per_query * 1e3
    )
    metrics["core.kernels.select_ms"] = _sum_leaf(queries, "core.kernels.select") * per_query * 1e3
    metrics["core.kernels.ops"] = (
        sum(value for name, value in counters.items() if name.startswith("kernel_ops."))
        * per_query
    )

    for name in available_predicates():
        mine = [q for q in queries if q.attributes.get("predicate") == name]
        for op in ("top_k", "select"):
            matching = [q for q in mine if op_of(q) == op]
            singles = [q for q in matching if q.attributes.get("op") == op]
            chosen = singles or matching
            executed = sum(
                child.duration
                for q in chosen
                for child in q.children
                if child.name.startswith("execute.")
            )
            count = sum(logical(q) for q in chosen)
            if count:
                metrics[f"core.predicates.{name}.{op}_ms"] = executed / count * 1e3
        metrics[f"core.predicates.{name}.fit_s"] = sum(
            span.duration for span in fits if span.attributes.get("predicate") == name
        )
        candidates = results = seen = 0
        for q in mine:
            for child in q.children:
                found = child.attributes.get("num_candidates")
                if child.name.startswith("execute.") and found is not None:
                    seen += 1
                    candidates += found
                    results += q.attributes.get("bench_results", 0)
        if seen:
            metrics[f"core.predicates.{name}.candidates"] = candidates / seen
        if candidates:
            metrics[f"core.predicates.{name}.result_ratio"] = results / candidates

    metrics["core.index.candidates_ms"] = _sum_leaf(queries, "core.index") * per_query * 1e3
    metrics["text.tokenize_ms"] = _sum_leaf(queries, "text.tokenize") * per_query * 1e3
    metrics["text.strings_calls"] = _sum_leaf(queries, "text.strings", "calls") * per_query
    metrics["text.strings_ms"] = _sum_leaf(queries, "text.strings") * per_query * 1e3

    statements = [s for q in queries for s in q.walk() if s.name == "sql.statement"]
    fit_statements = [s for f in fits for s in f.walk() if s.name == "sql.statement"]
    metrics["backends.statements_per_query"] = len(statements) * per_query
    if statements:
        metrics["backends.statement_ms"] = (
            sum(s.duration for s in statements) / len(statements) * 1e3
        )
    if fit_statements:
        metrics["backends.fit_statement_ms"] = (
            sum(s.duration for s in fit_statements) / len(fit_statements) * 1e3
        )
    metrics["declarative.rows_scored"] = (
        sum(
            s.attributes.get("sql_rows", 0)
            for q in queries
            for s in q.children
            if s.name == "execute.declarative"
        )
        * per_query
    )

    if served:
        metrics.update(served)
    if overhead:
        metrics["trace.overhead_p50_ratio"] = overhead["query_p50_ms"]
        metrics["trace.overhead_qps_ratio"] = overhead["qps"]
    return metrics


def serve_span_metrics(roots: List[Span], skip: int) -> Dict[str, float]:
    """Server-side per-request means from ``serve.request`` spans.

    The first ``skip`` requests (the set-up's warm-up requests) are left out.
    """
    requests = sorted(
        (root for root in roots if root.name == "serve.request"), key=lambda s: s.start
    )[skip:]
    admission_wait = batch_wait = engine = request = 0.0
    for span in requests:
        request += span.duration
        admitted = next(c for c in span.children if c.name == "serve.admission")
        admission_wait += admitted.duration
        batch = next((c for c in span.children if c.name == "serve.batch"), None)
        if batch is not None:
            batch_wait += max(0.0, batch.start - admitted.end)
            engine += sum(c.duration for c in batch.children if c.name == "engine.query")
    count = len(requests) or 1
    return {
        "request_ms": request / count * 1e3,
        "serve.admission_wait_ms": admission_wait / count * 1e3,
        "serve.batch_wait_ms": batch_wait / count * 1e3,
        "serve.engine_ms": engine / count * 1e3,
        "requests": len(requests),
    }


def write_traces(path: str, roots: List[Span], summary: dict) -> None:
    """All collected span trees in one ``repro.obs/1`` JSON document."""
    write_json(
        path,
        {
            "schema": SCHEMA,
            "kind": "trace_set",
            "summary": summary,
            "roots": [root.to_dict() for root in roots],
        },
    )
