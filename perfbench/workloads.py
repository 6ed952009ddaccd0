"""The benchmark's four workloads.

``direct-token``, ``direct-char`` and ``declarative-sql`` run in this
process as one-client closed loops over a :class:`SimilarityEngine`
(``served`` lives in :mod:`served`).  Each workload
builds its inputs from the seed, times its set-up several times, checks
every answer against a reference outside the timed region, and, when
traced, repeats the run with a collecting tracer and the layer wrappers of
:mod:`layers` to produce the per-layer metrics.

The loop makes a fixed number of passes over a length-stratified pool of
queries, so every operation runs the same number of times on every commit;
latencies and throughputs come from each operation's best time (see
:func:`harness.loop_metrics`).  A per-query result cache would win on every
repeat after the first, a gain that traffic of distinct queries would not
see.  The set-ups are spread over the run, one at the start of each equal
part of the loop, so their median does not hang on the host's speed at one
moment.

Every engine gets its own :class:`MetricsRegistry`, and faults are off (an
empty :class:`FaultInjector`).
"""

from __future__ import annotations

import gc
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import harness
import layers
from repro.core import Predicate, kernels
from repro.datagen import DATASET_CONFIGS, DatasetGenerator, clean_source, dblp_titles
from repro.datagen.datasets import scalability_config
from repro.engine import SimilarityEngine
from repro.obs import NOOP_TRACER, MetricsRegistry, perf_clock
from repro.resilience import FaultInjector

K = 10
#: Queries whose ``k``-th best score calibrates a ``select`` threshold.
CALIBRATION_QUERIES = 16
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_p99_ms": "ms",
    "qps": "1/s",
    "batch_qps": "1/s",
    "capacity_qps": "1/s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Report:
    """Everything one run of a workload produced."""

    end_to_end: Dict[str, float]
    samples: Dict[str, int]
    gate: harness.Gate
    environment: dict
    per_layer: Optional[Dict[str, float]] = None
    traced_end_to_end: Optional[Dict[str, float]] = None
    traced_samples: Optional[Dict[str, int]] = None
    #: Each traced end-to-end metric over its untraced value.
    overhead: Optional[Dict[str, float]] = None
    self_time_ms: Dict[str, float] = field(default_factory=dict)


# -- inputs ------------------------------------------------------------------------


def dblp_relation(seed: int, size: int) -> List[str]:
    """The paper's section 5.5 DBLP-titles relation at ``size`` rows.

    The clean titles are fixed (the first ``size / 10`` of the title
    source); the seed draws the duplicate counts and the injected errors.
    Fixing the clean base keeps the relation's length and token statistics
    -- which set the cost of every query -- the same from seed to seed.
    """
    parameters = scalability_config(size, seed=seed)
    source = dblp_titles(count=parameters.num_clean, seed=11)
    return DatasetGenerator(source).generate(parameters).strings


def company_relation(seed: int, size: int) -> List[str]:
    """CU1 company names (the paper's dirtiest company-name dataset).

    As for :func:`dblp_relation`, the ``size / 10`` clean names are fixed
    and the seed draws duplicates and errors.
    """
    config = DATASET_CONFIGS["CU1"]
    num_clean = max(10, size // 10)
    source = clean_source(config.source, count=num_clean)
    parameters = config.parameters(size=size, num_clean=num_clean, seed=seed)
    return DatasetGenerator(source).generate(parameters).strings


def query_pool(strings: Sequence[str], seed: int, count: int) -> List[str]:
    """Tuples of the relation used as queries, as in the paper.

    The draw is stratified by length: the relation, ordered by length, is cut
    into ``count`` equal strata and the seed picks one tuple from the middle
    half of each.  The cost of a query grows with its length, so every pool
    has the relation's length profile and the cost of a run does not hang on
    a lucky draw.  The pool is ordered so that each prefix spreads over the
    strata (bit-reversed stratum order): a run that stops part-way through
    the pool has still seen short and long queries alike.
    """
    rng = random.Random(seed)
    count = min(count, len(strings))
    by_length = sorted(range(len(strings)), key=lambda i: (len(strings[i]), i))
    picks = []
    for s in range(count):
        low, high = len(strings) * s // count, len(strings) * (s + 1) // count
        quarter = (high - low) // 4
        picks.append(by_length[rng.randrange(low + quarter, high - quarter)])
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(count), key=lambda s: int(f"{s:0{bits}b}"[::-1], 2))
    return [strings[picks[s]] for s in order]


# -- in-process workloads ----------------------------------------------------------


def _ranking_groups(answer: harness.Answer, tolerance: float = 1e-8) -> List[frozenset]:
    groups, current, last = [], [], None
    for tid, score, _ in answer:
        if last is not None and abs(score - last) > tolerance:
            groups.append(frozenset(current))
            current = []
        current.append(tid)
        last = score
    if current:
        groups.append(frozenset(current))
    return groups


def tie_tolerant_top_k(answer: harness.Answer, full: harness.Answer) -> bool:
    """A declarative ``top_k`` against the direct full ranking.

    Like the engine parity suite: tie groups must match in order, except
    that the last group of the answer may be any part of the reference's
    group (the cut at ``k`` can fall inside a tie); scores agree to float
    noise.
    """
    if len(answer) != min(K, len(full)):
        return False
    mine, theirs = _ranking_groups(answer), _ranking_groups(full)
    if len(mine) > len(theirs) or mine[:-1] != theirs[: len(mine) - 1]:
        return False
    if mine and not mine[-1] <= theirs[len(mine) - 1]:
        return False
    scores = {tid: score for tid, score, _ in full}
    return all(
        abs(score - scores[tid]) <= 1e-9 + 1e-6 * abs(scores[tid]) for tid, score, _ in answer
    )


def _through_ties(full: harness.Answer) -> harness.Answer:
    """The first ``k`` of a ranking plus any ties of its ``k``-th score."""
    if len(full) <= K:
        return full
    last = full[K - 1][1]
    end = K
    while end < len(full) and abs(full[end][1] - last) <= 1e-8:
        end += 1
    return full[:end]


def exact(answer, reference) -> bool:
    return answer == reference


@dataclass(frozen=True)
class InProcessWorkload:
    """A closed loop of single queries and ``run_many`` batches on one engine."""

    name: str
    predicates: Tuple[str, ...]
    realization: str
    relation: Callable[[int, int], List[str]]
    size: int
    tiny_size: int
    #: Queries of one pass.  Each distinct operation costs one reference
    #: answer after the loop, which bounds the pool.
    pool: int
    #: The (predicate, op) sequence of one single-query round.
    mix: Tuple[Tuple[str, str], ...]
    #: Queries of one ``run_many`` batch; it divides ``pool``.
    batch_size: int
    setup_reps: int
    #: What one pass takes on a 2-vCPU host at the benchmark's first
    #: commit.  It turns ``--seconds`` into a number of passes, which stays
    #: the same when the code gets faster or slower.
    pass_seconds: float
    #: Fixed ``select`` thresholds; the other predicates are calibrated.
    select_thresholds: Dict[str, float] = field(default_factory=dict)

    def passes(self, seconds: float) -> int:
        """Passes over the pool: at least two, so every best time has a choice."""
        return max(2, round(seconds / self.pass_seconds))

    def sizes(self, tiny: bool, seconds: float) -> Dict[str, int]:
        return {
            "rows": self.tiny_size if tiny else self.size,
            "queries": self.pool,
            "passes": self.passes(seconds),
            "batch_size": self.batch_size,
            "predicates": len(self.predicates),
            "setup_reps": self.setup_reps,
        }

    def fit(self, strings: Sequence[str], tracer=None):
        """Set-up: raw strings to every predicate of the workload fitted."""
        engine = SimilarityEngine(
            tracer=tracer, metrics=MetricsRegistry(), faults=FaultInjector()
        )
        queries = {}
        for name in self.predicates:
            query = engine.from_strings(strings).predicate(name)
            if self.realization != "direct":
                query = query.realization(self.realization)
            query.fitted_predicate()
            queries[name] = query
        return engine, queries

    def thresholds(self, pool, queries) -> Dict[str, float]:
        """The ``select`` threshold of each predicate, fixed before the loop.

        Predicates listed in ``select_thresholds`` use that value; the others
        (unnormalized scores) use the median ``k``-th best score over the
        first queries of the pool.
        """
        thresholds = {}
        for name in self.predicates:
            if name in self.select_thresholds:
                thresholds[name] = self.select_thresholds[name]
                continue
            kth = []
            for text in pool[:CALIBRATION_QUERIES]:
                top = queries[name].top_k(text, K)
                if top:
                    kth.append(top[-1].score)
            thresholds[name] = statistics.median(kth)
        return thresholds

    def reference(self, strings, pool, queries, thresholds):
        """The reference answer of each key, computed after the timed loop.

        Direct workloads run the scalar kernels without pruning: ``top_k``
        is ``rank(limit=k)`` and ``select`` is the base-class selection,
        which scores every candidate (no max-score, no q-gram filters).
        Declarative: the direct realization's ranking, compared
        tie-tolerantly.
        """
        if self.realization == "direct":

            def reference(key):
                name, op, qi = key[:3]
                predicate = queries[name].fitted_predicate()
                with kernels.use_backend("python"):
                    if op == "top_k":
                        found = predicate.rank(pool[qi], limit=K)
                    else:
                        found = Predicate.select(predicate, pool[qi], thresholds[name])
                return tuple((m.tid, m.score, strings[m.tid]) for m in found)

            return reference, exact

        engine = SimilarityEngine(metrics=MetricsRegistry(), faults=FaultInjector())
        direct = {name: engine.from_strings(strings).predicate(name) for name in self.predicates}

        def declarative_reference(key):
            name, _, qi = key[:3]
            return _through_ties(harness.answer_of(direct[name].rank(pool[qi])))

        return declarative_reference, tie_tolerant_top_k

    def rounds(self, pool, queries, thresholds, annotate=None):
        """The (single round, batch round) generators of the closed loop."""

        def wrap(call):
            if annotate is None:
                return call
            return lambda: annotate(call())

        def single_round(index: int):
            # A round runs the whole mix on query ``index`` of the pool.  An
            # operation listed twice in the mix gets a second key, so it
            # counts twice in the latency distribution.
            ops, seen = [], Counter()
            qi = index
            for name, op in self.mix:
                query, text = queries[name], pool[qi]
                if op == "top_k":
                    call = partial(query.top_k, text, K)
                else:
                    call = partial(query.select, text, thresholds[name])
                key = (name, op, qi) + ((seen[name, op],) if seen[name, op] else ())
                seen[name, op] += 1
                ops.append((key, wrap(call)))
            return ops

        def batch_round(index: int):
            # Every predicate runs window ``index`` of the pool.
            batches = []
            picks = range(index * self.batch_size, (index + 1) * self.batch_size)
            texts = [pool[qi] for qi in picks]
            for name in self.predicates:
                keys = [(name, "top_k", qi) for qi in picks]
                batches.append((keys, partial(queries[name].run_many, texts, op="top_k", k=K)))
            return batches

        return single_round, batch_round

    def setup(self, strings, tracer=None):
        """One timed set-up from scratch: ``(engine, queries, seconds)``."""
        gc.collect()  # no collection of an earlier set-up's garbage is timed
        started = perf_clock()
        engine, queries = self.fit(strings, tracer)
        return engine, queries, perf_clock() - started

    def loop(self, queries, pool, thresholds, gate, seconds, tracer=None, refit=None):
        """Warm up with one round, then run the timed closed loop.

        With ``refit``, the loop runs in ``setup_reps`` equal parts and
        ``refit()`` -- a fresh set-up that replaces the contents of
        ``queries`` -- runs between two parts.
        """
        if len(pool) % self.batch_size:
            raise ValueError(f"batch size {self.batch_size} does not divide {len(pool)} queries")
        annotate = None
        if tracer is not None:

            def annotate(result):
                tracer.last_root.set(bench_results=len(result))
                return result

        single_round, batch_round = self.rounds(pool, queries, thresholds, annotate)
        for key, call in single_round(0):  # warm-up, untimed but still checked
            try:
                gate.record(key, harness.answer_of(call()))
            except Exception as exc:  # counted as a failed operation
                gate.error(key, exc)
        loop = harness.closed_loop(
            single_round,
            batch_round,
            (len(pool), len(pool) // self.batch_size),
            self.passes(seconds),
            harness.answer_of,
            setups=self.setup_reps if refit else 1,
            between=refit,
        )
        for key, answer in loop.answers:
            gate.record(key, answer)
        for key, exc in loop.errors:
            gate.error(key, exc)
        samples = {
            "queries": loop.single_queries,
            "distinct_queries": len(loop.best),
            "batch_queries": loop.batch_queries,
            "distinct_batches": len(loop.best_batch),
        }
        return harness.loop_metrics(loop), samples

    def run(self, seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool) -> Report:
        strings = self.relation(seed, self.tiny_size if tiny else self.size)
        pool = query_pool(strings, seed, self.pool)
        env = harness.environment(seed, self.sizes(tiny, seconds))
        engine, queries, first = self.setup(strings)
        setups = [first]
        thresholds = self.thresholds(pool, queries)
        reference, check = self.reference(strings, pool, queries, thresholds)
        gate = harness.Gate(check, corrupt=corrupt)

        def refit():
            # The earlier engine is released first, so peak memory reflects
            # one set-up, not ``setup_reps`` of them.
            nonlocal engine
            engine.clear_cache()
            engine = None
            queries.clear()
            engine, fresh, elapsed = self.setup(strings)
            queries.update(fresh)
            setups.append(elapsed)

        metrics, samples = self.loop(queries, pool, thresholds, gate, seconds, refit=refit)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        gate.settle(reference)
        engine.clear_cache()
        del engine, queries, reference
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        report = Report(metrics, samples, gate, env)
        if not trace:
            return report

        tracer = layers.CollectingTracer()
        restore = layers.install_wrappers(tracer)
        try:
            engine, queries, traced_setup = self.setup(strings, tracer)
            traced, traced_samples = self.loop(queries, pool, thresholds, gate, seconds, tracer)
        finally:
            restore()
        traced["setup_s"] = traced_setup
        traced["peak_rss_mb"] = harness.peak_rss_mb()
        traced_samples["setup_s"] = 1
        engine.obs.tracer = NOOP_TRACER  # the references below are not traced
        gate.settle(self.reference(strings, pool, queries, thresholds)[0])
        counters = engine.metrics.to_dict()["counters"]
        engine.clear_cache()
        finish_trace(report, tracer.roots, counters, traced, traced_samples, self.name, seed)
        return report


def finish_trace(report, roots, counters, traced, traced_samples, name, seed, served=None):
    """Per-layer metrics, tracing overhead and the span file of a traced run."""
    overhead = {
        metric: traced[metric] / value
        for metric, value in report.end_to_end.items()
        if metric in traced and value
    }
    report.traced_end_to_end = traced
    report.traced_samples = traced_samples
    report.overhead = overhead
    report.per_layer = layers.per_layer_metrics(roots, counters, served, overhead)
    totals = layers.self_time_by_layer(roots)
    report.self_time_ms = {layer: seconds * 1e3 for layer, seconds in sorted(totals.items())}
    OUT.mkdir(parents=True, exist_ok=True)
    layers.write_traces(
        str(OUT / f"{name}-seed{seed}-trace.json"),
        roots,
        {"per_layer": report.per_layer, "self_time_ms": report.self_time_ms},
    )


TOKEN_PREDICATES = (
    "intersect",
    "jaccard",
    "weighted_match",
    "weighted_jaccard",
    "cosine",
    "bm25",
    "lm",
    "hmm",
)
CHAR_PREDICATES = ("edit_distance", "ges", "ges_jaccard", "ges_apx", "soft_tfidf")
SQL_PREDICATES = ("jaccard", "cosine", "bm25", "lm")

DIRECT_TOKEN = InProcessWorkload(
    name="direct-token",
    predicates=TOKEN_PREDICATES,
    realization="direct",
    relation=dblp_relation,
    size=3000,
    tiny_size=200,
    pool=50,
    mix=tuple((name, op) for op in ("top_k", "select") for name in TOKEN_PREDICATES),
    batch_size=50,
    setup_reps=3,
    pass_seconds=3.0,
)

DIRECT_CHAR = InProcessWorkload(
    name="direct-char",
    predicates=CHAR_PREDICATES,
    realization="direct",
    relation=company_relation,
    size=500,
    tiny_size=60,
    pool=9,
    # Every predicate's top_k and select, plus a second top_k of the two
    # slowest predicates.  With as many slow operations (edit_distance and
    # ges) as fast ones (the cheap selects and the GES variants), the
    # median lands inside soft_tfidf's latencies instead of in the gap
    # between two groups, where it would jump from run to run.
    mix=(
        *((name, "top_k") for name in CHAR_PREDICATES),
        *((name, "select") for name in CHAR_PREDICATES),
        ("edit_distance", "top_k"),
        ("ges", "top_k"),
    ),
    # Batches are not part of this workload's traffic; they are in the loop
    # only because every workload reports every end-to-end metric.  Five
    # predicates times 3 queries make a batch round about as long as a
    # single round (12 operations on one query), so the loop switches
    # between the two often and both see the same host speed.
    batch_size=3,
    setup_reps=9,
    pass_seconds=5.0,
    # Fixed: the k-th best score of these normalized predicates is ~0.3 on
    # CU1 (k exceeds most cluster sizes), where select would return most of
    # the relation.  At 0.8 an edit similarity 1 - d/len can equal the
    # threshold exactly, so the gate covers select's boundary case.
    select_thresholds={
        "edit_distance": 0.8,
        "ges": 0.75,
        "ges_jaccard": 0.5,
        "ges_apx": 0.5,
        "soft_tfidf": 0.75,
    },
)

DECLARATIVE_SQL = InProcessWorkload(
    name="declarative-sql",
    predicates=SQL_PREDICATES,
    realization="declarative",
    relation=company_relation,
    size=600,
    tiny_size=60,
    pool=25,
    mix=tuple((name, "top_k") for name in SQL_PREDICATES),
    batch_size=5,
    setup_reps=3,
    pass_seconds=5.0,
)
