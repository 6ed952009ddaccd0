"""The ``served`` workload: a ``repro serve`` subprocess driven over HTTP.

The server runs with its default settings and one registered CU1 corpus.
``bm25``, ``jaccard`` and ``cosine`` ``top_k`` requests go over two
keep-alive connections:

* a seeded Poisson schedule at a fixed 50 q/s gives ``query_p50_ms`` and
  ``query_p90_ms``, each request timed from when it was due;
* a one-connection closed loop gives ``qps`` (each lone request pays the
  micro-batcher's window) and a two-connection closed loop ``batch_qps``
  (requests coalesce into ``run_many`` batches);
* a step ladder of offered rates gives ``capacity_qps``: the highest rate
  whose p99 stays within 25 ms with no failure.

Set-up is timed from process start to ready, corpus registered and one
answered request per predicate.  Every answer must equal an in-process
direct engine's, bit for bit.  The traced run starts ``serve_host.py``
instead, which serves the same way with a collecting tracer.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import harness
import layers
from repro.engine import SimilarityEngine
from repro.obs import MetricsRegistry, Span, perf_clock
from repro.resilience import FaultInjector
from repro.serve import ServeClient, ServeError
from workloads import K, OUT, ROOT, Report, company_relation, exact, finish_trace, query_pool


class ServerProcess:
    """A serve subprocess: started, awaited until listening, always stopped."""

    def __init__(self, argv: List[str], log_path: Path):
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "w", encoding="utf-8")
        try:
            self.proc = subprocess.Popen(
                argv,
                cwd=str(ROOT),
                env=env,
                stdout=subprocess.PIPE,
                stderr=self._log,
                text=True,
            )
        except OSError:
            self._log.close()
            raise
        self.host, self.port = "", 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("listening on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    self.host, self.port = host, int(port)
                    return
        finally:
            watchdog.cancel()
        raise RuntimeError(f"server exited before listening (code {self.proc.wait()})")

    def stop(self) -> None:
        try:
            if self.port and self.proc.poll() is None:
                client = ServeClient(self.host, self.port, timeout=10.0)
                try:
                    client.shutdown()
                finally:
                    client.close()
            self.proc.wait(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


@dataclass
class Sample:
    key: tuple
    due: float
    sent: float
    done: float
    answer: Optional[harness.Answer] = None
    error: Optional[BaseException] = None


def _send(client: ServeClient, corpus_id: str, pool, key, due: float) -> Sample:
    predicate, qi = key
    sent = perf_clock()
    try:
        matches = client.top_k(corpus_id, pool[qi], k=K, predicate=predicate)
    except (ServeError, OSError) as exc:
        return Sample(key, due, sent, perf_clock(), error=exc)
    return Sample(key, due, sent, perf_clock(), answer=harness.answer_of(matches))


def _pick(rng: random.Random, pool) -> tuple:
    return (rng.choice(SERVED_PREDICATES), rng.randrange(len(pool)))


def open_loop(server, corpus_id, pool, rate, seconds, rng, connections=2) -> List[Sample]:
    """Seeded Poisson arrivals at ``rate``; each request is timed from its due time."""
    offsets, at = [], rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    keys = [_pick(rng, pool) for _ in offsets]
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))
    start = perf_clock() + 0.01

    def worker(_: int) -> None:
        client = ServeClient(server.host, server.port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + offsets[index]
                delay = due - perf_clock()
                if delay > 0:
                    time.sleep(delay)
                sample = _send(client, corpus_id, pool, keys[index], due)
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    _run_threads(worker, connections)
    return samples


def closed_loop_served(server, corpus_id, pool, seconds, rng, connections) -> List[Sample]:
    """``connections`` clients, each sending its next request on the last reply."""
    samples: List[Sample] = []
    lock = threading.Lock()
    seeds = [rng.random() for _ in range(connections)]
    deadline = perf_clock() + seconds

    def worker(index: int) -> None:
        local = random.Random(seeds[index])
        client = ServeClient(server.host, server.port)
        try:
            while perf_clock() < deadline:
                sample = _send(client, corpus_id, pool, _pick(local, pool), perf_clock())
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    _run_threads(worker, connections)
    return samples


def _run_threads(target, count: int) -> None:
    """Run ``target(i)`` on ``count`` threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


SERVED_PREDICATES = ("bm25", "jaccard", "cosine")
#: The fixed rate of the latency phase: low enough that most requests arrive
#: alone and pay the micro-batcher's window.
SERVED_RATE = 50.0
P99_LIMIT_S = 0.025
#: Offered rates of the capacity ladder, climbed until a step fails.
LADDER = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 200.0)


@dataclass(frozen=True)
class ServedWorkload:
    name: str = "served"
    size: int = 3000
    tiny_size: int = 200
    pool: int = 32
    setup_reps: int = 3

    def sizes(self, tiny: bool) -> Dict[str, int]:
        return {
            "rows": self.tiny_size if tiny else self.size,
            "queries": self.pool,
            "connections": 2,
            "fixed_rate_qps": int(SERVED_RATE),
            "setup_reps": self.setup_reps,
        }

    def start(self, argv, strings, pool, gate, log_path):
        """Set-up: process start to ready, corpus registered, one answer per predicate."""
        started = perf_clock()
        server = ServerProcess(argv, log_path)
        try:
            server.wait_listening()
            client = ServeClient(server.host, server.port)
            try:
                corpus_id = client.register_corpus(strings)
                for predicate in SERVED_PREDICATES:
                    key = (predicate, 0)
                    try:
                        matches = client.top_k(corpus_id, pool[0], k=K, predicate=predicate)
                    except ServeError as exc:
                        gate.error(key, exc)
                    else:
                        gate.record(key, harness.answer_of(matches))
            finally:
                client.close()
        except BaseException:
            server.stop()
            raise
        return server, corpus_id, perf_clock() - started

    def measure(self, argv, strings, pool, gate, seconds, seed, setup_reps, tag, ladder):
        setups = []
        server = None
        for rep in range(setup_reps):
            if server is not None:
                server.stop()
            log = OUT / f"{self.name}-seed{seed}-{tag}{rep}.log"
            server, corpus_id, elapsed = self.start(argv, strings, pool, gate, log)
            setups.append(elapsed)
        rng = random.Random(seed)
        # Shares of ``seconds``: 0.6 for the fixed-rate phase (about 450
        # requests at 15 s), 0.1 for each closed loop -- there only because
        # every workload reports qps and batch_qps -- and 0.1 per ladder step.
        try:
            fixed = open_loop(server, corpus_id, pool, SERVED_RATE, seconds * 0.6, rng)
            single = closed_loop_served(server, corpus_id, pool, seconds * 0.1, rng, 1)
            paired = closed_loop_served(server, corpus_id, pool, seconds * 0.1, rng, 2)
            steps = []
            if ladder:
                for rate in LADDER:
                    step = open_loop(server, corpus_id, pool, rate, seconds * 0.1, rng)
                    steps.append((rate, step))
                    if not _meets_limit(step):
                        break
            client = ServeClient(server.host, server.port)
            try:
                server_metrics = client.metrics()
            finally:
                client.close()
            rss = harness.peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        for sample in [*fixed, *single, *paired, *(s for _, step in steps for s in step)]:
            if sample.error is not None:
                gate.error(sample.key, sample.error)
            else:
                gate.record(sample.key, sample.answer)
        ok = [s.done - s.due for s in fixed if s.error is None]
        metrics = harness.latency_metrics(ok)
        metrics["qps"] = _throughput(single)
        metrics["batch_qps"] = _throughput(paired)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        if ladder:
            passed = [rate for rate, step in steps if _meets_limit(step)]
            metrics["capacity_qps"] = max(passed) if passed else 0.0
        samples = {
            "setup_s": len(setups),
            "queries": len(fixed),
            "qps": len(single),
            "batch_qps": len(paired),
            "ladder_steps": len(steps),
        }
        extra = {
            "fixed": fixed,
            "all": [*fixed, *single, *paired],
            "server_metrics": server_metrics,
        }
        return metrics, samples, extra

    def run(self, seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool) -> Report:
        strings = company_relation(seed, self.tiny_size if tiny else self.size)
        pool = query_pool(strings, seed, self.pool)
        engine = SimilarityEngine(metrics=MetricsRegistry(), faults=FaultInjector())

        def reference(key):
            predicate, qi = key
            return harness.answer_of(
                engine.from_strings(strings).predicate(predicate).top_k(pool[qi], K)
            )

        gate = harness.Gate(exact, corrupt=corrupt)
        env = harness.environment(seed, self.sizes(tiny))
        OUT.mkdir(parents=True, exist_ok=True)

        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        metrics, samples, _ = self.measure(
            argv, strings, pool, gate, seconds, seed, self.setup_reps, "serve", ladder=True
        )
        gate.settle(reference)
        report = Report(metrics, samples, gate, env)
        if not trace:
            engine.clear_cache()
            return report

        trace_path = OUT / f"{self.name}-seed{seed}-server-spans.json"
        host_argv = [sys.executable, str(ROOT / "perfbench" / "serve_host.py"), str(trace_path)]
        traced, traced_samples, extra = self.measure(
            host_argv, strings, pool, gate, seconds, seed, 1, "traced", ladder=False
        )
        gate.settle(reference)
        engine.clear_cache()
        roots = [Span.from_dict(record) for record in _read_roots(trace_path)]
        server = extra["server_metrics"]
        spans = layers.serve_span_metrics(roots, skip=len(SERVED_PREDICATES))
        answered = [s for s in extra["all"] if s.error is None]
        client_ms = statistics.fmean(s.done - s.sent for s in answered) * 1e3
        counters = server["counters"]
        batches = counters.get("serve.batches_total", 0)
        served = {
            "serve.wire_ms": client_ms - spans["request_ms"],
            "serve.admission_wait_ms": spans["serve.admission_wait_ms"],
            "serve.batch_wait_ms": spans["serve.batch_wait_ms"],
            "serve.engine_ms": spans["serve.engine_ms"],
            "serve.batch_size_mean": (
                counters.get("serve.batched_queries_total", 0) / batches if batches else 0.0
            ),
            "serve.queue_depth_hwm": server["gauges"]
            .get("serve.queue_depth", {})
            .get("high_water", 0),
            "serve.rejections": counters.get("serve.rejections_total", 0),
            "serve.timeouts": counters.get("serve.timeouts_total", 0),
            "bench.gen_lateness_ms": statistics.fmean(
                max(0.0, s.sent - s.due) for s in extra["fixed"]
            )
            * 1e3,
        }
        finish_trace(report, roots, counters, traced, traced_samples, self.name, seed, served)
        return report


def _read_roots(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["roots"]


def _meets_limit(step: List[Sample]) -> bool:
    """A ladder step passes when nothing failed, p99 (from due) is in limit
    and the backlog did not grow: requests in the step's last quarter were
    sent no later after their due time than those of its first quarter,
    give or take a fifth of the latency limit."""
    if len(step) < 4 or any(s.error is not None for s in step):
        return False
    if harness.quantile([s.done - s.due for s in step], 0.99) > P99_LIMIT_S:
        return False
    quarter = len(step) // 4
    ordered = sorted(step, key=lambda s: s.due)
    first = statistics.median(s.sent - s.due for s in ordered[:quarter])
    last = statistics.median(s.sent - s.due for s in ordered[-quarter:])
    return last <= first + P99_LIMIT_S / 5


def _throughput(samples: List[Sample]) -> float:
    answered = [s for s in samples if s.error is None]
    span = max(s.done for s in samples) - min(s.sent for s in samples)
    return len(answered) / span
