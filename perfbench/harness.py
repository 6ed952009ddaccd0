"""Shared machinery of the repository benchmark: timing loops, statistics,
the correctness gate and the result record.

Every duration is taken with :func:`repro.obs.perf_clock`, the codebase's one
sanctioned clock.  Nothing here imports a workload; ``run.py`` wires them.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core import kernels
from repro.obs import perf_clock

#: A compact, comparable answer: ``((tid, score, string), ...)``.
Answer = Tuple[Tuple[int, float, str], ...]


def answer_of(matches) -> Answer:
    """Freeze engine/served matches into a comparable tuple."""
    return tuple((m.tid, m.score, m.string) for m in matches)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (the ``inclusive`` method of ``statistics``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB: this process, or ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(seed: int, sizes: Dict[str, int]) -> dict:
    """What every result records besides its numbers."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # the kernels fall back to pure Python
        numpy_version = None
    return {
        "seed": seed,
        "sizes": dict(sizes),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernels.active_backend(),
    }


@dataclass
class Gate:
    """The correctness gate: every answer is compared with its reference.

    Answers are held until :meth:`settle`, which builds the reference of each
    distinct key once -- outside every timed region -- and compares.
    ``check`` returns ``True`` when an answer agrees with its reference.
    Exceptions raised by the program and wrong answers both count as failed
    operations.  ``corrupt`` breaks one reference on purpose, which must make
    the gate fail (the self-test uses it).
    """

    check: Callable[[object, object], bool]
    corrupt: bool = False
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    pending: List[Tuple[Hashable, object]] = field(default_factory=list)

    def record(self, key: Hashable, answer: object) -> None:
        self.pending.append((key, answer))

    def error(self, key: Hashable, exc: BaseException) -> None:
        self._fail(f"{key!r}: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(message)

    def settle(self, reference: Callable[[Hashable], object]) -> None:
        """Compare every held answer with ``reference(key)``."""
        references = {}
        for key, _ in self.pending:
            if key not in references:
                references[key] = reference(key)
        if self.corrupt and references:
            key = min(references, key=repr)
            broken = tuple(references[key]) or ((0, 0.0, ""),)
            references[key] = ((-1, broken[0][1], "corrupted"),) + broken[1:]
        for key, answer in self.pending:
            if self.check(answer, references[key]):
                self.attempted += 1
            else:
                self._fail(f"{key!r}: {answer!r} != {references[key]!r}")
        self.pending = []


@dataclass
class LoopResult:
    """What a closed loop measured; answers are checked after the clock stops.

    Every operation runs once per pass, so each of them has exactly as many
    timed repeats as the loop made passes; ``best`` keeps the fastest.
    """

    #: Fastest latency of each single-query operation, by its reference key.
    best: Dict[Hashable, float] = field(default_factory=dict)
    #: Fastest time of each batch, by the keys of its queries.
    best_batch: Dict[Tuple[Hashable, ...], float] = field(default_factory=dict)
    single_queries: int = 0
    batch_queries: int = 0
    answers: List[Tuple[Hashable, object]] = field(default_factory=list)
    errors: List[Tuple[Hashable, BaseException]] = field(default_factory=list)


def _keep_best(best: dict, key: Hashable, elapsed: float) -> None:
    if elapsed < best.get(key, float("inf")):
        best[key] = elapsed


#: One single-query operation: its reference key and a zero-argument call.
SingleOp = Tuple[Hashable, Callable[[], object]]
#: One batch: the reference key of each of its queries and the call.
BatchOp = Tuple[Sequence[Hashable], Callable[[], Sequence[object]]]


def closed_loop(
    single_rounds: Callable[[int], Sequence[SingleOp]],
    batch_rounds: Callable[[int], Sequence[BatchOp]],
    rounds: Tuple[int, int],
    passes: int,
    freeze: Callable[[object], object],
    setups: int = 1,
    between: Optional[Callable[[], None]] = None,
) -> LoopResult:
    """One client, back to back, for a fixed number of passes.

    A pass runs single rounds ``0 .. rounds[0] - 1`` with batch rounds
    ``0 .. rounds[1] - 1`` spread evenly among them, so every operation runs
    exactly ``passes`` times wherever the host or the code is fast or slow.
    ``between()`` runs, off the loop's clock, ``setups - 1`` times at evenly
    spaced single rounds.
    """
    result = LoopResult()
    singles, batch_count = rounds
    total = singles * passes
    refits = {round(i * total / setups) for i in range(1, setups)}
    step = 0
    for _ in range(passes):
        for single_index in range(singles):
            if step in refits:
                between()
            step += 1
            for batch_index in range(
                single_index * batch_count // singles,
                (single_index + 1) * batch_count // singles,
            ):
                for keys, call in batch_rounds(batch_index):
                    started = perf_clock()
                    try:
                        answers = call()
                    except Exception as exc:  # counted as failed operations
                        result.errors.extend((key, exc) for key in keys)
                        continue
                    _keep_best(result.best_batch, tuple(keys), perf_clock() - started)
                    result.batch_queries += len(keys)
                    result.answers.extend(
                        (key, freeze(answer)) for key, answer in zip(keys, answers)
                    )
            for key, call in single_rounds(single_index):
                started = perf_clock()
                try:
                    answer = call()
                except Exception as exc:  # counted as a failed operation
                    result.errors.append((key, exc))
                    continue
                _keep_best(result.best, key, perf_clock() - started)
                result.single_queries += 1
                result.answers.append((key, freeze(answer)))
    return result


def latency_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """Median and tail latency in ms; p99 only with at least 1000 samples."""
    metrics = {
        "query_p50_ms": statistics.median(latencies) * 1000.0,
        "query_p90_ms": quantile(latencies, 0.90) * 1000.0,
    }
    if len(latencies) >= 1000:
        metrics["query_p99_ms"] = quantile(latencies, 0.99) * 1000.0
    return metrics


def loop_metrics(loop: LoopResult) -> Dict[str, float]:
    """The end-to-end metrics of a closed loop, from each operation's best time.

    The host's speed drifts by a fifth or more over tens of seconds, which a
    mean over one run inherits whole.  The fastest of an operation's repeats
    -- the same number of repeats on every commit -- is what its code costs
    when the host is not in the way, so the latencies are the distribution
    of those best times over the distinct operations, ``qps`` is the
    operations of one pass divided by the sum of their best times, and
    ``batch_qps`` likewise for the batches.  Costs that show up on only some
    repeats (a garbage collection, a first call) are left out, and a
    per-query result cache would win on every repeat after the first.
    """
    metrics = latency_metrics(list(loop.best.values()))
    metrics["qps"] = len(loop.best) / sum(loop.best.values())
    metrics["batch_qps"] = sum(len(keys) for keys in loop.best_batch) / sum(
        loop.best_batch.values()
    )
    return metrics
