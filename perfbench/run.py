"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload direct-token --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one exists):

* ``direct-token`` -- the eight token-based predicates, direct realization,
  DBLP titles; closed loop of ``top_k``/``select`` plus 50-query
  ``run_many`` batches;
* ``direct-char`` -- the five character-level predicates, direct
  realization, CU1 company names; closed loop of ``top_k``/``select`` plus
  3-query ``run_many`` batches;
* ``declarative-sql`` -- four predicates in the declarative realization on
  the engine's default ``memory`` backend, fitted from empty tables;
* ``served`` -- a ``repro serve`` subprocess with default settings, driven
  over two keep-alive connections.

``--seconds`` sets how many passes over its query pool an in-process
workload makes (each pass runs every operation once; the number of passes
does not depend on how fast the code is) and how long each phase of
``served`` lasts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then again with tracing (a collecting tracer plus the
wrappers of ``perfbench/layers.py``) and prints the per-layer metrics and the
tracing overhead.  Every answer is checked against a reference; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 when
any answer was wrong.  Full results (with seed, sizes, CPU count, Python and
numpy versions and the kernel backend) and the span trees are written under
``perfbench/out/``.

``--tiny`` shrinks every relation for the self-test, and
``--corrupt-reference`` breaks one reference answer so the correctness gate
must trip.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics the closing JSON result line carries with ``--trace 0``; every
#: workload reports all of them.
END_TO_END = ("setup_s", "query_p50_ms", "query_p90_ms", "qps", "batch_qps", "peak_rss_mb")


def _bootstrap() -> None:
    """Put the package source on the path, or fail without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _format(value: float) -> str:
    return f"{value:.4f}" if abs(value) < 1e6 else f"{value:.4g}"


def _samples(metric: str, samples: dict) -> str:
    """How many measurements a metric rests on, as the report prints it."""
    if metric == "batch_qps" and "distinct_batches" in samples:
        return f"{samples['batch_queries']} in {samples['distinct_batches']} distinct batches"
    if metric in samples:
        return str(samples[metric])
    if metric.startswith("query_") or metric == "qps":
        if "distinct_queries" in samples:
            return f"{samples['queries']} of {samples['distinct_queries']} distinct operations"
        return str(samples["queries"])
    if metric == "capacity_qps":
        return f"{samples['ladder_steps']} ladder steps"
    return "-"


def _print_report(name: str, report, units) -> None:
    env = report.environment
    print(f"workload {name}: " + json.dumps(env, sort_keys=True))
    gate = report.gate
    e2e = dict(report.end_to_end)
    e2e["error_rate"] = gate.failed / gate.attempted
    print(f"{'end-to-end metric':<24} {'value':>14} {'unit':<6} samples")
    for metric, value in e2e.items():
        samples = gate.attempted if metric == "error_rate" else _samples(metric, report.samples)
        print(f"{metric:<24} {_format(value):>14} {units[metric]:<6} {samples}")
    if report.per_layer is not None:
        print(f"{'tracing overhead (traced / untraced)':<40} samples (traced / untraced)")
        for metric, ratio in report.overhead.items():
            traced = _samples(metric, report.traced_samples)
            print(f"  {metric:<38} {ratio:8.3f}  {traced} / {_samples(metric, report.samples)}")
        print("self time per layer (ms, whole traced run):")
        for layer, ms in sorted(report.self_time_ms.items(), key=lambda kv: -kv[1]):
            if ms:
                print(f"  {layer:<38} {ms:12.2f}")
    for line in gate.mismatches:
        print(f"MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny relations (self-test)")
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="break one reference answer; the run must then fail (self-test)",
    )
    args = parser.parse_args(argv)
    _bootstrap()

    import layers
    import served
    import workloads
    from repro.obs import SCHEMA, write_json

    known = {
        w.name: w
        for w in (
            workloads.DIRECT_TOKEN,
            workloads.DIRECT_CHAR,
            workloads.DECLARATIVE_SQL,
            served.ServedWorkload(),
        )
    }
    workload = known.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(known)}")
    report = workload.run(
        args.seed, args.seconds, bool(args.trace), args.tiny, args.corrupt_reference
    )
    _print_report(args.workload, report, workloads.END_TO_END_UNITS)

    gate = report.gate
    if args.trace:
        units = dict(layers.PER_LAYER_METRICS)
        values = report.per_layer
    else:
        units = workloads.END_TO_END_UNITS
        values = {metric: report.end_to_end[metric] for metric in END_TO_END}
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    write_json(
        str(workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {
            "schema": SCHEMA,
            "kind": "bench",
            "benchmark": "perfbench",
            "workload": args.workload,
            "environment": report.environment,
            "end_to_end": report.end_to_end,
            "samples": report.samples,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "per_layer": report.per_layer,
            "traced_end_to_end": report.traced_end_to_end,
            "traced_samples": report.traced_samples,
            "tracing_overhead": report.overhead,
            "self_time_ms": report.self_time_ms,
        },
    )
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
