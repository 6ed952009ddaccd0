"""The traced similarity server of the benchmark's ``served`` workload.

Runs the same service as ``repro serve`` with its default settings, but
with a collecting tracer, a fresh metrics registry and the layer wrappers of
:mod:`layers` installed.  Prints ``listening on HOST:PORT`` like the CLI and,
after ``POST /shutdown``, writes every collected span tree to the path given
as its only argument::

    python3 perfbench/serve_host.py perfbench/out/spans.json
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from repro.obs import MetricsRegistry, Observability  # noqa: E402
from repro.serve import SimilarityService, run_server  # noqa: E402


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: serve_host.py SPANS_JSON", file=sys.stderr)
        return 2
    tracer = layers.CollectingTracer()
    restore = layers.install_wrappers(tracer)
    service = SimilarityService(obs=Observability(tracer=tracer, metrics=MetricsRegistry()))
    try:
        run_server(
            service,
            port=0,
            on_listening=lambda host, port: print(f"listening on {host}:{port}", flush=True),
        )
    finally:
        restore()
        service.close()
    layers.write_traces(argv[0], tracer.roots, {"requests": len(tracer.roots)})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
