"""Tiny-size self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` on tiny relations, untraced and
traced, and checks that

* the last line is the result object, correct, with every end-to-end
  (untraced) or per-layer (traced) metric of ``BENCHMARK.json`` and its unit;
* the report prints the metrics kept out of the result line (``error_rate`` always,
  ``capacity_qps`` on ``served``);
* a run with a deliberately corrupted reference exits non-zero and reports
  ``correct: false``.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, *flags: str):
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--tiny",
        *flags,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, done.stdout, result, done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            code, out, result, err = _run(workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, no result\n{err[-2000:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: gate did not pass: {result['failed']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                failures.append(f"{label}: metrics differ; missing {missing}, extra {extra}")
            extras = ["error_rate"] + (["capacity_qps"] if workload == "served" else [])
            for name in extras:
                if f"\n{name} " not in out:
                    failures.append(f"{label}: report lacks {name}")
        code, _, result, _ = _run(workload, "--corrupt-reference")
        if code == 0 or result is None or result["correct"] or not result["failed"]:
            failures.append(f"{workload}: a corrupted reference did not trip the gate")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
