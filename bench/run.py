"""polylcm benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload x3-N2000 --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Run from anywhere; the measured program is ``src/polylcm`` of the checkout
that holds this directory, and the metric names and units come from its
``BENCHMARK.json``.  Each workload run uses fresh interpreters (worker.py),
one at a time:

- ``--trace 0``: three workers, each doing its own set-up and then a third
  of ``--seconds`` of calls on its own seeded input stream.  Reports the
  ``end_to_end`` metrics over the pooled calls; ``setup_s`` is the median
  of the three set-ups and ``peak_rss_mb`` the largest worker peak.
- ``--trace 1``: two workers replay the same fixed list of calls, one
  untraced and one traced.  Reports the ``per_layer`` metrics of the traced
  one and ``trace.overhead_frac`` from the two wall times.

Stdout ends with a ``{"record": ...}`` line (versions, CPU, seed, output
digest, per-worker figures) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
whenever a result is printed; a missing program or a crashed or timed-out
worker exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run, whatever the workload, must end well inside three minutes.
WALL_LIMIT_S = 170.0
UNTRACED_WORKERS = 3


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "polylcm" / "__init__.py").is_file():
        print(f"error: no polylcm sources at {ROOT / 'src' / 'polylcm'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="polylcm benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload != "all":
            record, result = run_workload(bench, args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0
        results = {}
        for name in names:
            record, result = run_workload(bench, name, args.seed, args.seconds, args.trace)
            for metric, m in result["metrics"].items():
                print(f"{name:14s} {metric:40s} {m['value']:.6g} {m['unit']}")
            print(f"{name:14s} {'error_rate':40s} {record['error_rate']:.6g} 1")
            results[name] = result
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_workload(bench: dict, name: str, seed: int, seconds: float, trace: int):
    deadline = time.monotonic() + WALL_LIMIT_S
    scratch = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        base = {"root": str(ROOT), "workload": name, "seed": seed, "stream": 0,
                "scratch": scratch}
        if trace:
            plain = _worker({**base, "seconds": seconds, "mode": "replay"}, deadline)
            traced = _worker({**base, "seconds": seconds, "mode": "traced"}, deadline)
            workers = [plain, traced]
            metrics = _layer_metrics(bench, plain, traced)
        else:
            budget = seconds / UNTRACED_WORKERS
            workers = [
                _worker({**base, "stream": i, "seconds": budget, "mode": "timed"}, deadline)
                for i in range(UNTRACED_WORKERS)
            ]
            metrics = _end_to_end_metrics(bench, workers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(w["calls"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    if trace:
        digest = workers[0]["digest"]
        if workers[1]["digest"] != digest:
            failed += 1
            failures.append("traced outputs differ from the untraced replay")
    else:
        digest = hashlib.sha256("".join(w["digest"] for w in workers).encode()).hexdigest()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": workers[0]["python"],
        "numpy": workers[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "digest": digest,
        "error_rate": failed / max(attempted, 1),
        "latency_samples": sum(len(w["latencies_ms"]) for w in workers),
        "raw": None if trace else _end_to_end_values(workers, "raw_"),
        "failures": failures,
        "workers": [
            {k: w[k] for k in ("setup_s", "raw_setup_s", "wall_s", "call_s", "raw_call_s", "calls",
                               "shifts", "peak_rss_mb", "digest", "n_spans")}
            for w in workers
        ],
    }
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return record, result


def _worker(spec: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"no time left for worker {spec['stream']} of {spec['workload']}")
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {spec['workload']} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end_values(workers: list[dict], prefix: str = "") -> dict:
    """The end-to-end figures from host-speed-scaled times, or from raw wall
    times with prefix="raw_"."""
    latencies = [x for w in workers for x in w[prefix + "latencies_ms"]]
    call_s = sum(w[prefix + "call_s"] for w in workers)
    return {
        "shifts_per_s": sum(w["shifts"] for w in workers) / call_s,
        "shift_p50_ms": statistics.median(latencies),
        "shift_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(w[prefix + "setup_s"] for w in workers),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }


def _end_to_end_metrics(bench: dict, workers: list[dict]) -> dict:
    values = _end_to_end_values(workers)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}


def _layer_metrics(bench: dict, plain: dict, traced: dict) -> dict:
    spans, counters = traced["spans"], traced["counters"]

    def value(name: str) -> float:
        if name == "trace.overhead_frac":
            return (traced["call_s"] - plain["call_s"]) / plain["call_s"]
        if name == "modroots.RootTable.hit_ratio":
            lookups = spans.get("modroots.RootTable.roots", {}).get("calls", 0)
            first = counters.get("modroots.RootTable.first_sightings", 0)
            return 1.0 - first / lookups if lookups else 0.0
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            return spans.get(span, {}).get(field, 0)
        return counters.get(name, 0)

    return {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in bench["per_layer"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
