"""Runs one workload in a fresh interpreter and prints one JSON line.

run.py starts it as ``python3 worker.py '<spec>'``, where the JSON spec holds:

- ``root``: the checkout whose ``src/polylcm`` is measured;
- ``workload``, ``seed`` and ``stream``: the inputs are made from
  ``random.Random("<workload>:<seed>:<stream>")``;
- ``seconds`` and ``mode``: in ``"timed"`` mode the timed phase runs call
  groups until ``seconds`` have passed and at least the workload's
  ``min_groups`` are done; ``"replay"`` and ``"traced"`` run exactly
  ``max(digest_groups, round(seconds * trace_groups_per_s))`` groups, so
  the two replays do identical work, and ``"traced"`` wraps polylcm's
  public functions in a SpanTracer during the timed phase;
- ``scratch``: a directory inside the checkout for files the calls write
  (run.py removes it).

Set-up time runs from the start of this file through the polylcm import,
input generation, sieve warm-up and one untimed warm-up call.  Output
checks run after the timed phase.

Host-speed scaling: on a shared host the speed of one vCPU can drift by
up to 1.75x over tens of seconds with zero steal time (a busy neighbour on
the same core), which no run short enough to repeat can average out.  So
a fixed pure-Python integer loop is timed before set-up, after set-up and
after every call, and each call's wall time is multiplied by
REFERENCE_NOMINAL_S over the mean of the loop times just before and after
it (set-up likewise).  The loop shares no code with polylcm, so a change
to polylcm changes scaled and raw times by the same factor; the raw times
are reported too.
"""

import time


def reference_s() -> float:
    """Wall time of a fixed pure-Python integer loop (about 3 ms here)."""
    t = time.perf_counter()
    acc, n = 0, (1 << 61) - 1
    for p in range(3, 60001, 2):
        acc += n % p
    return time.perf_counter() - t


# The loop time that scaled times are expressed at: its median on the
# Intel Xeon host (2 vCPUs, Python 3.11) where the benchmark was tuned.
REFERENCE_NOMINAL_S = 0.003

_REF_BEFORE_SETUP = reference_s()
_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# factor() trial-divides by the primes below 1e5; building that table once
# belongs to set-up, not to the first timed call.
SIEVE_WARM_UP = 100_000
MAX_REPORTED_FAILURES = 5


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import polylcm
    from polylcm import ntkernel

    if not Path(polylcm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: polylcm imported from {polylcm.__file__}, not {src}", file=sys.stderr)
        return 2
    import spantrace
    import workloads

    rng = random.Random(f"{spec['workload']}:{spec['seed']}:{spec['stream']}")
    wl = workloads.WORKLOADS[spec["workload"]](rng, spec["scratch"])
    ntkernel.sieve_primes(SIEVE_WARM_UP)
    wl.warm_up()
    raw_setup_s = time.perf_counter() - _T0
    setup_s = raw_setup_s * REFERENCE_NOMINAL_S / ((_REF_BEFORE_SETUP + reference_s()) / 2)
    if spec["mode"] == "timed":
        n_groups, budget = len(wl.groups), spec["seconds"]
    else:
        n_groups = max(wl.digest_groups, round(spec["seconds"] * wl.trace_groups_per_s))
        budget = None
    tracer = spantrace.SpanTracer() if spec["mode"] == "traced" else None
    with tracer if tracer is not None else contextlib.nullcontext():
        records, wall_s = _timed_phase(wl, n_groups, budget)

    failures = []
    latencies_ms = []
    raw_latencies_ms = []
    shifts = 0
    digest = hashlib.sha256()
    for group, call, out, err, raw_s, scaled_s in records:
        n = wl.shifts(call)
        shifts += n
        latencies_ms.append(1000.0 * scaled_s / n)
        raw_latencies_ms.append(1000.0 * raw_s / n)
        if group < wl.digest_groups:
            item = {"call": call, "error": err} if err else {"output": wl.canonical(out)}
            digest.update(json.dumps({"call": call, **item}, sort_keys=True).encode())
        if err is None:
            err = wl.check(call, out)
        if err is not None:
            failures.append(f"{call}: {err}")

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "call_s": sum(r[5] for r in records),
        "raw_call_s": sum(r[4] for r in records),
        "calls": len(records),
        "shifts": shifts,
        "latencies_ms": latencies_ms,
        "raw_latencies_ms": raw_latencies_ms,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "spans": tracer.totals() if tracer is not None else None,
        "counters": tracer.counters if tracer is not None else None,
        "n_spans": tracer.n_spans if tracer is not None else 0,
    }
    print(json.dumps(result))
    return 0


def _timed_phase(wl, n_groups, budget):
    """Closed loop: each call is issued when the previous one returns (after
    one reference-loop timing).  Stops between groups, once the budget is
    spent (if any) and at least min_groups are done, or after n_groups.
    Returns (group, call, output, error, raw_s, scaled_s) per call and the
    phase's wall time."""
    records = []
    start = time.perf_counter()
    ref_before = reference_s()
    for g, group in enumerate(wl.groups[:n_groups]):
        if budget is not None and g >= wl.min_groups and time.perf_counter() - start >= budget:
            break
        for call in group:
            t = time.perf_counter()
            try:
                out, err = wl.execute(call), None
            except Exception as exc:  # counted as a failed call; the loop goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            raw_s = time.perf_counter() - t
            ref_after = reference_s()
            scaled_s = raw_s * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)
            records.append((g, call, out, err, raw_s, scaled_s))
            ref_before = ref_after
    return records, time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
