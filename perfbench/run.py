"""The repository benchmark: one command, two workloads, every metric.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sim_tree --seed 1 --seconds 30 --trace 0

It builds nothing: the package is imported from ``src/`` of the
checkout.  One invocation is one run in a fresh process.  It repeats the
workload until ``--seconds`` of timed work are done, checks every
repetition's detections against a reference, and prints as its last
stdout line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, measured on
untraced repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate; the metrics are the per-layer ones, read from
the traced repetitions, plus the tracing overhead.  The line before the
result is a JSON detail record: environment stamp, per-repetition
figures, GC pauses and the drain tail.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"

#: name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "intervals_per_s": "1/s",
    "goodput_per_s": "1/s",
    "detect_latency_p50_ms": "ms",
    "sojourn_p50_ms": "ms",
    "messages_per_detection": "msgs",
    "wire_bytes_per_detection": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # Measured on untraced repetitions like the end-to-end metrics, but
    # without a bound: see README.md, "Why p99 has no bound".
    "detect_latency_p99_ms": "ms",
    "clocks.compare.self_s": "s",
    "clocks.compare.calls": "count",
    "detect.core.self_s": "s",
    "detect.core.offers": "count",
    "detect.core.comparisons_per_offer": "ratio",
    "detect.core.solutions_per_offer": "ratio",
    "detect.core.peak_queue_space": "count",
    "intervals.aggregation.self_s": "s",
    "intervals.aggregation.calls": "count",
    "detect.roles.self_s": "s",
    "detect.roles.reports_per_detection": "ratio",
    "sim.kernel.self_s": "s",
    "sim.kernel.events": "count",
    "sim.network.self_s": "s",
    "sim.network.messages": "count",
    "sim.process.self_s": "s",
    "sim.trace.self_s": "s",
    "sim.trace.records": "count",
    "workload.self_s": "s",
    "obs.spans.self_s": "s",
    "obs.spans.spans_recorded": "count",
    "net.codec.encode_s": "s",
    "net.codec.decode_s": "s",
    "net.codec.frames_per_feed": "ratio",
    "net.codec.bytes_per_frame": "B",
    "net.transport.self_s": "s",
    "net.transport.frames_per_flush": "ratio",
    "net.transport.dropped": "count",
    "net.runtime.self_s": "s",
    "load.generators.lateness_p99_ms": "ms",
    "load.dispatch.self_s": "s",
    "load.admission.self_s": "s",
    "load.admission.shed": "count",
    "load.session.self_s": "s",
    "load.latency.outstanding_max": "count",
    "obs.epochs.self_s": "s",
    "obs.epochs.stranded": "count",
    "python.gc_pause_s": "s",
    "python.gc_pause_max_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> "str | None":
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` in an exported tree or when the ref is packed."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment_stamp() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end_metrics(reps) -> dict:
    """Every end-to-end metric from the untraced repetitions.  Rates
    divide the run's totals (intervals over timed seconds), and latency
    percentiles pool the samples of every repetition: the machine's
    fast and slow phases then weigh by the time they took, where a
    median of per-repetition rates would jump between the two."""
    from workloads import percentile

    setups = [s for rep in reps for s in rep.setup_s]
    latencies = [x for rep in reps for x in rep.latencies_ms]
    sojourns = [x for rep in reps for x in rep.sojourns_ms]
    detections = sum(rep.detections for rep in reps)
    values = {
        "setup_s": statistics.median(setups),
        "intervals_per_s": sum(rep.intervals for rep in reps) / sum(rep.wall_s for rep in reps),
        "goodput_per_s": sum(rep.completed for rep in reps) / sum(rep.active_s for rep in reps),
        "detect_latency_p50_ms": percentile(latencies, 50),
        "sojourn_p50_ms": percentile(sojourns, 50),
        "messages_per_detection": sum(rep.messages for rep in reps) / detections,
        "wire_bytes_per_detection": sum(rep.wire_bytes for rep in reps) / detections,
        # Read at the end of the first timed region, so the reference
        # replays of later repetitions do not count.
        "peak_rss_mb": reps[0].rss_mb,
    }
    return values


def detect_latency_p99(reps) -> float:
    from workloads import percentile

    return percentile([x for rep in reps for x in rep.latencies_ms], 99)


def per_layer_metrics(untraced, traced, tracers) -> dict:
    """Per-layer metrics: means over the traced repetitions; the p99
    latency, GC pauses and generator lateness from the untraced ones;
    tracing overhead as the median, over twin pairs, of CPU seconds per
    interval traced over untraced."""
    from workloads import tracer_layer_metrics

    values = {name: 0.0 for name in PER_LAYER}
    values["detect_latency_p99_ms"] = detect_latency_p99(untraced)
    for rep, tracer in zip(traced, tracers):
        rows = {**tracer_layer_metrics(tracer), **rep.layer}
        for name, value in rows.items():
            if name not in values:
                raise KeyError(f"undeclared per-layer metric {name}")
            values[name] += value / len(traced)
    for rep in untraced:
        values["python.gc_pause_s"] += rep.gc_pause_s / len(untraced)
    values["python.gc_pause_max_ms"] = 1000.0 * max(rep.gc_pause_max_s for rep in untraced)
    if "lateness_p99_ms" in untraced[0].extra:
        values["load.generators.lateness_p99_ms"] = statistics.median(
            rep.extra["lateness_p99_ms"] for rep in untraced
        )
    # Each traced repetition runs right after its untraced twin on the
    # same seed, so the pair's ratio cancels slow drifts of machine speed.
    values["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(
            (rep.cpu_s / rep.intervals) / (plain.cpu_s / plain.intervals)
            for plain, rep in zip(untraced, traced)
        )
        - 1.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import GcMonitor, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    gc_monitor = GcMonitor()
    gc.callbacks.append(gc_monitor)
    stamp = environment_stamp()

    # Repetition k runs on seed ``seed * 1000 + k`` (k modulo the
    # workload's DISTINCT_INPUTS, when it sets one).  A traced run pairs
    # each untraced repetition with a traced one on the same seed.
    inputs = getattr(workload, "DISTINCT_INPUTS", None)
    untraced, traced, tracers = [], [], []
    while True:
        timed = sum(rep.budget_s for rep in untraced + traced)
        if untraced and timed >= args.seconds and len(traced) == args.trace * len(untraced):
            break
        use_tracer = args.trace and len(traced) < len(untraced)
        tracer = Tracer() if use_tracer else None
        # Each repetition starts from a collected heap, so the previous
        # repetition's garbage is not charged to this one's set-up.
        gc.collect()
        index = len(traced if use_tracer else untraced)
        seed = args.seed * 1000 + (index % inputs if inputs else index)
        rep = workload.rep(seed, tracer, gc_monitor, args.seconds)
        (traced if use_tracer else untraced).append(rep)
        if tracer is not None:
            tracers.append(tracer)

    e2e = end_to_end_metrics(untraced)
    failed = sum(rep.failed for rep in untraced + traced)
    # Tracing must not change what is detected.
    for plain, rep in zip(untraced, traced):
        if rep.signatures != plain.signatures:
            failed += 1
    attempted = sum(rep.attempted for rep in untraced + traced)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "stamp": stamp,
        "detect_latency_p99_ms": detect_latency_p99(untraced),
        "reps": [
            {
                "traced": rep.traced,
                "setup_s": rep.setup_s,
                "wall_s": rep.wall_s,
                "cpu_s": rep.cpu_s,
                "intervals": rep.intervals,
                "detections": rep.detections,
                "gc_pause_s": rep.gc_pause_s,
                "gc_pause_max_s": rep.gc_pause_max_s,
                **rep.extra,
            }
            for rep in untraced + traced
        ],
    }
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, tracers)
        units = PER_LAYER
        path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.npz"
        tracers[-1].dump(path)
        detail["spans"] = {"file": str(path.relative_to(ROOT)), "count": tracers[-1].span_count}
        detail["end_to_end_untraced"] = e2e
    else:
        metrics, units = e2e, END_TO_END
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
