"""The two benchmark workloads.

Each workload is a class with one method, :meth:`rep`, that performs
one complete repetition — its own set-up, the timed region, the
correctness gate and the teardown — and returns a :class:`Rep`.  The
driver in ``run.py`` repeats it, each time with another seed derived
from the run's seed, until the run's time budget is spent.  Every gate
compares detections against a reference computed outside the timed
region; each mismatch is counted in ``Rep.failed``.

Why these two (see ``README.md`` for the full notes):

* ``sim_tree`` — the paper's large-scale regime: the discrete-event
  simulator on a 341-node tree.  The only workload running ``sim.*``
  in its timed region, and the only one with incompatible intervals.
* ``load_open`` — a 7-node loopback cluster behind the ``repro.load``
  traffic plane at an open-loop Poisson rate: the live path, from
  admission through codec and transport to the root's verdict.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import EpochConfig, SpanningTree, replay_centralized, run_hierarchical
from repro.intervals.overlap import pairwise_matrix
from repro.load import LoadSpec
from repro.load.generators import OpenLoopGenerator
from repro.load.session import solution_keyset
from repro.net import ClusterSpec, LocalCluster, simulation_script
from repro.sim.kernel import Simulator

from layers import GcMonitor, Tracer

__all__ = ["WORKLOADS", "Rep", "mismatches", "percentile", "tracer_layer_metrics"]


@dataclass
class Rep:
    """One repetition's raw measurements."""

    traced: bool
    setup_s: List[float]  #: set-up samples (one or more per repetition)
    wall_s: float  #: timed region, wall seconds
    budget_s: float  #: share of the run's --seconds this repetition used
    cpu_s: float  #: timed region, process CPU seconds
    rss_mb: float  #: peak resident memory of the process at the end of the timed region
    intervals: int  #: local intervals offered (closed, in the simulator)
    completed: int  #: local intervals consumed by a root detection
    active_s: float  #: first offer due -> last completing detection
    detections: int
    messages: float  #: control reports sent
    wire_bytes: float  #: bytes on the wire (binary-wire estimate in the DES)
    latencies_ms: List[float]  #: per root detection
    sojourns_ms: List[float]  #: per completed interval
    signatures: list  #: ordered solution identities, for the gates
    attempted: int
    failed: int = 0  #: failures known at the end of the repetition
    gc_pause_s: float = 0.0
    gc_pause_max_s: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


def mismatches(live: Sequence, reference: Sequence) -> int:
    """Solutions missing from or extra to the reference, counted as a
    multiset difference; a pure reordering counts as one failure."""
    if list(live) == list(reference):
        return 0
    live_count, ref_count = Counter(live), Counter(reference)
    diff = sum(((live_count - ref_count) + (ref_count - live_count)).values())
    return max(1, diff)


def _core_layer_counts(roles, root_detections: int, offers: int) -> Dict[str, float]:
    """``CoreStats`` and queue peaks summed over every node's core."""
    cores = [role.core for role in roles.values() if role.core is not None]
    comparisons = sum(core.stats.comparisons for core in cores)
    solutions = sum(core.stats.detections for core in cores)
    reports = sum(core.stats.detections for core in cores if not core.is_root)
    return {
        "detect.core.comparisons_per_offer": comparisons / max(1, offers),
        "detect.core.solutions_per_offer": solutions / max(1, offers),
        "detect.core.peak_queue_space": max(
            (core.peak_queue_space() for core in cores), default=0
        ),
        "detect.roles.reports_per_detection": reports / max(1, root_detections),
    }


def tracer_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    out = {}
    for layer in tracer.layers:
        if layer.startswith("net.codec."):
            continue
        out[f"{layer}.self_s"] = tracer.self_time(layer)
    out["net.codec.encode_s"] = tracer.self_time("net.codec.encode")
    out["net.codec.decode_s"] = tracer.self_time("net.codec.decode")
    out["clocks.compare.calls"] = tracer.call_count("clocks.compare")
    out["intervals.aggregation.calls"] = tracer.call_count("intervals.aggregation")
    out["sim.trace.records"] = tracer.call_count("sim.trace")
    out["load.latency.outstanding_max"] = tracer.outstanding_max
    return out


class _Timed:
    """Wall and CPU clocks plus a GC window around a timed region.

    Entering collects the heap first: set-up's garbage is not charged to
    the timed region, and every timed region starts from the same GC
    state, so the collector's schedule during the run repeats."""

    def __init__(self, gc_monitor: GcMonitor) -> None:
        self.gc = gc_monitor

    def __enter__(self):
        self.entered = time.perf_counter()
        gc.collect()
        self.gc.reset()
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.wall0
        self.cpu_s = time.process_time() - self.cpu0
        self.gc_pause_s = self.gc.pause_s
        self.gc_pause_max_s = self.gc.pause_max_s
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# sim_tree
# ----------------------------------------------------------------------
class SimTree:
    """DES ``run_hierarchical`` on ``SpanningTree.regular(4, 5)``."""

    name = "sim_tree"
    #: The reference replay costs about three times the simulation, so a
    #: run cycles through three inputs and replays each once.
    DISTINCT_INPUTS = 3

    def __init__(self, epochs: int = 20, degree: int = 4, height: int = 5) -> None:
        self.epochs = epochs
        self.degree = degree
        self.height = height
        self._references: Dict[int, list] = {}

    def rep(self, seed: int, tracer: Optional[Tracer], gc_monitor: GcMonitor, seconds: float) -> Rep:
        # Set-up is everything before the first simulated event: tree and
        # config, then the roles, processes and the scheduled epochs that
        # run_hierarchical builds before it calls Simulator.run, which is
        # the timed region.
        timed = _Timed(gc_monitor)
        original_run = Simulator.run

        def timed_run(sim, *args, **kwargs):
            if tracer is not None:
                tracer.install()
            try:
                with timed:
                    return original_run(sim, *args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.uninstall()

        Simulator.run = timed_run
        try:
            t0 = time.perf_counter()
            tree = SpanningTree.regular(self.degree, self.height)
            result = run_hierarchical(tree, seed=seed, config=EpochConfig(epochs=self.epochs))
        finally:
            Simulator.run = original_run
        setup = timed.entered - t0

        trace = result.trace
        detections = sorted(result.detections, key=lambda d: d.solution.index)
        latencies, sojourns, unsafe = [], [], 0
        for record in detections:
            leaves = record.solution.concrete_intervals()
            # Eq. 2 on the concrete leaves: min(x_i) < max(x_j) for all i != j.
            table = pairwise_matrix(leaves)
            np.fill_diagonal(table, True)
            unsafe += not table.all()
            closes = [trace.interval_close_time(leaf) for leaf in leaves]
            # One simulated delay unit (the mean hop delay) reads as 1 ms.
            latencies.append(record.time - max(closes))
            sojourns.extend(record.time - close for close in closes)
        signatures = [solution_keyset(d.solution) for d in detections]
        if seed not in self._references:
            self._references[seed] = [
                solution_keyset(s)
                for s in sorted(replay_centralized(trace), key=lambda s: s.index)
            ]
        reference = self._references[seed]
        intervals = sum(len(ivs) for ivs in trace.all_intervals().values())
        rep = Rep(
            traced=tracer is not None,
            setup_s=[setup],
            wall_s=timed.wall_s,
            budget_s=timed.wall_s,
            cpu_s=timed.cpu_s,
            rss_mb=timed.rss_mb,
            intervals=intervals,
            # Every closed interval reaches a verdict (a solution or a
            # prune), and the simulator has no idle window to exclude.
            completed=intervals,
            active_s=timed.wall_s,
            detections=len(detections),
            messages=result.metrics.control_messages,
            # The paper's message-size model: 8-byte vector entries.
            wire_bytes=8 * result.network.bandwidth_entries("control"),
            latencies_ms=latencies,
            sojourns_ms=sojourns,
            signatures=signatures,
            attempted=intervals,
            failed=unsafe + mismatches(signatures, reference),
            gc_pause_s=timed.gc_pause_s,
            gc_pause_max_s=timed.gc_pause_max_s,
        )
        if tracer is not None:
            offers = tracer.call_count("detect.core")
            rep.layer.update(_core_layer_counts(result.roles, len(detections), offers))
            rep.layer["detect.core.offers"] = offers
            rep.layer["sim.kernel.events"] = result.sim.events_executed
            rep.layer["sim.network.messages"] = sum(result.network.sent.values())
            rep.layer["obs.spans.spans_recorded"] = len(result.sim.telemetry.spans)
        return rep


# ----------------------------------------------------------------------
# live clusters
# ----------------------------------------------------------------------
def _registry_sum(cluster, name: str, match=None) -> float:
    total = 0.0
    for scope in cluster.scopes.values():
        metric = scope.telemetry.registry.get(name)
        if metric is None:
            continue
        for key, value in dict(metric).items():
            if match is None or match(key):
                total += value
    return total


def _report_frames(cluster) -> float:
    return _registry_sum(
        cluster,
        "repro_net_frames_total",
        lambda key: key[1] == "out" and key[2] == "IntervalReport",
    )


def _net_layer_counts(cluster, tracer: Tracer) -> Dict[str, float]:
    frames_out = _registry_sum(cluster, "repro_net_frames_total", lambda k: k[1] == "out")
    frames_in = _registry_sum(cluster, "repro_net_frames_total", lambda k: k[1] == "in")
    bytes_sent = _registry_sum(cluster, "repro_net_bytes_sent_total")
    flushes = tracer.counts["loopback_flushes"]
    decode_calls = tracer.call_count("net.codec.decode")
    return {
        "net.codec.frames_per_feed": frames_in / max(1, decode_calls),
        "net.codec.bytes_per_frame": bytes_sent / max(1.0, frames_out),
        "net.transport.frames_per_flush": frames_out / max(1, flushes),
        "net.transport.dropped": _registry_sum(cluster, "repro_net_outbox_dropped_total"),
    }


class LoadOpen:
    """The 7-node loopback cluster behind ``repro.load``: open-loop
    Poisson arrivals, round-robin dispatch, shed policy.

    Every offer is timed from its *due* time — the generator's
    precomputed plan offset plus the instant the plan was started — so
    a stalled loop is charged to every offer it delays, not hidden in
    a late intake."""

    name = "load_open"
    #: At 700/s the loop was busy 64 % of the time in a slow phase of
    #: the machine, the queues grew, and the median latency spread by
    #: 0.42 over ten seeds; at 350/s it is busy about 38 % then.
    RATE = 350.0
    MAX_OUTSTANDING = 256
    SETUPS = 5
    #: A run is a series of sessions of at most this many seconds.  The
    #: nodes keep every emission and solution, so a longer session grows
    #: the heap and with it the gen2 pauses: one of ten 14000-offer
    #: sessions went past max_outstanding during a pause and shed offers.
    SESSION_S = 15.0

    def _spec(self, seed: int, offers: int) -> ClusterSpec:
        return ClusterSpec(
            nodes=7,
            degree=2,
            seed=seed,
            transport="loopback",
            wire="binary",
            sync_prob=1.0,
            load=LoadSpec(
                mode="open",
                rate=self.RATE,
                arrival="poisson",
                total_offers=offers,
                dispatch="round_robin",
                policy="shed",
                max_outstanding=self.MAX_OUTSTANDING,
            ),
        )

    def rep(self, seed: int, tracer: Optional[Tracer], gc_monitor: GcMonitor, seconds: float) -> Rep:
        session_s = min(seconds, self.SESSION_S)
        return asyncio.run(self._rep(seed, tracer, gc_monitor, session_s))

    async def _rep(self, seed, tracer, gc_monitor, seconds) -> Rep:
        # Whole epochs only: a trailing partial epoch can never complete.
        offers = 7 * max(1, round(self.RATE * seconds / 7))
        spec = self._spec(seed, offers)
        bases: List[float] = []
        original_start = OpenLoopGenerator.start

        def recording_start(generator, at: float = 0.0) -> None:
            bases.append(at)
            original_start(generator, at)

        setups = []
        OpenLoopGenerator.start = recording_start
        try:
            for attempt in range(self.SETUPS):
                t0 = time.perf_counter()
                script = simulation_script(spec.tree(), seed=seed, epochs=spec.epochs, sync_prob=1.0)
                cluster = LocalCluster(spec, script=script)
                await cluster.start()
                setups.append(time.perf_counter() - t0)
                if attempt < self.SETUPS - 1:
                    await cluster.stop()
        finally:
            OpenLoopGenerator.start = original_start
        try:
            return await self._session(cluster, bases[-1], setups, tracer, gc_monitor, seconds)
        finally:
            await cluster.stop()

    async def _session(self, cluster, base, setups, tracer, gc_monitor, seconds) -> Rep:
        session = cluster.load_session
        generator = session.generator
        plan = generator.plan()
        clock = cluster.clock
        lateness, sojourns, latencies, members = [], [], [], []
        completions: List[float] = []
        original_resolved = generator.offer_resolved
        original_notify = session.notify_detection

        def offer_resolved(offer, outcome: str) -> None:
            due = base + plan[offer.index][0]
            lateness.append(1000.0 * (offer.issued_at - due))
            if outcome == "completed":
                now = clock.now
                sojourns.append(1000.0 * (now - due))
                members.append(due)
                completions.append(now)
            original_resolved(offer, outcome)

        def notify_detection(record) -> None:
            members.clear()
            now = clock.now
            original_notify(record)
            if members:
                latencies.append(1000.0 * (now - max(members)))

        generator.offer_resolved = offer_resolved
        session.notify_detection = notify_detection
        if tracer is not None:
            tracer.install()
        try:
            with _Timed(gc_monitor) as timed:
                await cluster.run(until_load_drained=True, timeout=seconds + 60.0)
                drained_at = clock.now
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Grace: a detection beyond the reference must have time to show.
        await asyncio.sleep(0.05)

        counts = dict(session.counts)
        reference = [
            solution_keyset(s)
            for s in sorted(session.reference_solutions(), key=lambda s: s.index)
        ]
        live = [
            solution_keyset(d.solution)
            for d in sorted(cluster.detections, key=lambda d: d.solution.index)
        ]
        failed = counts["shed"] + counts["abandoned"] + mismatches(live, reference)
        failed += abs(counts["offered"] - counts["admitted"] - counts["shed"])
        failed += abs(counts["admitted"] - counts["completed"] - counts["abandoned"])
        first_due = base + plan[0][0]
        last_completion = max(completions, default=first_due)
        rep = Rep(
            traced=tracer is not None,
            setup_s=setups,
            wall_s=timed.wall_s,
            # The session's plan spans its seconds whatever the Poisson
            # draw made the wall time.
            budget_s=seconds,
            cpu_s=timed.cpu_s,
            rss_mb=timed.rss_mb,
            intervals=counts["completed"],
            completed=counts["completed"],
            active_s=last_completion - first_due,
            detections=len(cluster.detections),
            messages=_report_frames(cluster),
            wire_bytes=_registry_sum(cluster, "repro_net_bytes_sent_total"),
            latencies_ms=latencies,
            sojourns_ms=sojourns,
            signatures=live,
            attempted=counts["offered"],
            failed=failed,
            gc_pause_s=timed.gc_pause_s,
            gc_pause_max_s=timed.gc_pause_max_s,
            extra={
                "drain_tail_s": drained_at - last_completion,
                "lateness_p99_ms": percentile(lateness, 99),
            },
        )
        if tracer is not None:
            offers_core = tracer.call_count("detect.core")
            rep.layer.update(_core_layer_counts(cluster.roles, len(cluster.detections), offers_core))
            rep.layer["detect.core.offers"] = offers_core
            rep.layer["obs.spans.spans_recorded"] = sum(
                len(scope.telemetry.spans) for scope in cluster.scopes.values()
            )
            rep.layer.update(_net_layer_counts(cluster, tracer))
            rep.layer["load.admission.shed"] = counts["shed"]
            rep.layer["obs.epochs.stranded"] = session.epochs.summary()["stranded"]
        return rep


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


WORKLOADS = {
    "sim_tree": lambda: SimTree(),
    "load_open": lambda: LoadOpen(),
}
