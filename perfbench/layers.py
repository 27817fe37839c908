"""Outside-in layer tracing for the benchmark.

A traced repetition patches the public entry points of each layer with
a wrapper that records one span per call: layer, start, end and the
span that was open when the call began (its parent).  Nothing under
``src/`` knows about it; the wrappers are installed on the classes and
modules from here and removed again when the repetition ends, so the
untraced repetitions that share the process run the original code.

Spans live in flat in-memory arrays and are written out once, at the
end of the run (:meth:`Tracer.dump`).  A layer's *self time* is its
span's duration minus the time covered by its direct child spans; it is
accumulated as spans close, so the per-layer totals need no second pass.

Every wrapped entry point is a plain synchronous function.  Inside one
asyncio loop or one simulator a synchronous call cannot interleave with
another, so one stack of open spans is exact.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_ENTRY_POINTS", "COUNTED_CALLS", "Tracer", "GcMonitor"]

#: layer -> (module, owner attribute or None for a module function, names).
#: The owner is resolved by import at install time.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "clocks.compare": [
        ("repro.clocks.compare", "HeadMatrix",
         ("partners", "set_head", "clear_head", "dominators")),
    ],
    "detect.core": [
        ("repro.detect.core", "RepeatedDetectionCore", ("offer", "offer_batch")),
    ],
    "intervals.aggregation": [
        # the name bound at its import site, which is what the node core calls
        ("repro.detect.hierarchical", None, ("aggregate",)),
    ],
    "detect.roles": [
        ("repro.detect.roles", "HierarchicalRole",
         ("on_local_interval", "on_control_message")),
    ],
    "sim.kernel": [("repro.sim.kernel", "Simulator", ("step",))],
    "sim.network": [("repro.sim.network", "Network", ("send",))],
    "sim.process": [
        ("repro.sim.process", "MonitoredProcess",
         ("set_predicate", "send_app", "send_control", "internal_event")),
    ],
    "sim.trace": [("repro.sim.trace", "ExecutionTrace", ("record",))],
    "workload": [
        ("repro.workload.generator", "EpochProcess",
         ("on_app_message", "begin_epoch")),
    ],
    "obs.spans": [
        ("repro.obs.spans", "SpanTracker",
         ("begin", "record", "record_interval", "mark_interval", "flush")),
    ],
    "net.codec.encode": [("repro.net.codec", "FrameCodec", ("encode",))],
    "net.codec.decode": [
        ("repro.net.codec", "FrameCodec", ("feed", "feed_meta", "decode")),
    ],
    "net.transport": [
        ("repro.net.transport", "LoopbackTransport", ("send",)),
        ("repro.net.transport", "TcpTransport", ("send",)),
    ],
    "net.runtime": [
        ("repro.net.runtime", "NodeRuntime", ("offer_local", "send_control")),
    ],
    "load.dispatch": [("repro.load.dispatch", "LoadBalancer", ("route",))],
    "load.admission": [
        ("repro.load.admission", "AdmissionController",
         ("decide", "set_outstanding")),
    ],
    "load.session": [
        ("repro.load.session", "LoadSession", ("notify_detection",)),
        ("repro.load.latency", "LatencyStore", ("admit", "complete", "expire")),
    ],
    "obs.epochs": [
        ("repro.obs.epochs", "EpochLedger",
         ("note_offered", "note_shed", "note_admitted", "note_completed",
          "note_abandoned", "tick")),
    ],
}

#: Calls that are only counted, never timed: how many flushes a
#: transport made.  The loopback transport flushes in ``_flush`` (one
#: call per destination per loop tick).
COUNTED_CALLS: Dict[str, Tuple[str, str, str]] = {
    "loopback_flushes": ("repro.net.transport", "LoopbackTransport", "_flush"),
}


def _owner(module: str, attr: Optional[str]):
    mod = importlib.import_module(module)
    return mod if attr is None else getattr(mod, attr)


class Tracer:
    """Span recorder plus the patch/unpatch lifecycle of the wrappers."""

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYER_ENTRY_POINTS)
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.counts: Dict[str, int] = {name: 0 for name in COUNTED_CALLS}
        #: largest value ever passed to AdmissionController.set_outstanding
        self.outstanding_max = 0
        self.start = array("d")
        self.end = array("d")
        self.layer = array("H")
        self.parent = array("l")
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, layer_id: int, fn: Callable) -> Callable:
        stack = self._stack
        starts, ends = self.start, self.end
        layers, parents = self.layer, self.parent
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            layers.append(layer_id)
            frame = [index, 0.0]
            stack.append(frame)
            begin = clock()
            starts.append(begin)
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                ends.append(finish)
                stack.pop()
                duration = finish - begin
                self_s[layer_id] += duration - frame[1]
                calls[layer_id] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _outstanding_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def observed(controller, value):
            if value > self.outstanding_max:
                self.outstanding_max = value
            return fn(controller, value)

        return observed

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- lifecycle -----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer_id, layer in enumerate(self.layers):
            for module, attr, names in LAYER_ENTRY_POINTS[layer]:
                owner = _owner(module, attr)
                for name in names:
                    fn = owner.__dict__[name]
                    if layer == "load.admission" and name == "set_outstanding":
                        fn = self._outstanding_wrapper(fn)
                    self._patch(owner, name, self._span_wrapper(layer_id, fn))
        for counter, (module, attr, name) in COUNTED_CALLS.items():
            owner = _owner(module, attr)
            self._patch(owner, name, self._count_wrapper(counter, owner.__dict__[name]))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        if self._stack:
            raise RuntimeError("spans left open when the tracer was removed")

    # -- results -------------------------------------------------------
    def self_time(self, layer: str) -> float:
        return self.self_s[self.layers.index(layer)]

    def call_count(self, layer: str) -> int:
        return self.calls[self.layers.index(layer)]

    @property
    def span_count(self) -> int:
        return len(self.start)

    def dump(self, path: Path) -> None:
        """Write every recorded span once, as a compressed numpy archive
        (``layer`` indexes ``layer_names``; ``parent`` is a span index,
        -1 for a root span)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layer_names=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class GcMonitor:
    """Interpreter garbage-collection pauses, via ``gc.callbacks``.

    Installed for the whole process; :meth:`reset` starts a new window
    so each repetition reads its own pauses."""

    def __init__(self) -> None:
        self._began: Optional[float] = None
        self.reset()

    def reset(self) -> None:
        self.pause_s = 0.0
        self.pause_max_s = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        elif self._began is not None:
            pause = time.perf_counter() - self._began
            self._began = None
            self.pause_s += pause
            if pause > self.pause_max_s:
                self.pause_max_s = pause
