"""The simulated network: asynchronous, reliable, non-FIFO channels.

Channels follow the paper's model (Section II-A): message delivery is
asynchronous with unbounded, variable delay and *no* FIFO guarantee —
each message samples its own per-hop delay, so later messages can
overtake earlier ones.  Channels are reliable between live nodes;
messages to, from, or routed *through* a crashed node are dropped
(crash-stop failures, Section III-F).

Two delivery primitives:

* :meth:`Network.send` — one hop along an edge of the communication
  graph.  Used for application traffic between neighbours, hierarchical
  interval reports (always to the immediate parent) and heartbeats.
* :meth:`Network.send_routed` — hop-by-hop forwarding along an explicit
  route.  Used by the centralized baseline, whose reports must reach
  the sink across ``h - level`` hops; every hop increments the message
  counters, exactly the accounting of Eq. (12)–(14).

All message counts are recorded per plane/type for the experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import networkx as nx

from .kernel import Simulator
from .messages import payload_entries

__all__ = [
    "Network",
    "DelayModel",
    "uniform_delay",
    "exponential_delay",
    "lognormal_delay",
    "distance_delay",
]

#: Samples a one-hop latency: ``(rng, src, dst) -> float``.
DelayModel = Callable[[object, int, int], float]


def uniform_delay(low: float = 0.5, high: float = 1.5) -> DelayModel:
    """Per-hop delay uniform in ``[low, high)`` — non-FIFO for high > low."""

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.uniform(low, high))

    return sample


def exponential_delay(mean: float = 1.0) -> DelayModel:
    """Memoryless per-hop delay (heavily non-FIFO)."""

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.exponential(mean))

    return sample


def lognormal_delay(median: float = 1.0, sigma: float = 0.5) -> DelayModel:
    """Heavy-tailed per-hop delay — the shape real RTT distributions
    take; occasional stragglers exercise the reorder buffers hard."""

    import math

    mu = math.log(median)

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.lognormal(mu, sigma))

    return sample


def distance_delay(
    positions, *, propagation: float = 1.0, jitter: float = 0.2
) -> DelayModel:
    """Per-hop delay proportional to Euclidean distance plus jitter.

    For geometric (WSN) topologies whose nodes carry coordinates —
    pass ``nx.get_node_attributes(g, "pos")`` or any ``{node: (x, y)}``
    mapping.  Nodes without coordinates fall back to unit distance.
    """

    import math

    def sample(rng, src: int, dst: int) -> float:
        a, b = positions.get(src), positions.get(dst)
        if a is None or b is None:
            dist = 1.0
        else:
            dist = math.dist(a, b)
        return propagation * dist + float(rng.uniform(0, jitter))

    return sample


class Network:
    """Message fabric over a communication graph.

    Bandwidth is accounted in vector entries per message
    (:func:`payload_entries`: ``2n + 3`` for an interval report), the
    paper's message-size model.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: nx.Graph,
        delay_model: Optional[DelayModel] = None,
        *,
        enforce_edges: bool = True,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.delay_model = delay_model or uniform_delay()
        self.enforce_edges = enforce_edges
        self._handlers: Dict[int, Callable[[int, object, str], None]] = {}
        self._dead: set[int] = set()
        # Message counters live in the run's metrics registry
        # (repro.obs): Counter semantics are unchanged — each is a
        # collections.Counter — but the registry exposes them to the
        # Prometheus exporter and the repro-trace CLI for free.
        registry = sim.telemetry.registry
        self.sent = registry.counter_vec(
            "repro_net_sent_total",
            "Messages sent, hop-counted, by plane and message type.",
            ("plane", "type"),
        )
        self.sent_entries = registry.counter_vec(  # bandwidth, vector entries
            "repro_net_sent_entries_total",
            "Transmitted volume in vector entries, by plane and type.",
            ("plane", "type"),
        )
        self.delivered = registry.counter_vec(
            "repro_net_delivered_total",
            "Messages delivered to a live handler, by plane and type.",
            ("plane", "type"),
        )
        self.dropped = registry.counter_vec(
            "repro_net_dropped_total",
            "Messages dropped (dead node or no handler), by plane and type.",
            ("plane", "type"),
        )
        self.per_node_sent = registry.counter_vec(
            "repro_net_node_sent_total",
            "Messages sent per node, hop-counted.",
            ("node",),
        )

    # ------------------------------------------------------------------
    def attach(self, node_id: int, handler: Callable[[int, object, str], None]) -> None:
        """Register *handler(src, message, plane)* for deliveries to *node_id*."""
        self._handlers[node_id] = handler

    def fail(self, node_id: int) -> None:
        """Crash-stop *node_id*: it neither sends nor receives from now on."""
        self._dead.add(node_id)

    def revive(self, node_id: int) -> None:
        """Bring a crashed node back (see repro.fault.rejoin)."""
        self._dead.discard(node_id)

    def is_alive(self, node_id: int) -> bool:
        return node_id not in self._dead

    def _delay(self, src: int, dst: int) -> float:
        return self.delay_model(self.sim.rng("net"), src, dst)

    def _check_edge(self, src: int, dst: int) -> None:
        if self.enforce_edges and not self.graph.has_edge(src, dst):
            raise ValueError(f"no communication link between {src} and {dst}")

    def _key(self, plane: str, message: object) -> tuple:
        return (plane, type(message).__name__)

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: object, plane: str = "app") -> None:
        """One-hop send along an edge (counts one message)."""
        self._check_edge(src, dst)
        key = self._key(plane, message)
        if src in self._dead:
            return
        self.sent[key] += 1
        self.sent_entries[key] += payload_entries(message)
        self.per_node_sent[src] += 1
        delay = self._delay(src, dst)

        def deliver() -> None:
            if dst in self._dead or src in self._dead:
                self.dropped[key] += 1
                return
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped[key] += 1
                return
            self.delivered[key] += 1
            handler(src, message, plane)

        self.sim.schedule(delay, deliver)

    def send_routed(
        self, route: Sequence[int], message: object, plane: str = "control"
    ) -> None:
        """Forward *message* hop-by-hop along *route* (``route[0]`` is the
        sender, ``route[-1]`` the destination).  Each hop is one message;
        a dead node anywhere on the path silently drops it."""
        if len(route) < 2:
            raise ValueError("route needs at least two nodes")
        self._advance(list(route), 0, message, plane)

    def _advance(self, route: list, hop: int, message: object, plane: str) -> None:
        src, dst = route[hop], route[hop + 1]
        self._check_edge(src, dst)
        key = self._key(plane, message)
        if src in self._dead:
            self.dropped[key] += 1
            return
        self.sent[key] += 1
        self.sent_entries[key] += payload_entries(message)
        self.per_node_sent[src] += 1
        delay = self._delay(src, dst)

        def deliver() -> None:
            if dst in self._dead:
                self.dropped[key] += 1
                return
            if hop + 2 == len(route):
                handler = self._handlers.get(dst)
                if handler is None:
                    self.dropped[key] += 1
                    return
                self.delivered[key] += 1
                handler(route[0], message, plane)
            else:
                self._advance(route, hop + 1, message, plane)

        self.sim.schedule(delay, deliver)

    # ------------------------------------------------------------------
    def messages_sent(self, plane: Optional[str] = None) -> int:
        """Total messages sent (hop count), optionally for one plane."""
        if plane is None:
            return sum(self.sent.values())
        return sum(v for (p, _t), v in self.sent.items() if p == plane)

    def messages_by_type(self) -> Dict[tuple, int]:
        return dict(self.sent)

    def bandwidth_entries(self, plane: Optional[str] = None) -> int:
        """Total transmitted volume in vector entries (hop-counted),
        optionally restricted to one plane."""
        if plane is None:
            return sum(self.sent_entries.values())
        return sum(v for (p, _t), v in self.sent_entries.items() if p == plane)
