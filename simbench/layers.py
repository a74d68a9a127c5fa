"""The traced run: host CPU and counts per layer, simulated time per layer.

Everything here observes the program from outside ``src/``:

- host self time comes from ``cProfile`` over the timed region,
  aggregated by the module path of each function; functions outside the
  program (C builtins, the standard library) are charged to the layer
  that called them, in proportion to the time each caller spent in them;
- counts come from wrapping named public entry points for the traced
  round only, and from counters the program already keeps;
- the simulated split comes from the program's own span telemetry.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
from typing import Optional

import repro
from repro.core.endpoint import Endpoint
from repro.memcached.engine import CommandEngine
from repro.sim.resources import Resource
from repro.sockets.api import Socket
from repro.telemetry import aggregate_breakdown, spans_by_trace, tracer
from repro.verbs.qp import QueuePair
from simbench.workloads import LoopHooks, RoundResult

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Self-time layers, named after the program's modules.
LAYERS = (
    "sim",
    "core",
    "verbs",
    "fabric",
    "sockets",
    "memcached.protocol",
    "memcached.client",
    "memcached.server",
    "memcached.store",
    "memcached.onesided",
    "cluster",
    "check",
)
_MEMCACHED_MODULES = {
    "client": "memcached.client",
    "command": "memcached.client",
    "server": "memcached.server",
    "engine": "memcached.server",
    "store": "memcached.store",
    "slabs": "memcached.store",
    "lru": "memcached.store",
    "hashtable": "memcached.store",
    "items": "memcached.store",
}
#: Span layers of the simulated split (repro.telemetry.LAYERS minus chaos).
SIM_LAYERS = ("client", "am", "verbs", "sockets", "fabric", "server", "store")
FALLBACK_REASONS = ("absent", "expired", "oversize", "torn")

#: (class, method, count name) wrapped in the traced round.
ENTRY_POINTS = (
    (Resource, "request", "grants"),
    (Endpoint, "send_message", "messages"),
    (QueuePair, "post_send", "post_send"),
    (Socket, "send", "socket_send"),
    (Socket, "recv", "socket_recv"),
    (CommandEngine, "apply", "apply"),
)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside the program."""
    if filename.startswith(BENCH_DIR):
        return "bench"
    if not filename.startswith(REPRO_DIR):
        return None
    parts = filename[len(REPRO_DIR):].split(os.sep)
    if parts[0] == "memcached" and len(parts) > 1:
        if parts[1] == "onesided":
            return "memcached.onesided"
        module = parts[1].removesuffix(".py")
        if module.startswith("protocol"):
            return "memcached.protocol"
        return _MEMCACHED_MODULES.get(module, "memcached.other")
    top = parts[0].removesuffix(".py")
    return top if top in LAYERS else "other"


def self_seconds(profile: cProfile.Profile) -> dict[str, float]:
    """Self CPU seconds per layer, foreign functions charged to callers."""
    stats = pstats.Stats(profile).stats
    totals: dict[str, float] = {}

    def charge(func, seconds: float, seen: frozenset) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + seconds
            return
        callers = stats[func][4] if func in stats else {}
        base = sum(c[2] for c in callers.values())
        if base <= 0 or func in seen or len(seen) > 8:
            totals["other"] = totals.get("other", 0.0) + seconds
            return
        for caller, c in callers.items():
            charge(caller, seconds * c[2] / base, seen | {func})

    for func, (_, _, tt, _, _) in stats.items():
        if tt > 0:
            charge(func, tt, frozenset())
    return totals


def _counter_snapshot(cluster, clients) -> dict[str, float]:
    """Counters the program already keeps, summed over the deployment."""
    snap = dict.fromkeys(
        ("frames", "bytes", "store_gets", "store_hits", "evictions", "publishes",
         "onesided_hits", "onesided_reads"), 0)
    for reason in FALLBACK_REASONS:
        snap[f"fallback.{reason}"] = 0
    for node in cluster.nodes.values():
        for net in node.networks:
            nic = node.nic(net)
            snap["frames"] += nic.frames_sent.value
            snap["bytes"] += nic.bytes_sent.value
    for server in cluster.servers.values():
        stats = server.store.stats
        snap["store_gets"] += stats.cmd_get
        snap["store_hits"] += stats.get_hits
        snap["evictions"] += stats.evictions
        if server.onesided_index is not None:
            snap["publishes"] += server.onesided_index.publishes
    for client in clients:
        t = client.transport
        snap["onesided_hits"] += getattr(t, "onesided_hits", 0)
        snap["onesided_reads"] += getattr(t, "onesided_reads", 0)
        for reason, n in getattr(t, "fallbacks", {}).items():
            snap[f"fallback.{reason}"] += n
    return snap


class TracedRound(LoopHooks):
    """Profiles, counts and traces the timed region of one round.

    Use as a context manager around :func:`~simbench.workloads.run_round`
    so that the entry-point wrappers are always removed.
    """

    def __init__(self) -> None:
        self.counts = {name: 0 for _, _, name in ENTRY_POINTS}
        self.queued_grants = 0
        self.profile = cProfile.Profile()
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "TracedRound":
        for cls, method, name in ENTRY_POINTS:
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, original, name: str):
        counts = self.counts

        if name == "grants":
            def counted(resource, *args, **kwargs):
                counts[name] += 1
                req = original(resource, *args, **kwargs)
                if not req.triggered:
                    self.queued_grants += 1
                return req
        else:
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
        return counted

    def loop_started(self, cluster, clients) -> None:
        self.cluster, self.clients = cluster, clients
        for name in self.counts:
            self.counts[name] = 0
        self.queued_grants = 0
        self.before = _counter_snapshot(cluster, clients)
        tracer.enable()
        self.profile.enable()

    def loop_finished(self) -> None:
        self.profile.disable()
        tracer.disable()
        self.after = _counter_snapshot(self.cluster, self.clients)
        self.spans = tracer.finished_spans()
        tracer.clear()

    def metrics(self, result: RoundResult) -> dict[str, float]:
        """The per-layer metrics of this round (see README.md)."""
        ops = result.ops
        gets, sets = len(result.get_lat), len(result.set_lat)
        delta = {k: self.after[k] - self.before[k] for k in self.before}
        self_s = self_seconds(self.profile)
        m: dict[str, float] = {}
        for layer in LAYERS:
            if layer != "check":
                m[f"{layer}.self_us_per_op"] = self_s.get(layer, 0.0) * 1e6 / ops
        grants = self.counts["grants"]
        m.update({
            "sim.events_per_op": result.events / ops,
            "sim.grants_per_op": grants / ops,
            "sim.grants_queued_ratio": _ratio(self.queued_grants, grants),
            "core.messages_per_op": self.counts["messages"] / ops,
            "verbs.post_send_per_op": self.counts["post_send"] / ops,
            "fabric.frames_per_op": delta["frames"] / ops,
            "fabric.bytes_per_op": delta["bytes"] / ops,
            "sockets.send_per_op": self.counts["socket_send"] / ops,
            "sockets.recv_per_op": self.counts["socket_recv"] / ops,
            "memcached.server.apply_per_op": self.counts["apply"] / ops,
            "memcached.store.get_hit_ratio": _ratio(delta["store_hits"], delta["store_gets"]),
            "memcached.store.evictions": delta["evictions"],
            "memcached.onesided.hit_ratio": _ratio(delta["onesided_hits"], gets),
            "memcached.onesided.reads_per_get": _ratio(delta["onesided_reads"], gets),
            "memcached.onesided.publishes_per_set": _ratio(delta["publishes"], sets),
            "check.record_us_per_op": self_s.get("check", 0.0) * 1e6 / ops,
            "check.linearize_s": result.check_s,
            "check.groups": result.check_groups,
        })
        for reason in FALLBACK_REASONS:
            m[f"memcached.onesided.fallback.{reason}"] = delta[f"fallback.{reason}"]
        m.update(self.simulated_split())
        # Host time outside the named layers, for the report only.
        self.extra_self_us_per_op = {
            "bench.self_us_per_op": self_s.get("bench", 0.0) * 1e6 / ops,
            "other.self_us_per_op": sum(
                v for k, v in self_s.items() if k not in LAYERS and k != "bench"
            ) * 1e6 / ops,
        }
        return m

    def simulated_split(self) -> dict[str, float]:
        """Simulated µs per span layer, averaged over the timed Gets (the
        layers sum to ``sim_get_mean_us``)."""
        traces = [
            trace
            for trace in spans_by_trace(self.spans).values()
            if any(s.parent_id is None and s.name == "client.get" for s in trace)
        ]
        split = aggregate_breakdown(traces, how="mean") if traces else {}
        return {f"simtime.{layer}_us": split.get(layer, 0.0) for layer in SIM_LAYERS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced rounds (counts repeat exactly)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
