"""The three workloads and one measured round of each.

A round builds a fresh cluster, prepopulates every key, warms every
client connection (the set-up), then runs each client's closed loop to
completion on the simulated clock (the timed region).  Every client is a
DES process in this one host thread; the round opens no host sockets and
starts no threads.

Inputs come from the seed alone and are generated before the round, so
every round of one seed replays the same operations and must produce
bit-identical simulated results.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.check import check_history, recorder
from repro.cluster.builder import Cluster
from repro.cluster.configs import CLUSTER_A, CLUSTER_B, ClusterSpec
from repro.sim.rng import RngStream
from simbench.hostclock import PhaseClock

INTERLEAVED_50_50 = ("set", "get")
NON_INTERLEAVED_10_90 = ("set",) + ("get",) * 9
GET_ONLY = ("get",)


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix against one simulated deployment."""

    name: str
    why: str
    spec: ClusterSpec
    transport: str
    n_clients: int
    n_workers: int
    value_size: int
    #: Repeating op block, as in the paper's memslap patterns.
    block: tuple[str, ...]
    #: "single", "uniform" or "zipf" over ``key_space`` keys.
    key_mode: str
    key_space: int
    ops_per_client: int
    n_servers: int = 1
    #: Route through ``Cluster.sharded_client`` (consistent-hash ring).
    sharded: bool = False
    #: Record the history from the first prepopulating Set and run
    #: ``check_history`` inside the timed region.
    checked: bool = False
    #: A hardware measurement of ``sim_tps`` for this configuration.
    reference_tps: Optional[float] = None
    reference: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ucr_get_fanout",
            why="the paper's headline point: 4-byte Gets from 16 UCR clients, "
            "per-op cost dominates in sim, core, verbs and fabric",
            spec=CLUSTER_B,
            transport="UCR-IB",
            n_clients=16,
            n_workers=8,
            value_size=4,
            block=GET_ONLY,
            key_mode="single",
            key_space=1,
            ops_per_client=160,
            reference_tps=1.8e6,
            reference="paper Fig. 6(c): ~1.8M ops/s, QDR, 4 B Gets, 16 clients",
        ),
        Workload(
            name="sockets_mixed_4k",
            why="IPoIB text protocol with 50/50 sets and gets of 4 KB values: "
            "sockets, parsing and the store write path; UCR layers idle",
            spec=CLUSTER_A,
            transport="IPoIB",
            n_clients=4,
            n_workers=4,
            value_size=4096,
            block=INTERLEAVED_50_50,
            key_mode="uniform",
            key_space=1024,
            ops_per_client=640,
        ),
        Workload(
            name="onesided_zipf_checked",
            why="one-sided READs through the 4-server ring under Zipf writes "
            "to hot keys, with history recording and checking",
            spec=CLUSTER_A,
            transport="UCR-1S",
            n_clients=4,
            n_workers=4,
            value_size=512,
            block=NON_INTERLEAVED_10_90,
            key_mode="zipf",
            key_space=4096,
            ops_per_client=500,
            n_servers=4,
            sharded=True,
            checked=True,
        ),
    )
}


def value_for(key: str, write: int, size: int) -> bytes:
    """The value of the *write*-th Set of *key*: a digest of both, then
    the key and write number in clear, repeated to *size* bytes, so a
    stale or cross-key reply never equals it."""
    tag = f"{key}/{write}/".encode()
    head = hashlib.blake2b(tag, digest_size=8).digest() + tag
    return (head * (size // len(head) + 1))[:size]


@dataclass
class Inputs:
    """Everything a round replays, generated from the seed."""

    keys: list[str]
    #: Per client: ``(op, key, value)`` with ``value`` None for a Get.
    scripts: list[list[tuple[str, str, Optional[bytes]]]]
    #: key -> {value: write number}; write 0 is the prepopulated value.
    written: dict[str, dict[bytes, int]]


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Every client's op script, from *seed* alone.  A single-key
    workload has no seeded input: its script is the same for every seed."""
    keys = [f"{wl.name}-{i}" for i in range(wl.key_space)]
    written: dict[str, dict[bytes, int]] = {k: {} for k in keys}

    def next_write(key: str) -> bytes:
        value = value_for(key, len(written[key]), wl.value_size)
        written[key][value] = len(written[key])
        return value

    for key in keys:
        next_write(key)
    scripts = []
    for c in range(wl.n_clients):
        rng = RngStream(seed, f"simbench/{wl.name}/client{c}")
        script = []
        for j in range(wl.ops_per_client):
            op = wl.block[j % len(wl.block)]
            if wl.key_mode == "single":
                idx = 0
            elif wl.key_mode == "uniform":
                idx = rng.randint(0, wl.key_space)
            else:
                idx = rng.zipf_index(wl.key_space, 0.99)
            key = keys[idx]
            script.append((op, key, next_write(key) if op == "set" else None))
        scripts.append(script)
    return Inputs(keys, scripts, written)


@dataclass
class RoundResult:
    """One round's host costs, simulated outcomes and verdicts.

    Host CPU seconds are raw; ``setup_scale`` and ``timed_scale`` convert
    them to reference-host seconds (see ``hostclock``).
    """

    setup_s: float
    #: The closed loops, plus the history check on checked workloads.
    timed_cpu_s: float
    check_s: float
    events: int
    sim_elapsed_us: float
    get_lat: list[float]
    set_lat: list[float]
    #: Timed-region ops that raised, missed or returned a wrong value.
    failed: int
    problems: list[str] = field(default_factory=list)
    check_groups: int = 0
    setup_scale: float = 1.0
    timed_scale: float = 1.0

    @property
    def ops(self) -> int:
        return len(self.get_lat) + len(self.set_lat)

    @property
    def ops_per_cpu_s(self) -> float:
        """Raw: ops per host CPU second of the timed region."""
        return self.ops / self.timed_cpu_s

    @property
    def ops_per_ref_cpu_s(self) -> float:
        """Calibrated: ops per reference-host CPU second."""
        return self.ops / (self.timed_cpu_s * self.timed_scale)


class LoopHooks:
    """Called around the timed region; the traced run overrides these."""

    def loop_started(self, cluster: Cluster, clients: list) -> None:
        pass

    def loop_finished(self) -> None:
        pass


class _Round:
    """The DES processes of one round and the op log they fill."""

    def __init__(self, cluster: Cluster, clients: list, inputs: Inputs,
                 clock: PhaseClock) -> None:
        self.sim = cluster.sim
        self.cluster, self.clients, self.inputs = cluster, clients, inputs
        self.clock = clock
        #: ``(op, key, value, outcome, t0, t1)`` per op, in completion order.
        self.log: list = []
        self.finished: list[float] = []

    def op(self, client, op: str, key: str, value: Optional[bytes]):
        """Process helper: one op, logged."""
        sim = self.sim
        t0 = sim.now
        try:
            if op == "set":
                outcome = yield from client.set(key, value)
            else:
                outcome = yield from client.get(key)
        except Exception as exc:  # a raised op is a failed op; the loop goes on
            outcome = exc
        self.log.append((op, key, value, outcome, t0, sim.now))
        self.clock.tick()

    def prepopulate(self):
        """Seed every key with write 0 (clients take turns over the key
        list), then have each client Get one key on every server so that
        all of its connections exist before the timed region."""
        clients, inputs = self.clients, self.inputs
        n = len(clients)

        def seed(client, keys):
            for key in keys:
                first = next(iter(inputs.written[key]))  # write 0, inserted first
                yield from self.op(client, "set", key, first)

        procs = [self.sim.process(seed(c, inputs.keys[i::n]))
                 for i, c in enumerate(clients)]
        yield self.sim.all_of(procs)
        for client in clients:
            ring = getattr(client, "ring", None)
            warm: dict[str, str] = {}
            for key in inputs.keys:
                warm.setdefault(ring.server_for(key) if ring else "", key)
                if len(warm) == len(self.cluster.server_names):
                    break
            for key in warm.values():
                yield from self.op(client, "get", key, None)

    def closed_loop(self, client, script):
        for op, key, value in script:
            yield from self.op(client, op, key, value)
        self.finished.append(self.sim.now)


def run_round(
    wl: Workload,
    inputs: Inputs,
    seed: int,
    hooks: LoopHooks = LoopHooks(),
    calibrate: bool = True,
) -> RoundResult:
    """Build, prepopulate and warm a cluster, then run the timed loops."""
    clock = PhaseClock(calibrate)
    clock.start()
    cluster = Cluster(
        wl.spec, n_client_nodes=wl.n_clients, seed=seed, n_servers=wl.n_servers
    )
    cluster.start_server(n_workers=wl.n_workers)
    make = cluster.sharded_client if wl.sharded else cluster.client
    clients = [make(wl.transport, client_node=i) for i in range(wl.n_clients)]
    sim = cluster.sim
    setup = _Round(cluster, clients, inputs, clock)
    timed = _Round(cluster, clients, inputs, clock)
    with recorder.recording() if wl.checked else nullcontext():
        sim.run_until_event(sim.process(setup.prepopulate()))
        setup_s = clock.stop()
        setup_scale = clock.scale

        gc.collect()
        hooks.loop_started(cluster, clients)
        events0, start = sim.events_processed, sim.now
        clock.start()
        # Every closed loop starts at the start of the timed region, as
        # in the paper's memslap runs.
        for client, script in zip(clients, inputs.scripts):
            sim.process(timed.closed_loop(client, script))
        sim.run()
        loop_s = clock.stop()
        events = sim.events_processed - events0
        hooks.loop_finished()

    check_s, groups, problems = 0.0, 0, []
    if wl.checked:
        t_check = time.process_time()
        verdict = check_history(recorder.records)
        check_s = time.process_time() - t_check
        groups = verdict.groups
        problems += [f"check_history: {k!r}@{s}: {why}"
                     for k, s, why in verdict.failures[:5]]
        if len(verdict.failures) > 5:
            problems.append(f"check_history: {len(verdict.failures)} keys failed in all")

    failed_setup, setup_problems = verify(setup.log, setup.log, inputs)
    failed, loop_problems = verify(timed.log, setup.log + timed.log, inputs)
    if failed_setup:
        problems.append(f"{failed_setup} set-up ops failed")
    problems += setup_problems + loop_problems
    if len(timed.finished) != wl.n_clients:
        problems.append(f"only {len(timed.finished)}/{wl.n_clients} clients finished")
    return RoundResult(
        setup_s=setup_s,
        timed_cpu_s=loop_s + check_s,
        check_s=check_s,
        events=events,
        sim_elapsed_us=max(timed.finished, default=start) - start,
        get_lat=[t1 - t0 for op, _, _, _, t0, t1 in timed.log if op == "get"],
        set_lat=[t1 - t0 for op, _, _, _, t0, t1 in timed.log if op == "set"],
        failed=failed,
        problems=problems,
        check_groups=groups,
        setup_scale=setup_scale,
        timed_scale=clock.scale,
    )


def verify(log: list, all_ops: list, inputs: Inputs) -> tuple[int, list[str]]:
    """Count the ops in *log* that raised, missed, or read a wrong value.

    A Get must return, byte for byte, the value of a Set of that key in
    *all_ops* that was invoked before the Get completed.  No other Set
    of the key may lie wholly between that Set and the Get: the reply
    would then be stale.
    """
    writes: dict[str, dict[int, tuple[float, float]]] = {}
    for op, key, value, _, t0, t1 in all_ops:
        if op == "set":
            writes.setdefault(key, {})[inputs.written[key][value]] = (t0, t1)
    failed, problems = 0, []

    def fail(why: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 5:
            problems.append(why)

    for op, key, value, outcome, t0, t1 in log:
        if isinstance(outcome, Exception):
            fail(f"{op} {key} raised {outcome!r}")
        elif op == "set":
            if outcome is not True:
                fail(f"set {key} returned {outcome!r}")
        elif outcome is None:
            fail(f"get {key} missed")
        else:
            w = inputs.written[key].get(outcome)
            when = writes.get(key, {}).get(w)
            if when is None or when[0] > t1:
                fail(f"get {key} returned a value never written to it by then")
            elif any(s0 > when[1] and s1 < t0 for s0, s1 in writes[key].values()):
                fail(f"get {key} returned stale write {w}")
    return failed, problems
