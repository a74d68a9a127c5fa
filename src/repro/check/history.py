"""Operation histories on the sim clock + a linearizability checker.

Recording
---------

:data:`recorder` is a module-level singleton mirroring
``repro.telemetry.tracer``: disabled by default, and every call site in
the client is syntactically guarded on ``recorder.enabled`` (lint L007)
so recording is zero-cost when off.  The client wraps each blocking
operation, logging the invocation instant, the completion instant, and
the normalized outcome; operations that die with ``ServerDownError``
are marked **lost** (the request may or may not have executed), other
errors are **fail** (the server answered, with an error).

Checking
--------

:func:`check_history` is a Wing--Gong linearizability checker over
per-key registers.  Because keys are independent registers (and, under
failover, independent *per server*), the global history factors into
per-``(key, server)`` sub-histories that are checked separately -- which
is what makes multi-client histories check in milliseconds: the
exponential term is the per-key concurrency width, not the client count.

The checker states no op semantics of its own.  Each search step loads
the register into a one-key :class:`~repro.check.model.ModelMemcached`,
runs the record's op through the oracle's ``apply``, and reads the
expected outcome through :func:`~repro.memcached.command.interpret` and
the next state off the oracle.  Semantics of lost and failed operations:

- a lost operation MAY have executed (branch: the oracle's next state)
  or may never have reached the server (branch: unchanged) -- both
  linearizations are legal;
- a failed operation is explained if the oracle fails it with the same
  error kind (its next state is then the oracle's, e.g. an oversize
  store unlinks the old item first), or if the kind is ``server`` or
  ``protocol`` (memory pressure and stream desync are outside the
  register model: accepted without effect);
- a *phantom completion* -- an observed response that no linearization
  of the operations explains -- is a checker failure.

Import note: the memcached client imports this module, so it (and the
oracle it imports) must not import the client or the cluster builder.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.check.model import ModelMemcached
from repro.check.outcome import canonical
from repro.memcached.command import Command, interpret
from repro.memcached.errors import ERROR_KIND, ClientError, ServerDownError

#: Completion instant of an operation still in flight (or lost).
INFINITY = float("inf")

#: Ops the specialized checker understands.  ``cas``, nonzero exptimes,
#: and ``flush_all`` have linearization points the per-key register
#: model cannot express compactly; concurrent workload generators avoid
#: them (see docs/CHECKING.md).
CHECKABLE_OPS = frozenset(
    {
        "set",
        "add",
        "replace",
        "append",
        "prepend",
        "get",
        "gets",
        "delete",
        "incr",
        "decr",
        "touch",
    }
)

#: The Command fields each op's record keeps, in ``args`` order.
_RECORDED_FIELDS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(("set", "add", "replace", "append", "prepend"), ("value",)),
    "cas": ("value", "cas"),
    "incr": ("delta",),
    "decr": ("delta",),
    "touch": ("exptime",),
}


def record_args(cmd: Command) -> tuple:
    """The ``args`` a record of *cmd* carries (value/delta/exptime...)."""
    return tuple(getattr(cmd, name) for name in _RECORDED_FIELDS.get(cmd.op, ()))


def _command(rec: OpRecord) -> Command:
    """The IR command *rec* ran: the inverse of :func:`record_args`."""
    fields = dict(zip(_RECORDED_FIELDS.get(rec.op, ()), rec.args))
    return Command(op=rec.op, keys=[rec.key], **fields)


@dataclass
class OpRecord:
    """One client operation: invocation, completion, normalized outcome."""

    op_id: int
    client: int  # stable per-recording client index (first-invoke order)
    op: str
    key: Optional[str]
    args: tuple  # op-specific: value/flags/exptime/delta/...
    invoked_us: float
    server: Optional[str] = None
    completed_us: Optional[float] = None  # None while pending / when lost
    status: str = "pending"  # pending | complete | fail | lost
    outcome: Any = None  # normalized result; ("error", kind) for fail
    #: Serving-layer riders ("lease-won", "lease-lost", "lease-denied",
    #: "stale", "cached"): the op was served outside strict register
    #: semantics (a stale value, a client-local cache, a refused lease
    #: fill) and the checker treats it leniently (observed, no effect).
    annotations: tuple = ()

    @property
    def completion_instant(self) -> float:
        return self.completed_us if self.completed_us is not None else INFINITY


class HistoryRecorder:
    """The module singleton behind ``recorder``.

    Call sites MUST guard on :attr:`enabled` (lint L007 checks this
    syntactically), the same zero-cost-when-disabled contract as the
    telemetry tracer.
    """

    __slots__ = ("enabled", "records", "_next_op_id", "_client_index")

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[OpRecord] = []
        self._next_op_id = 0
        self._client_index: dict[int, int] = {}

    def clear(self) -> None:
        """Drop all records and restart op/client numbering."""
        self.records = []
        self._next_op_id = 0
        self._client_index = {}

    def _client_id(self, client: object) -> int:
        """A stable small index for *client* (first-invoke order, which
        is deterministic under the DES)."""
        idx = self._client_index.get(id(client))
        if idx is None:
            idx = len(self._client_index)
            self._client_index[id(client)] = idx
        return idx

    # -- recording hooks (called from the client, guarded) -------------------

    def invoke(
        self,
        client: object,
        op: str,
        key: Optional[str],
        args: tuple,
        now_us: float,
    ) -> OpRecord:
        """Open a pending record at the op's invocation instant."""
        rec = OpRecord(
            op_id=self._next_op_id,
            client=self._client_id(client),
            op=op,
            key=key,
            args=args,
            invoked_us=now_us,
        )
        self._next_op_id += 1
        self.records.append(rec)
        return rec

    def complete(
        self,
        rec: OpRecord,
        outcome: Any,
        now_us: float,
        server: Optional[str],
        annotations: tuple = (),
    ) -> None:
        """Close *rec* with a successful response."""
        rec.status = "complete"
        rec.outcome = outcome
        rec.completed_us = now_us
        rec.server = server
        if annotations:
            rec.annotations = tuple(annotations)

    def fail(
        self, rec: OpRecord, kind: str, now_us: float, server: Optional[str]
    ) -> None:
        """The server answered with an error: still a completion."""
        rec.status = "fail"
        rec.outcome = ("error", kind)
        rec.completed_us = now_us
        rec.server = server

    def lost(self, rec: OpRecord, now_us: float, server: Optional[str]) -> None:
        """The operation died with ServerDownError: effect unknown."""
        rec.status = "lost"
        rec.completed_us = None
        rec.server = server

    def settle(
        self,
        rec: OpRecord,
        result: Any,
        now_us: float,
        server: Optional[str],
        annotations: tuple = (),
    ) -> None:
        """Close *rec* with an op's *result*: a ``ServerDownError`` marks
        it lost, any other exception failed with its error kind, and
        anything else is the completed op's return value."""
        if isinstance(result, ServerDownError):
            self.lost(rec, now_us, server)
        elif isinstance(result, Exception):
            self.fail(rec, ERROR_KIND.get(type(result), "server"), now_us, server)
        else:
            self.complete(rec, result, now_us, server, annotations)

    # -- scoped recording ----------------------------------------------------

    @contextmanager
    def recording(self):
        """Enable recording for a ``with`` block, starting fresh."""
        self.clear()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    # -- deterministic digest ------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the canonicalized history.

        CAS tokens come from a process-global counter, so raw values
        depend on everything that ran earlier in the process; they are
        canonicalized to first-occurrence indices so the same logical
        history digests identically across runs and processes.
        """
        return history_digest(self.records)


recorder = HistoryRecorder()


def history_digest(records: Iterable[OpRecord]) -> str:
    """See :meth:`HistoryRecorder.digest`."""
    cas_map: dict[int, int] = {}
    rows = []
    for rec in records:
        args = tuple(
            a.decode("latin-1") if isinstance(a, bytes) else a for a in rec.args
        )
        row = [
            rec.op_id,
            rec.client,
            rec.op,
            rec.key,
            list(args),
            rec.invoked_us,
            rec.completed_us,
            rec.status,
            rec.server,
            # A failure's ("error", kind) is no token pair.
            list(rec.outcome) if rec.status == "fail" else canonical(rec.outcome, cas_map),
        ]
        if rec.annotations:
            # Appended only when present, so annotation-free histories
            # digest bit-identically to recordings made before the
            # serving layer existed.
            row.append(list(rec.annotations))
        rows.append(row)
    blob = json.dumps(rows, sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The Wing--Gong checker
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of checking one recorded history."""

    ok: bool
    #: (key, server) groups that failed, with a human-readable reason.
    failures: list[tuple[str, Optional[str], str]] = field(default_factory=list)
    #: (key, server) groups that linearize *only* by spending eviction
    #: budget: correct under pressure, ambiguous without it.
    evictable: list[tuple[Optional[str], Optional[str]]] = field(default_factory=list)
    #: Number of (key, server) sub-histories checked.
    groups: int = 0
    #: Total operations examined.
    ops: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


#: Failure kinds accepted without effect when the oracle does not
#: predict them: out-of-memory under pressure and a desynchronized
#: stream are outside the register model.
_OPAQUE_ERRORS = frozenset({"server", "protocol"})


def _run(oracle: ModelMemcached, cmd: Command, state: Optional[bytes]):
    """The *oracle*'s reply to *cmd* against register *state*, and the
    register after it.  The oracle holds nothing before or after."""
    if state is not None:
        oracle.set(cmd.key, state)
    reply = oracle.apply(cmd)
    try:
        hit = oracle.get(cmd.key)
    except ClientError:  # an invalid key never holds a value
        hit = None
    oracle.evict(cmd.key)
    return reply, None if hit is None else hit.value


def _agrees(rec: OpRecord, cmd: Command, reply) -> bool:
    """Does *rec*'s recorded outcome match the oracle's *reply*?  A gets
    hit's cas token is unverifiable against the register, so only its
    value is compared."""
    if reply.status == "error":
        return rec.status == "fail" and rec.outcome[1] == reply.error_kind
    if rec.status != "complete":
        return False
    expected = interpret(cmd, reply)
    if cmd.op == "gets" and expected is not None and isinstance(rec.outcome, tuple):
        return rec.outcome[0] == expected[0]
    return rec.outcome == expected


def _check_group(
    records: list[OpRecord], oracle: ModelMemcached, evict_budget: int = 0
) -> Optional[str]:
    """Check one (key, server) sub-history; None if linearizable, else a
    reason string.

    Iterative Wing--Gong search: a depth-first walk over partial
    linearizations, where the next operation must be *minimal* (invoked
    before every other pending operation's completion), memoized on
    (set-of-linearized-ops, register state, evictions spent).  Worst
    case is exponential in the concurrency width; with memoization it is
    linear in history length for sequential segments.  *oracle* gives
    every step its expected outcome and next state (:func:`_run`).

    *evict_budget* is the eviction-aware specification: the store
    reported destroying this key's value that many times (LRU eviction,
    expired reap or unlink-first loss), so the search may spontaneously
    drop the register to None up to that many times, at any point --
    evictions are server-internal and carry no client-visible interval.
    """
    n = len(records)
    if n == 0:
        return None
    inv = [r.invoked_us for r in records]
    comp = [r.completion_instant for r in records]
    cmds = [_command(r) for r in records]

    seen: set[tuple[frozenset, Optional[bytes], int]] = set()
    # Each stack entry: (done frozenset, state, evictions spent).
    stack: list[tuple[frozenset, Optional[bytes], int]] = [(frozenset(), None, 0)]
    while stack:
        done, state, spent = stack.pop()
        if len(done) == n:
            return None
        key_ = (done, state, spent)
        if key_ in seen:
            continue
        seen.add(key_)
        if state is not None and spent < evict_budget:
            # Spend one store-reported eviction: the register drops.
            stack.append((done, None, spent + 1))
        pending = [i for i in range(n) if i not in done]
        horizon = min(comp[i] for i in pending)
        for i in pending:
            if inv[i] > horizon:
                continue  # not minimal: someone completed before it began
            rec = records[i]
            if rec.annotations:
                # Serving-layer record: a stale/lease-annotated miss, a
                # client-cached read or a denied lease fill.  None of
                # these are register transitions (expiry and client-local
                # caching have no register semantics), so accept the
                # observation without effect.
                stack.append((done | {i}, state, spent))
                continue
            reply, after = _run(oracle, cmds[i], state)
            if rec.status == "lost":
                # Branch 1: the request never executed.
                stack.append((done | {i}, state, spent))
                # Branch 2: it executed (at some admissible point).
                stack.append((done | {i}, after, spent))
            elif _agrees(rec, cmds[i], reply):
                stack.append((done | {i}, after, spent))
            elif rec.status == "fail" and rec.outcome[1] in _OPAQUE_ERRORS:
                stack.append((done | {i}, state, spent))
    first = records[0]
    budget_note = f" (eviction budget {evict_budget})" if evict_budget else ""
    return (
        f"no linearization explains {n} ops on key {first.key!r}"
        f" (server {first.server}){budget_note};"
        f" first op: {first.op} by client {first.client}"
    )


def check_history(
    records: Iterable[OpRecord],
    by_server: bool = True,
    evicted: Optional[dict[tuple[Optional[str], Optional[str]], int]] = None,
) -> CheckResult:
    """Check a recorded multi-client history for per-key linearizability.

    With ``by_server=True`` (the default), sub-histories group by
    ``(key, server)``: under failover a key's operations legitimately
    land on different shards, and each shard is its own register.  Pass
    ``by_server=False`` for single-server histories where rerouting
    would itself be a bug.

    *evicted* maps ``(key, server)`` to the number of times the store
    reported destroying that key's value under memory pressure (from
    the ``ItemStore.on_evict`` hook).  A group that only linearizes by
    spending that budget gets the **evictable** verdict: it is listed in
    ``CheckResult.evictable`` but still passes.  Every group is first
    checked with budget 0, so the verdict distinguishes plainly
    linearizable histories from pressure-ambiguous ones -- and a missing
    key with *no* reported eviction remains a hard failure.
    """
    groups: dict[tuple, list[OpRecord]] = {}
    ops = 0
    for rec in records:
        if rec.status == "pending":
            continue  # never completed and never declared lost: ignore
        if rec.op not in CHECKABLE_OPS:
            raise ValueError(
                f"op {rec.op!r} is outside the checkable surface "
                f"({sorted(CHECKABLE_OPS)}); filter the history first"
            )
        if rec.op == "touch" and rec.args and rec.args[0] != 0:
            raise ValueError(
                "touch with nonzero exptime is not checkable "
                "(expiry has no register semantics); filter the history first"
            )
        ops += 1
        group = (rec.key, rec.server if by_server else None)
        groups.setdefault(group, []).append(rec)

    result = CheckResult(ok=True, groups=len(groups), ops=ops)
    # One oracle for the whole check; its clock never moves, since
    # checkable histories carry no expiry.
    oracle = ModelMemcached(clock=lambda: 0.0)
    for (key, server), recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        recs.sort(key=lambda r: (r.invoked_us, r.op_id))
        reason = _check_group(recs, oracle)
        if reason is None:
            continue
        budget = (evicted or {}).get((key, server if by_server else None), 0)
        if budget > 0 and _check_group(recs, oracle, evict_budget=budget) is None:
            result.evictable.append((key, server))
            continue
        result.ok = False
        result.failures.append((key, server, reason))
    return result
