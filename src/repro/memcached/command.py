"""The transport-neutral command IR.

Every client operation builds exactly one :class:`Command`; every wire
frontend decodes into the same :class:`Command`; the server's
:class:`~repro.memcached.engine.CommandEngine` executes it and produces
one :class:`Reply`.  The three wire formats (text, binary, UCR struct)
each own one codec module that converts between the IR and their frames:

- text: :mod:`repro.memcached.protocol`
- binary: :mod:`repro.memcached.protocol_binary`
- UCR struct: :mod:`repro.memcached.protocol_ucr`

The IR mirrors the paper's observation that a request is best handled as
a single descriptor: once an operation is a ``Command``, batching and
pipelining are implemented once, beneath every transport.

Both dataclasses are plain state carriers -- no wire knowledge, no store
knowledge -- so codecs and the engine stay the only places where a
format or a semantic lives.  :func:`interpret` folds a reply into the
blocking API's return value; the client, the differential replay and
the history checker all read replies through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.memcached.errors import ClientError, ProtocolError, ServerError

#: Every data-path operation the IR covers (admin ops included).
OPS = frozenset(
    {
        "set", "add", "replace", "cas", "append", "prepend",
        "get", "gets", "getl", "delete", "incr", "decr", "touch",
        "flush_all", "stats", "version", "noop",
    }
)

#: Reply statuses the engine may produce.
REPLY_STATUSES = frozenset(
    {
        "stored", "not_stored", "exists", "not_found", "deleted",
        "touched", "ok", "number", "values", "stats", "version", "error",
    }
)


@dataclass
class Command:
    """One operation, independent of wire format.

    Field semantics by op family:

    - storage (``set``/``add``/``replace``/``cas``/``append``/``prepend``):
      ``value``, ``flags``, ``exptime``; ``cas`` carries the compare
      token for ``cas``.
    - retrieval (``get``/``gets``): ``keys`` may hold several keys (an
      mget); ``quiet`` asks the server to suppress miss replies (the
      binary GETQ/GETKQ contract).
    - arithmetic (``incr``/``decr``): ``delta``; ``create_exptime`` is
      ``None`` for the text/UCR semantics (missing key -> not_found) or
      an expiry for the binary auto-create path, with ``initial`` as the
      seeded value.  ``want_cas_token`` asks the engine to report the
      resulting cas (binary responses always carry one).
    - admin: ``flush_all`` uses ``exptime`` as the delay; ``stats`` uses
      ``keys`` for the sub-command.
    """

    op: str
    keys: list[str] = field(default_factory=list)
    value: bytes = b""
    flags: int = 0
    exptime: float = 0
    cas: int = 0
    delta: int = 0
    initial: int = 0
    #: Binary arith auto-create expiry; None = no auto-create (text/UCR).
    create_exptime: Optional[int] = None
    noreply: bool = False
    #: Suppress miss replies (binary quiet gets).
    quiet: bool = False
    #: Report the post-op cas token in the reply (binary responses).
    want_cas_token: bool = False
    #: Two-phase UCR sets: the slab item reserved by the header handler.
    reserved_item: Any = None
    #: ``getl``: the client will accept a stale (expired-but-present)
    #: value while another client holds the regeneration lease.
    stale_ok: bool = False
    #: Storage ops: the lease token authorising this fill (0 = plain op).
    lease_token: int = 0

    @property
    def key(self) -> str:
        return self.keys[0]


@dataclass
class Reply:
    """One operation's outcome, independent of wire format.

    ``values`` holds one ``(key, flags, data, cas)`` tuple per hit of a
    get/gets; the server engine stores the live
    :class:`~repro.memcached.store.Item` as ``data`` (so codecs can take
    the zero-copy path), client codecs store the received bytes.

    ``status == 'error'`` carries the text protocol's taxonomy in
    ``error_kind`` (``client`` | ``server`` | ``protocol``), plus a
    ``detail`` channel for distinctions only one wire format surfaces
    (binary NON_NUMERIC vs INVALID_ARGUMENTS, UNKNOWN_COMMAND).
    """

    status: str
    number: int = 0
    values: list = field(default_factory=list)
    cas: int = 0
    message: str = ""
    error_kind: str = "server"
    detail: str = ""
    stats: Optional[dict] = None
    #: ``getl`` misses: "won" (caller holds the fill lease) or "lost"
    #: (someone else is regenerating); "" for live hits and non-getl ops.
    lease_state: str = ""
    #: The fill token when ``lease_state == "won"``.
    lease_token: int = 0
    #: The entry in ``values`` is an expired-but-servable stale value.
    stale: bool = False


def entry_data(data) -> bytes:
    """The payload bytes of a reply-values entry (Item or raw bytes)."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    return data.value()


def entry_length(data) -> int:
    """The payload length of a reply-values entry without copying."""
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    return data.value_length


def raise_reply_error(reply: Reply) -> None:
    """Surface an error reply with the text protocol's taxonomy (every
    wire format preserves the CLIENT_ERROR vs SERVER_ERROR distinction;
    'protocol' marks a rejected/unparseable exchange)."""
    if reply.status != "error":
        return
    if reply.error_kind == "client":
        raise ClientError(reply.message)
    if reply.error_kind == "protocol":
        raise ProtocolError(reply.message)
    raise ServerError(reply.message)


def interpret(cmd: Command, reply: Reply):
    """Map a reply onto the blocking API's return value (raising for
    error replies).  One interpretation for all transports -- the codecs
    already normalized the wire differences into the IR."""
    raise_reply_error(reply)
    op = cmd.op
    if op in ("set", "add", "replace", "append", "prepend"):
        return reply.status == "stored"
    if op == "cas":
        return reply.status
    if op == "get":
        if len(cmd.keys) > 1:
            return {key: data for key, _flags, data, _cas in reply.values}
        return reply.values[0][2] if reply.values else None
    if op == "gets":
        if not reply.values:
            return None
        _key, _flags, data, cas = reply.values[0]
        return data, cas
    if op == "getl":
        if not reply.lease_state:
            # Fresh hit: exactly a get's return shape.
            return reply.values[0][2] if reply.values else None
        stale_value = reply.values[0][2] if reply.values else None
        return reply.lease_state, stale_value, reply.lease_token
    if op == "delete":
        return reply.status == "deleted"
    if op in ("incr", "decr"):
        return reply.number if reply.status == "number" else None
    if op == "touch":
        return reply.status == "touched"
    if op == "stats":
        return dict(reply.stats or {})
    if op == "version":
        return reply.message
    return None  # flush_all / noop acknowledgements
