"""Verification under memory pressure.

The eviction-aware pipeline end to end: the pressure differential run
across every transport/protocol configuration (with real, asserted
evictions), the tolerant cross-config comparator, concurrent histories
with per-shard eviction budgets, and the two pressure-only store
mutations -- a silent eviction and a slab-mover double free -- each
detected and shrunk to a small counterexample.
"""

import pytest

from repro.check.differential import (
    CONFIGS,
    MUTATIONS,
    PRESSURE_STORE_CONFIG,
    _eviction_explains,
    _strip_cas_tokens,
    differential_run,
    dump_mismatch,
    generate_commands,
    load_commands,
    replay_concurrent,
    replay_sequential,
    shrink_commands,
)
from repro.memcached.command import Command
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES, build_chunk_sizes

UCR = CONFIGS[0]
SDP_BIN = CONFIGS[2]

#: The stream every pressure test replays: on a 2-page store this seed
#: demonstrably evicts, reclaims, OOMs, and moves a slab page.
PRESSURE_COMMANDS = generate_commands(7, 200, pressure=True)


def test_pressure_generator_builds_pressure():
    """The pressure pool concentrates on one large class and never
    flushes (a flush would reset occupancy and defuse the rig)."""
    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    edge = by_density[8]
    assert all(c.op != "flush_all" for c in PRESSURE_COMMANDS)
    big = [
        c for c in PRESSURE_COMMANDS
        if c.op in ("set", "add", "replace", "cas") and len(c.value) > 1000
    ]
    assert big, "no slab-edge values drawn"
    band = edge - ITEM_HEADER_OVERHEAD - 6
    for cmd in big:
        # Every large value sits within a few bytes of the 8-per-page
        # class edge (for the regular short-key pool; boundary-length
        # keys push the total one class up, which is fine).
        assert band - 3 <= len(cmd.value) <= band


def test_pressure_differential_across_all_configs():
    """Acceptance: the pressure run passes on all 7 configurations with
    evictions demonstrably occurring (store-reported counters), every
    replay exact against its own eviction-adopting oracle, and no
    unexcused cross-config disagreement."""
    result = differential_run(
        PRESSURE_COMMANDS,
        seed=7,
        configs=CONFIGS,
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, (
        result.disagreements,
        [r.mismatches[:2] for r in result.replays],
    )
    assert len(result.replays) == len(CONFIGS)
    for replay in result.replays:
        assert replay.evictions > 0, f"{replay.config}: no evictions"
        assert replay.oom_errors > 0, f"{replay.config}: no OOMs"
    assert any(r.slab_moves > 0 for r in result.replays)
    assert any(r.reclaimed > 0 for r in result.replays)
    # Divergent victim choice across transports is expected and latched.
    assert result.tolerated and not result.disagreements


def test_tolerant_comparator_only_excuses_presence_differences():
    # Token numbering skew is stripped before comparing.
    assert _strip_cas_tokens(["ok", ["v", "cas#3"]]) == ["ok", ["v", "cas#"]]
    # Presence-flavored pairs: excusable as divergent eviction history.
    assert _eviction_explains("get", ("ok", None), ("ok", "x"))
    assert _eviction_explains("set", ("error", "server"), ("ok", True))
    assert _eviction_explains("cas", ("ok", "stored"), ("ok", "not_found"))
    # Arithmetic on a valid key fails with CLIENT_ERROR only when a
    # non-numeric value is present: against not-found, a presence flip.
    assert _eviction_explains("incr", ["ok", None], ["error", "client"])
    assert _eviction_explains("decr", ["error", "client"], ["ok", None])
    # ... but not against a number, and not on a read.
    assert not _eviction_explains("incr", ["ok", 41], ["error", "client"])
    assert not _eviction_explains("get", ["ok", None], ["error", "client"])
    # Value-vs-value on a present key is real corruption: never excused.
    assert not _eviction_explains("get", ("ok", "aaa"), ("ok", "bbb"))
    assert not _eviction_explains("incr", ("ok", 41), ("ok", 42))
    # 0 is a legitimate decr result, not an absence marker.
    assert _eviction_explains("decr", ("ok", 0), ("ok", None))


def test_tolerant_comparator_reports_a_keyless_flush_all_pair(monkeypatch):
    """A flush_all carries no key: a cross-config difference on it is
    judged on its own (not presence-flavored here, so reported) and
    latches no key."""
    from repro.check import differential

    commands = [Command(op="flush_all", keys=[])]
    answers = iter([["ok", True], ["error", "client"]])

    def fake_replay(cfg, cmds, **kwargs):
        return differential.ReplayResult(config=cfg[0], outcomes=[next(answers)])

    monkeypatch.setattr(differential, "replay_sequential", fake_replay)
    result = differential_run(
        commands, configs=CONFIGS[:2], store_config=PRESSURE_STORE_CONFIG
    )
    assert result.disagreements == [(CONFIGS[0][0], CONFIGS[1][0], 0)]
    assert not result.tolerated


def test_arithmetic_presence_flip_is_tolerated():
    """Seed 202: UCR-IB evicts the key an incr targets (its zero-copy
    set reserves before unlinking) while SDP/text still holds a
    non-numeric value there.  Each replay matches its own oracle, and
    the pair is tolerated as divergent eviction history."""
    result = differential_run(
        generate_commands(202, 120, pressure=True),
        seed=202,
        configs=[UCR, CONFIGS[1]],
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, result.disagreements
    assert all(r.ok for r in result.replays)
    assert result.tolerated


def test_concurrent_pressure_is_linearizable_with_eviction_budgets():
    result = replay_concurrent(
        UCR,
        seed=7,
        n_clients=4,
        n_servers=2,
        n_ops=480,
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, result.check.failures[:2]
    assert result.evictions > 0
    # Some groups needed their shard's eviction budget to linearize.
    assert result.check.evictable


def test_concurrent_pressure_sockets_path_has_no_torn_reads():
    """Regression: the sockets server yields (memcpy + response build)
    between executing a get and encoding it.  It used to keep the live
    Item across that window, so a concurrent overwrite could free the
    chunk and a same-class reuse would serve the *new* bytes at the
    *old* length -- a torn read no linearization explains.  The server
    now snapshots value bytes at the linearization point (real memcached
    pins the item with a refcount); this exact run failed before that."""
    result = replay_concurrent(
        SDP_BIN,
        seed=7,
        n_clients=4,
        n_servers=2,
        n_ops=480,
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, result.check.failures[:2]
    assert result.check.evictable


def test_skip_eviction_counter_is_caught_and_shrinks():
    """A store that evicts silently (no counter, no hook) can no longer
    launder the loss through eviction adoption: the oracle keeps the
    victim and the replay mismatches."""
    result = replay_sequential(
        UCR,
        PRESSURE_COMMANDS,
        seed=7,
        mutation="skip-eviction-counter",
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert not result.ok

    def failing(sub):
        return not replay_sequential(
            UCR,
            sub,
            seed=7,
            mutation="skip-eviction-counter",
            store_config=PRESSURE_STORE_CONFIG,
        ).ok

    small = shrink_commands(PRESSURE_COMMANDS, failing)
    assert 1 <= len(small) <= 20
    assert failing(small)


def _val(key: str, chunk_size: int, ch: int) -> bytes:
    """A value filling its chunk to one byte under *chunk_size*."""
    return bytes([ch]) * (chunk_size - ITEM_HEADER_OVERHEAD - len(key) - 1)


def _double_free_witness() -> list[Command]:
    """A handcrafted stream that corrupts data iff the slab mover leaks
    the donor's chunks (the double-free-on-rebalance mutation).

    On the 2-page pressure store: a1 carves page 1 for the 3-per-page
    class, b1..b8 fill page 2 (8 per page), deleting a1 frees page 1,
    and b9 forces the rebalancer to move it.  A leaky mover leaves a1's
    stale chunks on the donor's free list -- so a2 lands *inside* the
    moved page and overwrites whichever of b9..b16 live there.  An
    honest mover passes the same stream (a2 is a clean, adopted OOM:
    the automove window blocks a second immediate move).
    """
    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    c3, c8 = by_density[3], by_density[8]
    cmds = [Command(op="set", keys=["a1"], value=_val("a1", c3, ord("A")))]
    cmds += [
        Command(op="set", keys=[f"b{i}"], value=_val(f"b{i}", c8, ord("a") + i))
        for i in range(1, 9)
    ]
    cmds.append(Command(op="delete", keys=["a1"]))
    cmds += [
        Command(op="set", keys=[f"b{i}"], value=_val(f"b{i}", c8, ord("a") + i))
        for i in range(9, 17)
    ]
    cmds.append(Command(op="set", keys=["a2"], value=_val("a2", c3, ord("Z"))))
    cmds += [Command(op="get", keys=[f"b{i}"]) for i in range(9, 17)]
    return cmds


def test_double_free_on_rebalance_is_caught_and_shrinks():
    witness = _double_free_witness()
    honest = replay_sequential(
        UCR, witness, seed=7, store_config=PRESSURE_STORE_CONFIG
    )
    assert honest.ok, honest.mismatches[:2]

    bad = replay_sequential(
        UCR,
        witness,
        seed=7,
        mutation="double-free-on-rebalance",
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert not bad.ok  # overlapping chunks genuinely corrupt page bytes

    def failing(sub):
        return not replay_sequential(
            UCR,
            sub,
            seed=7,
            mutation="double-free-on-rebalance",
            store_config=PRESSURE_STORE_CONFIG,
        ).ok

    small = shrink_commands(witness, failing)
    assert 1 <= len(small) <= 20
    assert failing(small)


def test_sanitizer_catches_the_double_free_directly():
    """The slab sanitizer's chunk-conservation invariant flags the leaky
    mover at the accounting level, before any value corrupts."""
    from repro.memcached.store import ItemStore
    from repro.sanitize.errors import SlabAccountingError
    from repro.sanitize.slabs import SlabSanitizer
    from repro.sim import Simulator

    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    c3, c8 = by_density[3], by_density[8]
    store = ItemStore(Simulator(), PRESSURE_STORE_CONFIG)
    MUTATIONS["double-free-on-rebalance"](store)
    store.set("a1", _val("a1", c3, ord("A")))
    for i in range(1, 9):
        store.set(f"b{i}", _val(f"b{i}", c8, ord("a") + i))
    store.delete("a1")
    store.set("b9", _val("b9", c8, ord("j")))  # the leaky page move
    assert store.stats.slab_moves == 1
    with pytest.raises(SlabAccountingError, match="page reassignment leak"):
        SlabSanitizer().check(store)


def test_pressure_dump_roundtrip(tmp_path):
    result = replay_sequential(
        UCR,
        PRESSURE_COMMANDS[:60],
        seed=7,
        mutation="skip-eviction-counter",
        store_config=PRESSURE_STORE_CONFIG,
    )
    path = dump_mismatch(
        str(tmp_path / "case.json"),
        7,
        UCR[0],
        PRESSURE_COMMANDS[:60],
        result,
        mutation="skip-eviction-counter",
        pressure=True,
    )
    doc, loaded = load_commands(path)
    assert loaded == PRESSURE_COMMANDS[:60]
    assert doc["pressure"] is True
    assert doc["mutation"] == "skip-eviction-counter"
