"""Differential replay: oracle agreement, cross-config agreement,
determinism, fault-injection detection, shrinking, parser fuzzing."""

import copy

import pytest

from repro.check.differential import (
    BOGUS_CAS,
    CONFIGS,
    LAST_TOKEN,
    MUTATIONS,
    PRESSURE_STORE_CONFIG,
    ReplayResult,
    Sleep,
    _windows,
    differential_run,
    dump_mismatch,
    fuzz_parsers,
    generate_commands,
    load_commands,
    replay_concurrent,
    replay_sequential,
    shrink_commands,
)
from repro.memcached.command import Command

UCR = CONFIGS[0]
SDP_BIN = CONFIGS[2]


def test_generator_is_deterministic():
    a = generate_commands(7, 50)
    b = generate_commands(7, 50)
    assert a == b
    assert generate_commands(8, 50) != a


def test_generator_concurrent_stays_checkable():
    for cmd in generate_commands(3, 200, concurrent=True):
        assert cmd.op not in ("cas", "flush_all", "sleep")
        if cmd.op == "touch":
            assert cmd.exptime == 0


def test_command_json_roundtrip(tmp_path):
    for mode in ({}, {"lease": True}, {"pressure": True}):
        commands = generate_commands(11, 60, **mode)
        path = dump_mismatch(str(tmp_path / "case.json"), 11, UCR[0], commands,
                             ReplayResult(config=UCR[0]))
        _doc, loaded = load_commands(path)
        assert loaded == commands, mode


def test_generator_emits_ir_commands_and_sleeps():
    """Lease fills are sets carrying a lease token, tokens are the
    sentinel or the bogus constant, and sleeps stand on their own."""
    commands = generate_commands(7, 200, lease=True)
    sleeps = [c for c in commands if isinstance(c, Sleep)]
    assert sleeps and all(1 <= c.seconds <= 9 for c in sleeps)
    fills = [c for c in commands if getattr(c, "lease_token", 0)]
    assert fills and all(c.op == "set" for c in fills)
    tokens = {c.cas for c in commands if c.op == "cas"}
    tokens |= {c.lease_token for c in fills}
    assert tokens == {LAST_TOKEN, BOGUS_CAS}
    assert all(c.keys == [] for c in commands if c.op == "flush_all")


def test_replays_leave_the_shared_commands_untouched():
    """One command object reaches the client, the oracle and every
    config's replay: none of them may mutate it."""
    for mode, store_config in (({"lease": True}, None),
                               ({"lease": True, "pressure": True},
                                PRESSURE_STORE_CONFIG)):
        commands = generate_commands(3, 80, **mode)
        before = copy.deepcopy(commands)
        differential_run(commands, seed=3, store_config=store_config)
        assert commands == before
    commands = generate_commands(3, 80)
    before = copy.deepcopy(commands)
    for config in CONFIGS:
        replay_sequential(config, commands, seed=3, depth=4)
    assert commands == before


def test_windows_are_key_disjoint_and_stop_at_barriers():
    commands = generate_commands(1, 80, lease=True)
    windows = list(_windows(commands, 4))
    assert [c for w in windows for c in w] == commands
    assert any(len(w) > 1 for w in windows)
    for window in windows:
        assert len(window) <= 4
        if len(window) > 1:
            assert len({c.key for c in window}) == len(window)
            assert all(c.op not in ("cas", "getl", "flush_all", "sleep")
                       and not c.lease_token
                       for c in window)
    assert all(len(w) == 1 for w in _windows(commands, 1))
    # A lease fill is a barrier whichever token it carries.
    for token in (LAST_TOKEN, BOGUS_CAS):
        a, c = Command(op="get", keys=["a"]), Command(op="get", keys=["c"])
        fill = Command(op="set", keys=["b"], value=b"v", lease_token=token)
        assert list(_windows([a, fill, c], 4)) == [[a], [fill], [c]]


def test_pipelined_replay_refuses_a_pressure_store():
    with pytest.raises(ValueError, match="depth 1"):
        replay_sequential(UCR, [], depth=4, store_config=PRESSURE_STORE_CONFIG)


def test_sequential_replay_matches_oracle():
    result = replay_sequential(UCR, generate_commands(7, 60))
    assert result.ok, result.mismatches[:3]


def test_differential_agreement_across_all_configs():
    """The PR's core claim: all four transports and both protocols are
    response-for-response identical to each other and the oracle."""
    result = differential_run(generate_commands(7, 50), configs=CONFIGS)
    assert result.ok, (result.disagreements, [r.mismatches[:2] for r in result.replays])
    assert len(result.replays) == len(CONFIGS)


#: Mutations only expressible under memory pressure get their own rig
#: (tests/check/test_pressure.py); the classic three are caught by the
#: plain sequential replay.
_PLAIN_MUTATIONS = ("delete-lies", "incr-off-by-one", "set-truncates")


def test_pressure_mutations_are_registered():
    assert set(_PLAIN_MUTATIONS) | {
        "skip-eviction-counter",
        "double-free-on-rebalance",
        "onesided-skip-version-bump",
        "lease-serve-stale-past-deadline",
    } == set(MUTATIONS)


@pytest.mark.parametrize("mutation", _PLAIN_MUTATIONS)
def test_injected_mutations_are_caught_and_shrink_small(mutation):
    """A deliberately broken store is detected, and ddmin produces a
    counterexample of at most 10 commands (the acceptance bound)."""
    commands = generate_commands(9, 80)
    result = replay_sequential(UCR, commands, mutation=mutation)
    assert not result.ok, f"{mutation} not detected"

    def failing(sub):
        return not replay_sequential(UCR, sub, mutation=mutation).ok

    small = shrink_commands(commands, failing)
    assert 1 <= len(small) <= 10
    assert failing(small)


def test_onesided_mutation_is_caught_and_shrinks_small():
    """Skipping the index invalidation's version bump is invisible to
    RPC transports but serves a dead value on the one-sided config; the
    counterexample shrinks to a set/delete/get triangle."""
    onesided = CONFIGS[-1]
    assert onesided[0] == "UCR-1S"
    mutation = "onesided-skip-version-bump"
    # Seed 8 produces a set -> delete -> read window with no intervening
    # flush or republish of the bucket, which the bug needs to show.
    commands = generate_commands(8, 80)
    result = replay_sequential(onesided, commands, mutation=mutation)
    assert not result.ok, f"{mutation} not detected"

    def failing(sub):
        return not replay_sequential(onesided, sub, mutation=mutation).ok

    small = shrink_commands(commands, failing)
    assert 1 <= len(small) <= 10
    assert failing(small)
    assert {cmd.op for cmd in small} <= {"set", "delete", "get", "gets"}


def test_onesided_mutation_is_invisible_to_rpc_transports():
    """The same bug on an active-message config never surfaces: RPC
    answers come from the authoritative store, not the index."""
    commands = generate_commands(8, 80)
    result = replay_sequential(UCR, commands, mutation="onesided-skip-version-bump")
    assert result.ok


def test_dump_and_load_roundtrip(tmp_path):
    commands = generate_commands(9, 80)
    result = replay_sequential(UCR, commands, mutation="delete-lies")
    path = dump_mismatch(
        str(tmp_path / "case.json"), 9, UCR[0], commands, result, mutation="delete-lies"
    )
    doc, loaded = load_commands(path)
    assert loaded == commands
    assert doc["mutation"] == "delete-lies"
    assert doc["mismatches"]


def test_concurrent_histories_linearizable_and_deterministic():
    """Acceptance: 4 clients x 2 shards, seeded -- linearizable, and the
    same seed yields the same digest and verdict on a rerun."""
    a = replay_concurrent(SDP_BIN, seed=42, n_clients=4, n_servers=2, n_ops=200)
    b = replay_concurrent(SDP_BIN, seed=42, n_clients=4, n_servers=2, n_ops=200)
    assert a.ok and b.ok
    assert a.n_records == 200
    assert a.digest == b.digest
    c = replay_concurrent(SDP_BIN, seed=43, n_clients=4, n_servers=2, n_ops=200)
    assert c.digest != a.digest  # the digest actually depends on the seed


def test_concurrent_under_chaos_stays_linearizable():
    """Failover may lose in-flight ops (allowed) but never invent
    phantom completions; the checker enforces exactly that contract."""
    a = replay_concurrent(
        UCR, seed=42, n_clients=4, n_servers=2, n_ops=200, chaos=True
    )
    assert a.ok, a.check.failures[:2]
    assert a.chaos_log  # faults actually fired
    b = replay_concurrent(
        UCR, seed=42, n_clients=4, n_servers=2, n_ops=200, chaos=True
    )
    assert (a.digest, a.chaos_log) == (b.digest, b.chaos_log)


def test_fuzz_parsers_crash_free():
    assert fuzz_parsers(1, n_cases=150) == []
