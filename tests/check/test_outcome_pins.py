"""Pinned differential outcomes and a committed repro dump.

The hashes below were recorded before the client op path and the
differential resolver were unified; any change in what a generated
sequence observes -- on any transport, in any fuzz mode -- moves them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.check.differential import (
    CONFIGS,
    PRESSURE_STORE_CONFIG,
    differential_run,
    generate_commands,
    load_commands,
    replay_sequential,
)

PLAIN = "677555f2a9f8db7f0b059351d0cd1fceab8f2f626107669e4b354285e81bdb65"

#: SHA-256 of ``json.dumps(replay.outcomes)`` for seed 1, 80 commands;
#: every config must produce the same list, so one hash per mode.  A
#: ``depth`` replays each config with that many commands in flight; the
#: windowed replay must observe exactly what the blocking one does.
PINNED = {
    "plain": ({}, PLAIN),
    "pipelined-depth4": ({"depth": 4}, PLAIN),
    "pressure": (
        {"pressure": True},
        "59769b869be386ad4155cea803bea6227a874ab1012e716ee510bee3afeff713",
    ),
    "lease-zipf": (
        {"lease": True, "zipf": True},
        "6446c7fa6ee404bacc712bf8b03509a2f7fb6ca1ba4f29ba15fc5a23bdca5a8f",
    ),
    "lease-zipf-pressure": (
        {"lease": True, "zipf": True, "pressure": True},
        "da970e22aa0842afc12675790489c2c3d054ef3d3ea74995881bb3c081018c1c",
    ),
}

WITNESS = Path(__file__).parent / "data" / "lease-serve-stale-past-deadline.json"


def _pinned_replays(kwargs):
    """One replay per config for a PINNED mode."""
    kwargs = dict(kwargs)
    depth = kwargs.pop("depth", 1)
    pressure = kwargs.get("pressure", False)
    commands = generate_commands(1, 80, **kwargs)
    if depth > 1:
        replays = [replay_sequential(cfg, commands, seed=1, depth=depth)
                   for cfg in CONFIGS]
        assert all(r.ok for r in replays)
        assert [r.config for r in replays] == [f"{c[0]}/pipe{depth}" for c in CONFIGS]
        return replays
    result = differential_run(
        commands,
        seed=1,
        store_config=PRESSURE_STORE_CONFIG if pressure else None,
    )
    assert result.ok
    assert [r.config for r in result.replays] == [c[0] for c in CONFIGS]
    return result.replays


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_differential_outcomes_match_pinned_hash(mode):
    kwargs, pinned = PINNED[mode]
    for replay in _pinned_replays(kwargs):
        digest = hashlib.sha256(json.dumps(replay.outcomes).encode()).hexdigest()
        assert digest == pinned, (mode, replay.config)


def test_committed_lease_witness_still_catches_the_mutation():
    """The shrunk serve-stale-past-deadline witness, dumped by
    ``dump_mismatch``, loads and replays to the same mismatch."""
    doc, commands = load_commands(str(WITNESS))
    config = {c[0]: c for c in CONFIGS}[doc["config"]]
    assert len(commands) == 4
    bad = replay_sequential(config, commands, seed=doc["seed"],
                            mutation=doc["mutation"])
    assert not bad.ok
    assert [
        {"index": i, "actual": a, "expected": e} for i, a, e in bad.mismatches
    ] == doc["mismatches"]
    assert replay_sequential(config, commands, seed=doc["seed"]).ok
