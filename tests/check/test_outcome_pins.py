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

#: SHA-256 of ``json.dumps(replay.outcomes)`` for seed 1, 80 commands;
#: every config must produce the same list, so one hash per mode.
PINNED = {
    "plain": ({}, "677555f2a9f8db7f0b059351d0cd1fceab8f2f626107669e4b354285e81bdb65"),
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


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_differential_outcomes_match_pinned_hash(mode):
    kwargs, pinned = PINNED[mode]
    pressure = kwargs.get("pressure", False)
    commands = generate_commands(1, 80, n_keys=32 if pressure else 8, **kwargs)
    result = differential_run(
        commands,
        seed=1,
        store_config=PRESSURE_STORE_CONFIG if pressure else None,
        tolerant=pressure,
    )
    assert result.ok
    assert [r.config for r in result.replays] == [c[0] for c in CONFIGS]
    for replay in result.replays:
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
