"""The reference oracle: unit semantics + property agreement with the
real store on a shared simulated clock."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.model import MODEL_DIVERGENCES, ModelMemcached
from repro.memcached.command import Command
from repro.memcached.errors import ClientError, ServerError
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import COUNTER_LIMIT, ItemStore, StoreConfig
from repro.sim import Simulator


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def model(clock):
    return ModelMemcached(clock)


# -- unit semantics -----------------------------------------------------------


def test_set_get_roundtrip(model):
    assert model.set("k", b"v", flags=7) == "stored"
    hit = model.get("k")
    assert (hit.value, hit.flags) == (b"v", 7)


def test_add_replace_presence(model):
    assert model.add("k", b"a") == "stored"
    assert model.add("k", b"b") == "not_stored"
    assert model.replace("k", b"c") == "stored"
    assert model.replace("missing", b"x") == "not_stored"
    assert model.get("k").value == b"c"


def test_append_prepend(model):
    assert model.append("k", b"x") == "not_stored"
    model.set("k", b"mid")
    assert model.append("k", b">") == "stored"
    assert model.prepend("k", b"<") == "stored"
    assert model.get("k").value == b"<mid>"


def test_cas_flow(model):
    model.set("k", b"v1")
    token = model.gets("k").cas
    assert model.cas("k", b"v2", token) == "stored"
    assert model.cas("k", b"v3", token) == "exists"  # token went stale
    assert model.cas("missing", b"x", token) == "not_found"
    assert model.get("k").value == b"v2"


def test_delete(model):
    model.set("k", b"v")
    assert model.delete("k") is True
    assert model.delete("k") is False
    assert model.get("k") is None


def test_incr_wraps_at_uint64(model):
    model.set("n", str(COUNTER_LIMIT - 1).encode())
    assert model.incr("n", 1) == 0
    assert model.incr("n", 5) == 5


def test_decr_clamps_at_zero(model):
    model.set("n", b"3")
    assert model.decr("n", 10) == 0


def test_arith_rejects_non_numeric_and_overwide(model):
    model.set("s", b"not-a-number")
    with pytest.raises(ClientError):
        model.incr("s", 1)
    model.set("w", str(COUNTER_LIMIT).encode())  # one past the ceiling
    with pytest.raises(ClientError):
        model.decr("w", 1)
    assert model.incr("missing", 1) is None


def test_incr_refit_resets_exptime(model, clock):
    """Mirrors the store bug-for-bug: a counter that outgrows its chunk
    is re-stored with exptime=0 (immortal), in-place rewrites keep it."""
    from repro.memcached.slabs import build_chunk_sizes

    # A key sized so the one-digit value exactly fills its chunk class:
    # "9" -> "10" gains a digit and no longer fits in place.
    chunk = build_chunk_sizes()[4]
    tight = "n" * (chunk - ITEM_HEADER_OVERHEAD - 1)
    model.set(tight, b"9", exptime=10)
    assert model.incr(tight, 1) == 10  # refit path: exptime silently reset
    model.set("roomy", b"9", exptime=10)
    assert model.incr("roomy", 1) == 10  # in-place: exptime survives
    clock.now = 11.0
    assert model.get(tight) is not None
    assert model.get("roomy") is None


def test_key_validation(model):
    for bad in ("", "k" * 251, "sp ace", "tab\tkey"):
        with pytest.raises(ClientError):
            model.set(bad, b"v")
    assert model.set("k" * 250, b"v") == "stored"


def test_value_too_large(model):
    with pytest.raises(ServerError):
        model.set("k", bytes(PAGE_BYTES))


def test_exptime_relative_absolute_negative(model, clock):
    model.set("rel", b"v", exptime=10)
    model.set("abs", b"v", exptime=100 * 24 * 3600)  # > 30 days: absolute
    model.set("neg", b"v", exptime=-1)
    assert model.get("neg") is None
    clock.now = 11.0
    assert model.get("rel") is None
    assert model.get("abs") is not None
    clock.now = 100 * 24 * 3600 + 1.0
    assert model.get("abs") is None


def test_touch_and_flush(model, clock):
    model.set("k", b"v")
    assert model.touch("k", 5) is True
    assert model.touch("missing", 5) is False
    clock.now = 6.0
    assert model.get("k") is None
    model.set("a", b"1")
    model.flush_all(2)  # delayed flush
    assert model.get("a") is not None
    clock.now = 9.0
    assert model.get("a") is None
    model.set("b", b"2")  # born after the flush point
    assert model.get("b") is not None


def test_divergences_documented():
    names = [name for name, _ in MODEL_DIVERGENCES]
    assert len(names) == len(set(names))  # no duplicate entries
    assert "cas-token-values" in names and "no-stats" in names
    # Retired in the memory-pressure PR: the replay layer now adopts
    # store-reported evictions/OOM, so pressure is a verified surface.
    assert "no-eviction" not in names and "no-oom" not in names


def test_model_eviction_adoption():
    model = ModelMemcached(lambda: 0.0)
    model.set("k", b"v")
    assert model.evict("k") is True
    assert model.get("k") is None
    assert model.evict("k") is False  # nothing left to adopt


def test_model_apply_answers_the_command_ir_and_never_raises(clock):
    model = ModelMemcached(clock)

    def apply(op, key=None, **fields):
        return model.apply(Command(op=op, keys=[key] if key else [], **fields))

    assert apply("set", "n", value=b"5").status == "stored"
    assert apply("add", "n", value=b"9").status == "not_stored"
    assert apply("incr", "n", delta=2).number == 7
    assert apply("decr", "gone", delta=1).status == "not_found"
    hits = model.apply(Command(op="gets", keys=["n", "gone"])).values
    assert [(key, data) for key, _flags, data, _cas in hits] == [("n", b"7")]
    assert apply("cas", "n", value=b"1", cas=hits[0][3]).status == "stored"
    assert apply("append", "n", value=b"0").status == "stored"
    assert apply("touch", "n").status == "touched"
    # Errors come back as replies with the text protocol's taxonomy.
    bad = apply("incr", "k" * 251, delta=1)
    assert (bad.status, bad.error_kind) == ("error", "client")
    big = apply("set", "big", value=bytes(PAGE_BYTES))
    assert (big.status, big.error_kind) == ("error", "server")
    # Leases: the first getl miss wins, the next loses, a fill settles it.
    won = apply("getl", "cold")
    assert (won.lease_state, won.values) == ("won", [])
    assert apply("getl", "cold").lease_state == "lost"
    fill = apply("set", "cold", value=b"v", lease_token=won.lease_token)
    assert fill.status == "stored"
    fresh = apply("getl", "cold")
    assert (fresh.lease_state, fresh.values[0][2]) == ("", b"v")
    clock.now = 1.0
    assert apply("flush_all").status == "ok"
    assert apply("get", "n").values == []


def test_model_too_large_set_destroys_old_value():
    # Bug-for-bug mirror of the store's unlink-first order: a too-large
    # replacement raises SERVER_ERROR *and* destroys the old value.
    model = ModelMemcached(lambda: 0.0)
    model.set("k", b"old")
    with pytest.raises(ServerError):
        model.set("k", bytes(PAGE_BYTES))
    assert model.get("k") is None
    model.set("k", b"fresh")
    with pytest.raises(ServerError):
        model.append("k", bytes(PAGE_BYTES))
    assert model.get("k") is None


# -- property: model vs the real store on one clock ---------------------------

KEYS = st.sampled_from([f"k{i}" for i in range(6)] + ["k" * 250])
VALUES = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.sampled_from(
        [b"0", b"41", b"18446744073709551615", b"18446744073709551616", b"x"]
    ),
)
DELTAS = st.sampled_from([1, 7, 2**32, 2**64 - 1])
EXPTIMES = st.sampled_from([0, 0, 1, 3])

COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), KEYS, VALUES, EXPTIMES),
        st.tuples(st.just("add"), KEYS, VALUES, EXPTIMES),
        st.tuples(st.just("replace"), KEYS, VALUES, EXPTIMES),
        st.tuples(st.just("append"), KEYS, VALUES, st.just(0)),
        st.tuples(st.just("prepend"), KEYS, VALUES, st.just(0)),
        st.tuples(st.just("get"), KEYS, st.just(b""), st.just(0)),
        st.tuples(st.just("delete"), KEYS, st.just(b""), st.just(0)),
        st.tuples(st.just("incr"), KEYS, st.just(b""), DELTAS),
        st.tuples(st.just("decr"), KEYS, st.just(b""), DELTAS),
        st.tuples(st.just("touch"), KEYS, st.just(b""), EXPTIMES),
        st.tuples(st.just("flush"), st.just("k0"), st.just(b""), EXPTIMES),
        st.tuples(st.just("advance"), st.just("k0"), st.just(b""), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=60,
)


def _outcome(fn, *args):
    """(tag, value) so error modes are compared too."""
    try:
        return ("ok", fn(*args))
    except ClientError:
        return ("error", "client")
    except ServerError:
        return ("error", "server")


@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(COMMANDS)
def test_model_matches_store(commands):
    """Same command stream, same clock: every observable outcome agrees
    (values, flags, presence booleans, counter values, error kinds)."""
    sim = Simulator()
    store = ItemStore(sim, StoreConfig(max_bytes=64 * PAGE_BYTES))
    model = ModelMemcached(lambda: sim.now / 1e6)
    for op, key, value, arg in commands:
        if op == "advance":
            sim._now += arg * 1e6
            continue
        if op == "flush":
            store.flush_all(arg)
            model.flush_all(arg)
            continue
        if op in ("set", "add", "replace"):
            got = _outcome(getattr(store, op), key, value, 3, arg)
            want = _outcome(getattr(model, op), key, value, 3, arg)
            if got[0] == "ok":
                got = ("ok", got[1] is not None)
                want = ("ok", want[1] == "stored")
        elif op in ("append", "prepend"):
            got = _outcome(getattr(store, op), key, value)
            want = _outcome(getattr(model, op), key, value)
            if got[0] == "ok":
                got = ("ok", got[1] is not None)
                want = ("ok", want[1] == "stored")
        elif op == "get":
            got = _outcome(store.get, key)
            want = _outcome(model.get, key)
            if got[0] == "ok":
                got = ("ok", None if got[1] is None else (got[1].value(), got[1].flags))
                want = (
                    "ok",
                    None if want[1] is None else (want[1].value, want[1].flags),
                )
        elif op == "delete":
            got = _outcome(store.delete, key)
            want = _outcome(model.delete, key)
        elif op in ("incr", "decr"):
            got = _outcome(getattr(store, op), key, arg)
            want = _outcome(getattr(model, op), key, arg)
        elif op == "touch":
            got = _outcome(store.touch, key, arg)
            want = _outcome(model.touch, key, arg)
        assert got == want, (op, key, value, arg)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(COMMANDS)
def test_model_cas_agrees_with_store(commands):
    """CAS flows: tokens are compared *behaviorally* (each side uses its
    own gets token), raw values intentionally differ (MODEL_DIVERGENCES)."""
    sim = Simulator()
    store = ItemStore(sim, StoreConfig(max_bytes=64 * PAGE_BYTES))
    model = ModelMemcached(lambda: sim.now / 1e6)
    store_tok: dict[str, int] = {}
    model_tok: dict[str, int] = {}
    bogus = 2**61
    for i, (op, key, value, arg) in enumerate(commands):
        if op in ("set", "add", "replace"):
            _outcome(getattr(store, op), key, value, 0, 0)
            _outcome(getattr(model, op), key, value, 0, 0)
        elif op == "get":  # reuse as "gets": refresh both token maps
            s = _outcome(store.get, key)
            m = _outcome(model.gets, key)
            assert (s[1] is None) == (m[1] is None)
            if s[0] == "ok" and s[1] is not None:
                store_tok[key] = s[1].cas
                model_tok[key] = m[1].cas
        elif op == "delete":  # reuse as "cas" with the last-seen token
            use_bogus = i % 3 == 0
            s_tok = bogus if use_bogus else store_tok.get(key, bogus)
            m_tok = bogus if use_bogus else model_tok.get(key, bogus)
            got = _outcome(store.cas, key, b"cas-val", s_tok)
            want = _outcome(model.cas, key, b"cas-val", m_tok)
            assert got == want, (key, use_bogus)
