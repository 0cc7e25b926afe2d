"""Batched ingress ≡ per-packet ingress (tier-1, no sockets).

``ingress_batch`` is the per-packet step of ``ingress`` looped under
one clock tick, so twin services fed the same seeded stream — one
packet at a time, the other in random chunks — must agree on every
reply, every path, every counter and the final map / heap contents.
That includes the cases where the two used to be separate code: a
replicated service (the quorum-commit gate), a wrapped service (the
shedder in front), and an extension cancelled in the middle of a
batch.
"""

import random

import pytest

from repro.apps.memcached import protocol as P
from repro.apps.ratelimit import RateLimitConfig, wrap, wrap_syn
from repro.errors import ChannelDown, KernelPanic
from repro.kernel.net import PKT_SLOT_SIZE
from repro.kernel.watchdog import DEFAULT_QUANTUM_UNITS
from repro.net.service import (
    DurableMemcachedService,
    PacketService,
    build_service,
)
from repro.sim.faults import FaultPlan
from repro.state import DurableStore, MemStorage
from repro.state.replication import (
    MSG_APPEND,
    LocalChannel,
    QuorumShipper,
    ReplicaSession,
    decode_frame,
)
from repro.state.wal import scan_wal

#: Simulated time both twins advance between chunks (quarantine
#: backoffs elapse at chunk boundaries, never at different packets).
STEP_NS = 150_000


@pytest.fixture(autouse=True)
def _no_wall_clock(monkeypatch):
    """``_tick`` feeds wall time into the simulated kernel clock; the
    twins must see the same clock, so here only executed cost and the
    explicit per-chunk step move it."""
    monkeypatch.setattr(PacketService, "_tick", lambda self: None)


def _kv_stream(seed: int, n: int, keys: int = 24) -> list:
    rng = random.Random(seed)
    return [
        P.encode_set(k, rng.randrange(1 << 30)) if rng.random() < 0.4
        else P.encode_get(k)
        for k in (rng.randrange(keys) for _ in range(n))
    ]


def _chunks(seed: int, stream: list) -> list:
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(stream):
        size = rng.randint(1, 7)
        out.append(stream[i:i + size])
        i += size
    return out


def _drive(make, chunks):
    """Twin services over the same chunks: ``(one, many, replies of
    one, replies of many)``."""
    one, many = make(), make()
    out_one, out_many = [], []
    for chunk in chunks:
        out_one += [one.ingress(p, 0) for p in chunk]
        out_many += many.ingress_batch(chunk, 0)
        for svc in (one, many):
            svc.runtime.kernel.advance_ns(STEP_NS)
    return one, many, out_one, out_many


def _assert_same_service(one, many, out_one, out_many):
    assert out_one == out_many
    assert one.stats == many.stats
    assert one.ext.stats == many.ext.stats
    assert one.stats.requests == len(out_one)


def _heap_bytes(svc):
    return svc.ext.heap.region.backing.data


# -- (i) memcached, extension only ---------------------------------------------


def test_memcached_batch_matches_per_packet():
    chunks = _chunks(1, _kv_stream(1, 300))
    one, many, out_one, out_many = _drive(
        lambda: build_service("memcached", fallback="none",
                              heap_size=1 << 20),
        chunks,
    )
    _assert_same_service(one, many, out_one, out_many)
    assert one.stats.kernel_tx == 300
    assert _heap_bytes(one) == _heap_bytes(many)


def test_oversize_payload_is_a_bad_frame_on_both_entries():
    """Socket-free twin of the ``net``-marked oversize test: the slot
    writer refuses a payload over the staging slot as a bad frame, and
    its neighbours are served."""
    pkts = [P.encode_set(1, 11), P.encode_get(1),
            b"x" * (PKT_SLOT_SIZE + 1), P.encode_get(1)]
    one, many, out_one, out_many = _drive(
        lambda: build_service("memcached", fallback="none",
                              heap_size=1 << 20),
        [pkts],
    )
    _assert_same_service(one, many, out_one, out_many)
    assert [path for _, path in out_many] == ["kernel", "kernel", "bad",
                                              "kernel"]
    assert out_many[2] == (None, "bad")
    assert P.decode_reply(out_many[3][0]) == (True, 11)
    assert many.stats.bad_frames == 1
    # In-kernel callers that stage a packet they built still panic.
    with pytest.raises(KernelPanic):
        many.ext.run_packet(pkts[2])


# -- (ii) durable memcached behind a quorum shipper ---------------------------


class _FlakyChannel(LocalChannel):
    """A follower that is down for exactly the ``down_at``-th APPEND
    frame shipped to it and back for the next one (which finds a gap
    and resyncs).  It also refuses a frame whose records the primary
    has not flushed: the local flush comes before the ship."""

    wal = None

    def __init__(self, node_id, session, down_at=0):
        super().__init__(node_id, session)
        self.down_at = down_at
        self.sends = 0

    # The shipper marks a channel dead when a send fails and skips dead
    # channels; this one comes straight back.
    alive = property(lambda self: True, lambda self, value: None)

    def send(self, frame):
        fr = decode_frame(frame)
        if fr.kind == MSG_APPEND:
            assert self.wal.durable_seq >= scan_wal(fr.body)[0][-1].seq
            self.sends += 1
            if self.sends == self.down_at:
                raise ChannelDown(self.node_id)
        super().send(frame)


def _replicated(down_at):
    channels = [
        _FlakyChannel("n0", ReplicaSession(MemStorage(), node_id="n0")),
        _FlakyChannel("n1", ReplicaSession(MemStorage(), node_id="n1"),
                      down_at),
    ]
    shipper = QuorumShipper(channels, sync_replicas=2, maintenance_every=None)
    svc = DurableMemcachedService(
        store=DurableStore(storage=MemStorage(), shipper=shipper),
        capacity=64,
    )
    for ch in channels:
        ch.wal = svc.store.wal(svc.pin)
    return svc


def _assert_same_durable_state(one, many, n_sets):
    """The state behind the replies is the same, down to the followers
    (the flaky one repaired itself on the next frame)."""
    assert sorted(one.cache.entries()) == sorted(many.cache.entries())
    seq = many.store.wal(many.pin).seq
    assert seq == one.store.wal(one.pin).seq == n_sets
    for svc in (one, many):
        assert svc.shipper.watermarks(svc.pin) == {"n0": seq, "n1": seq}
        assert svc.shipper.stats.quorum_losses == 1
        assert svc.fenced_drops == 0


def test_replicated_batch_holds_the_quorum_gate():
    """A drained batch is one commit group: no write of it is acked
    unless ``sync_replicas`` followers hold it, a lost quorum drops
    exactly the group's writes and none of its reads, and a batch of
    one is per-packet ``ingress``, reply for reply."""
    stream = _kv_stream(2, 240)
    is_set = [p[0] == P.OP_SET for p in stream]
    n_sets = sum(is_set)

    # Batch-of-one leg: the follower is down for one SET's frame; that
    # SET alone goes unacked, on both entries alike.
    victim = 9
    one, many, out_one, out_many = _drive(
        lambda: _replicated(victim), [[p] for p in stream]
    )
    _assert_same_service(one, many, out_one, out_many)
    assert one.quorum_drops == many.quorum_drops == 1
    set_results = [r for r, w in zip(out_many, is_set) if w]
    assert [i for i, r in enumerate(set_results, 1) if r == (None, "drop")] \
        == [victim]
    assert all(path == "kernel" for r, path in set_results if r is not None)
    _assert_same_durable_state(one, many, n_sets)

    # Group leg: the follower is down for the frame of a chunk that
    # holds several SETs and a GET, in the middle of the stream.
    chunks = _chunks(2, stream)
    frames, at = 0, 0
    for chunk in chunks:
        kinds = [p[0] == P.OP_SET for p in chunk]
        frames += any(kinds)
        if frames > 5 and sum(kinds) >= 2 and not all(kinds):
            break
        at += len(chunk)
    lost = {at + i for i, w in enumerate(kinds) if w}
    assert len(lost) >= 2 and at + len(chunk) < len(stream)

    many = _replicated(frames)
    sessions = [ch.session for ch in many.shipper.channels]
    out_many, acked_seq = [], 0
    for chunk in chunks:
        results = many.ingress_batch(chunk, 0)
        many.runtime.kernel.advance_ns(STEP_NS)
        # Acked => durable on both followers, before the replies leave.
        for pkt, (reply, _path) in zip(chunk, results):
            if pkt[0] == P.OP_SET:
                acked_seq += 1
                if reply is not None:
                    assert all(s.watermark(many.pin) >= acked_seq
                               for s in sessions)
        out_many += results
    # The per-packet twin loses the frame of the group's first SET, so
    # its replies differ on the lost group's other writes only.
    one = _replicated(sum(is_set[:at]) + 1)
    out_one = []
    for chunk in chunks:
        out_one += [one.ingress(p, 0) for p in chunk]
        one.runtime.kernel.advance_ns(STEP_NS)
    dropped = {i for i, r in enumerate(out_many) if r == (None, "drop")}
    assert dropped == lost
    assert many.quorum_drops == len(lost) and one.quorum_drops == 1
    assert all(out_one[i] == out_many[i]
               for i in range(len(stream)) if i not in lost)
    # Reads of the lost group are served; its writes moved from
    # kernel_tx to dropped, each counted once.
    assert all(out_many[i][1] == "kernel"
               for i in range(at, at + len(chunk)) if i not in lost)
    assert many.stats.requests == len(stream)
    assert many.stats.dropped == len(lost)
    assert many.stats.kernel_tx == len(stream) - len(lost)
    _assert_same_durable_state(one, many, n_sets)


def test_replicated_batch_acks_the_runs_before_the_lost_one():
    """A group larger than one frame ships as several runs; a quorum
    lost on the second drops the writes at or past its first seq and
    acks the run before it."""
    many = _replicated(2)
    pkts = [P.encode_set(k % 60, k) for k in range(100)] + [P.encode_get(3)]
    results = many.ingress_batch(pkts, 0)
    first_lost = next(i for i, r in enumerate(results) if r == (None, "drop"))
    assert 1 < first_lost < 100
    assert all(path == "kernel" for _, path in results[:first_lost])
    assert results[first_lost:100] == [(None, "drop")] * (100 - first_lost)
    assert results[100][1] == "kernel"
    assert many.quorum_drops == many.stats.dropped == 100 - first_lost
    # The next group repairs the follower that missed the run.
    assert many.ingress_batch([P.encode_set(1, 1)], 0)[0][1] == "kernel"
    assert many.shipper.watermarks(many.pin) == {"n0": 101, "n1": 101}


# -- (iii) the shedder in front of a durable service ----------------------------


def _shed_stream(seed: int, n: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        src = rng.choice((1, 1, 1, 2, 3))  # source 1 is the heavy hitter
        roll = rng.random()
        if roll < 0.1:
            out.append(wrap_syn(src))
        elif roll < 0.15:
            out.append(bytes(rng.randrange(256) for _ in range(rng.randint(1, 30))))
        else:
            k = rng.randrange(16)
            out.append(wrap(src, P.encode_set(k, k + 1) if roll < 0.5
                            else P.encode_get(k)))
    return out


def test_ratelimited_batch_matches_per_packet():
    def make():
        return build_service(
            "ratelimit",
            config=RateLimitConfig(cost_ns=100_000, burst_ns=600_000,
                                   syn_weight=2),
        )

    chunks = _chunks(3, _shed_stream(3, 300))
    one, many, out_one, out_many = _drive(make, chunks)
    _assert_same_service(one, many, out_one, out_many)
    assert one.inner.stats == many.inner.stats
    assert one.inner.ext.stats == many.inner.ext.stats
    assert one.source_drops == many.source_drops
    assert (one.syn_acks, one.garbage_drops) == \
        (many.syn_acks, many.garbage_drops)
    assert _heap_bytes(one) == _heap_bytes(many)
    assert sorted(one.inner.cache.entries()) == sorted(many.inner.cache.entries())
    # The stream exercised every verdict of the shedder.
    assert many.syn_acks and many.garbage_drops and many.source_drops
    assert many.inner.stats.kernel_tx


# -- (iv) cancellation in the middle of a batch --------------------------------


def test_mid_batch_cancellation_matches_per_packet():
    """The faulting packet goes up the stack (``"pass"``); the rest of
    the batch sees the quarantine — and, a few chunks later, the
    readmission — exactly where per-packet ingress sees them."""
    def make():
        svc = build_service("memcached", fallback="none", heap_size=1 << 20,
                            quantum_units=DEFAULT_QUANTUM_UNITS)
        # Short invocations still give the watchdog (and its injected
        # premature fires: a hard fault, immediate quarantine) a turn.
        svc.runtime.watchdog_period = 8
        svc.runtime.install_injector(
            FaultPlan(7, {"wd_fire": 0.01, "helper_fail": 0.05})
        )
        return svc

    chunks = _chunks(4, _kv_stream(4, 400))
    one, many, out_one, out_many = _drive(make, chunks)
    _assert_same_service(one, many, out_one, out_many)
    assert _heap_bytes(one) == _heap_bytes(many)
    assert many.stats.quarantines >= 1 and many.stats.readmissions >= 1
    assert many.ext.stats.cancellations >= many.stats.quarantines
    # Some quarantine began strictly inside a chunk: kernel replies
    # before it, passes after it, in the same batch.
    paths, i, split = [p for _, p in out_many], 0, False
    for chunk in chunks:
        inside = paths[i:i + len(chunk)]
        i += len(chunk)
        if "kernel" in inside and "pass" in inside[inside.index("kernel"):]:
            split = True
    assert split
