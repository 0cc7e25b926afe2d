"""The loopback network datapath: sharding, admission, real sockets.

The pure-logic pieces (consistent-hash ring, admission control) run in
tier-1; everything that opens a socket is marked ``net`` and runs via
``make test-net``.
"""

import asyncio
import socket

import pytest

from repro.apps.memcached import protocol as MP
from repro.apps.redis import protocol as RP
from repro.net import (
    AdmissionControl,
    AdmissionPolicy,
    ConsistentHashRing,
    ShardRouterService,
    ShardedUdpDatapath,
    SupervisedMemcachedService,
    SupervisedRedisService,
    TcpDatapath,
    TcpLoadGenerator,
    UdpDatapath,
    UdpLoadGenerator,
    UserspaceBridge,
    UserspaceEndpoint,
    build_service,
)


def mc_matcher(req, rep):
    return len(rep) == MP.PKT_SIZE and rep[8:40] == req[8:40]


# -- consistent-hash ring (tier-1) -------------------------------------------


def test_ring_deterministic_across_instances():
    a = ConsistentHashRing(4)
    b = ConsistentHashRing(4)
    assert [a.shard_of(k) for k in range(512)] == [
        b.shard_of(k) for k in range(512)
    ]


def test_ring_covers_all_shards_roughly_evenly():
    ring = ConsistentHashRing(4)
    counts = [0] * 4
    for k in range(4096):
        counts[ring.shard_of(k)] += 1
    assert all(c > 0 for c in counts)
    assert max(counts) < 4 * min(counts)  # vnodes keep the skew bounded


def test_ring_accepts_int_and_bytes_keys():
    ring = ConsistentHashRing(3)
    for k in (0, 7, 123456789):
        assert ring.shard_of(k) == ring.shard_of(
            k.to_bytes(8, "little")
        )
        assert 0 <= ring.shard_of(k) < 3


def test_ring_single_shard_takes_everything():
    ring = ConsistentHashRing(1)
    assert {ring.shard_of(k) for k in range(64)} == {0}


# -- admission control (tier-1) ----------------------------------------------


def test_admission_inflight_bound_and_release():
    ac = AdmissionControl(AdmissionPolicy(max_inflight=2))
    assert ac.try_admit() and ac.try_admit()
    assert not ac.try_admit()
    assert ac.stats.shed_inflight == 1
    ac.release()
    assert ac.try_admit()
    assert ac.stats.admitted == 3 and ac.stats.completed == 1


def test_admission_connection_cap():
    ac = AdmissionControl(AdmissionPolicy(max_connections=1))
    assert ac.try_admit_connection()
    assert not ac.try_admit_connection()
    assert ac.stats.refused_connections == 1
    ac.release_connection()
    assert ac.try_admit_connection()


def test_admission_drain_sheds_and_waits():
    ac = AdmissionControl()
    assert ac.try_admit()

    async def run():
        drain = asyncio.get_running_loop().create_task(ac.drain())
        await asyncio.sleep(0)
        assert not drain.done()  # one request still in flight
        assert not ac.try_admit()
        assert ac.stats.shed_draining == 1
        ac.release()
        await asyncio.wait_for(drain, 1.0)

    asyncio.run(run())
    assert ac.stats.drained_inflight == 1


def test_admission_drain_timeout_escalates_and_returns_dirty():
    """A drain stuck behind a request that never completes must not
    hang shutdown: it times out, escalates, and reports dirty."""
    ac = AdmissionControl()
    assert ac.try_admit() and ac.try_admit()
    escalated = []

    async def run():
        clean = await ac.drain(0.05, escalate=lambda: escalated.append(True))
        assert clean is False

    asyncio.run(run())
    assert escalated == [True]
    assert ac.stats.drain_timeouts == 1
    assert ac.stats.forced_cancellations == 2  # both stragglers written off


def test_admission_drain_timeout_clean_path_does_not_escalate():
    ac = AdmissionControl()
    assert ac.try_admit()

    async def run():
        loop = asyncio.get_running_loop()
        loop.call_later(0.01, ac.release)
        return await ac.drain(5.0, escalate=lambda: 1 / 0)

    assert asyncio.run(run()) is True
    assert ac.stats.drain_timeouts == 0
    assert ac.stats.forced_cancellations == 0
    # Async escalation works too (awaited, not just called).
    ac2 = AdmissionControl()
    assert ac2.try_admit()
    hits = []

    async def boom():
        hits.append("quarantined")

    assert asyncio.run(ac2.drain(0.02, escalate=boom)) is False
    assert hits == ["quarantined"]


@pytest.mark.net
def test_udp_stop_drain_timeout_quarantines_stuck_extension():
    """``stop(drain_timeout=...)`` on a datapath whose service hangs:
    the supervisor quarantines the extension (reason ``drain_timeout``)
    and shutdown completes instead of waiting forever."""

    class _StuckService:
        """Admits a request, then never finishes it."""

        class _Ext:
            dead = False

        class _Supervisor:
            def __init__(self):
                self.calls = []

            def quarantine(self, ext, reason):
                self.calls.append((ext, reason))

        class _Runtime:
            def __init__(self):
                self.supervisor = _StuckService._Supervisor()

        def __init__(self):
            self.runtime = self._Runtime()
            self.ext = self._Ext()

        async def handle(self, payload, cpu=0):
            await asyncio.Event().wait()  # never

        def quiescence_report(self):
            return {"sock_refs": 0, "held_locks": 0, "live_extensions": 0}

        def close(self):
            pass

    async def run():
        svc = _StuckService()
        dp = await UdpDatapath(svc, n_workers=1).start()
        loop = asyncio.get_running_loop()
        # One datagram into the hang; give the worker a beat to admit it.
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.sendto(b"x" * 72, ("127.0.0.1", dp.port))
        sock.close()
        for _ in range(50):
            await asyncio.sleep(0.01)
            if dp.admission.inflight == 1:
                break
        assert dp.admission.inflight == 1
        t0 = loop.time()
        report = await dp.stop(drain_timeout=0.1)
        assert loop.time() - t0 < 2.0  # bounded, not hung
        assert report["sock_refs"] == 0
        assert dp.admission.stats.drain_timeouts == 1
        assert dp.admission.stats.forced_cancellations == 1
        assert svc.runtime.supervisor.calls == [(svc.ext, "drain_timeout")]

    asyncio.run(run())


# -- UDP datapath (net) ------------------------------------------------------


@pytest.mark.net
def test_udp_roundtrip_kernel_fast_path():
    async def run():
        svc = SupervisedMemcachedService()
        dp = await UdpDatapath(svc, cpu=0).start()

        def workload(cid, seq):
            key = cid * 100 + seq % 20
            if seq % 4 == 0:
                return key, MP.encode_set(key, seq)
            return key, MP.encode_get(key)

        gen = UdpLoadGenerator(
            [dp.port], workload, n_clients=2, requests_per_client=40,
            matcher=mc_matcher,
        )
        res = await gen.run()
        assert res.failures == 0 and res.replies == 80
        assert svc.stats.kernel_tx == 80  # healthy: all at the hook
        assert len(res.latency) == 80
        report = await dp.stop()
        assert report["sock_refs"] == 0 and report["held_locks"] == 0

    asyncio.run(run())


@pytest.mark.net
def test_udp_garbled_datagram_counts_bad_frame_and_stays_silent():
    async def run():
        svc = SupervisedMemcachedService()
        dp = await UdpDatapath(svc, cpu=0).start()
        loop = asyncio.get_running_loop()
        got = []

        class Probe(asyncio.DatagramProtocol):
            def connection_made(self, tr):
                self.tr = tr

            def datagram_received(self, data, addr):
                got.append(data)

        probe = Probe()
        tr, _ = await loop.create_datagram_endpoint(
            lambda: probe, remote_addr=("127.0.0.1", dp.port)
        )
        probe.tr.sendto(b"\xff" * 7)          # short garbage
        probe.tr.sendto(b"\xff" * 300)        # oversized garbage
        await asyncio.sleep(0.1)
        assert got == []                      # UDP stays silent
        assert svc.stats.bad_frames == 2
        tr.close()
        await dp.stop()

    asyncio.run(run())


@pytest.mark.net
@pytest.mark.parametrize("batch_size", [1, 4])
def test_udp_oversize_datagram_is_a_bad_frame_not_a_wedge(batch_size):
    """A datagram larger than the 4 KB staging slot is refused as a bad
    frame: its admission slot is released and its neighbours — in the
    same batch when batching — are still served.  (It used to raise
    KernelPanic out of the receive callback: the slot leaked, the rest
    of the batch was never served, and ``max_inflight`` such datagrams
    shed all later traffic for good.)"""
    async def run():
        svc = build_service("memcached", fallback="none")
        dp = await UdpDatapath(
            svc, cpu=0, batch_size=batch_size, batch_timeout=0.01
        ).start()
        loop = asyncio.get_running_loop()
        got = []

        class Probe(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                got.append(data)

        tr, _ = await loop.create_datagram_endpoint(
            Probe, remote_addr=("127.0.0.1", dp.port)
        )
        for pkt in (MP.encode_set(1, 11), MP.encode_get(1),
                    b"x" * 5000, MP.encode_get(1)):
            tr.sendto(pkt)
        for _ in range(100):
            if len(got) == 3:
                break
            await asyncio.sleep(0.01)
        assert [MP.decode_reply(r) for r in got] == [(True, 11)] * 3
        assert svc.stats.bad_frames == 1
        assert svc.stats.requests == 4 and svc.stats.kernel_tx == 3
        assert dp.admission.inflight == 0
        assert dp.stats.no_reply == 1
        tr.close()
        await dp.stop()

    asyncio.run(run())


@pytest.mark.net
def test_udp_sheds_when_not_admitting():
    async def run():
        svc = SupervisedMemcachedService()
        dp = UdpDatapath(
            svc, cpu=0, policy=AdmissionPolicy(max_inflight=0)
        )
        await dp.start()
        loop = asyncio.get_running_loop()
        tr, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol,
            remote_addr=("127.0.0.1", dp.port),
        )
        for _ in range(5):
            tr.sendto(MP.encode_get(1))
        await asyncio.sleep(0.1)
        assert dp.admission.stats.shed_inflight == 5
        assert svc.stats.requests == 0  # never reached the service
        tr.close()
        await dp.stop()

    asyncio.run(run())


@pytest.mark.net
def test_sharded_inline_datapath_routes_by_ring():
    async def run():
        sharded = ShardedUdpDatapath(
            lambda i: SupervisedMemcachedService(), 2
        )
        await sharded.start()

        def workload(cid, seq):
            key = cid * 50 + seq % 25
            return key, MP.encode_set(key, seq)

        gen = UdpLoadGenerator(
            sharded.ports, workload, ring=sharded.ring,
            n_clients=2, requests_per_client=30, matcher=mc_matcher,
        )
        res = await gen.run()
        assert res.failures == 0 and res.replies == 60
        per_shard = [s.service.stats.requests for s in sharded.shards]
        assert sum(per_shard) == 60
        assert all(n > 0 for n in per_shard)  # both shards saw traffic
        merged = sharded.merged_service_stats()
        assert merged.requests == 60 and merged.kernel_tx == 60
        report = await sharded.stop()
        assert report["sock_refs"] == 0

    asyncio.run(run())


# -- TCP datapath (net) ------------------------------------------------------


@pytest.mark.net
def test_tcp_roundtrip_redis_router():
    async def run():
        shards = ShardedUdpDatapath(
            lambda i: SupervisedRedisService(), 2
        )
        await shards.start()
        router = ShardRouterService(
            shards.shards, shards.ring,
            lambda p: RP.decode_request(p)[1],
        )
        tcp = await TcpDatapath(router).start()

        def workload(cid, seq):
            key = cid * 40 + seq % 20
            if seq % 3 == 0:
                return key, RP.encode_set(key, seq)
            return key, RP.encode_get(key)

        gen = TcpLoadGenerator(
            [tcp.port], workload, n_clients=2, requests_per_client=30
        )
        res = await gen.run()
        assert res.failures == 0 and res.replies == 60
        await tcp.stop()
        report = await shards.stop()
        assert report["sock_refs"] == 0

    asyncio.run(run())


@pytest.mark.net
def test_tcp_bad_length_prefix_closes_connection():
    async def run():
        svc = SupervisedRedisService()
        tcp = await TcpDatapath(svc).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", tcp.port
        )
        writer.write(b"\xff\xff\xff\xff")  # absurd frame length
        await writer.drain()
        eof = await asyncio.wait_for(reader.read(), 2.0)
        assert eof == b""                  # server hung up
        assert tcp.stats.bad_frames == 1
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await tcp.stop()

    asyncio.run(run())


@pytest.mark.net
def test_tcp_garbled_payload_gets_empty_frame_reply():
    """A well-framed but undecodable payload is answered with an empty
    frame (the framed transport cannot stay silent), and the
    connection survives for the next request."""

    async def run():
        svc = SupervisedRedisService()
        tcp = await TcpDatapath(svc).start()
        from repro.net.datapath import FRAME_HDR

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", tcp.port
        )
        junk = b"\xee" * RP.PKT_SIZE
        writer.write(FRAME_HDR.pack(len(junk)) + junk)
        good = RP.encode_set(1, 11)
        writer.write(FRAME_HDR.pack(len(good)) + good)
        await writer.drain()
        (n,) = FRAME_HDR.unpack(
            await asyncio.wait_for(reader.readexactly(4), 2.0)
        )
        assert n == 0                      # explicit shed/drop marker
        (n,) = FRAME_HDR.unpack(
            await asyncio.wait_for(reader.readexactly(4), 2.0)
        )
        reply = await reader.readexactly(n)
        assert RP.decode_reply(reply) == (True, 11)
        assert svc.stats.bad_frames == 1
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await tcp.stop()

    asyncio.run(run())


@pytest.mark.net
def test_tcp_half_close_answers_every_frame_already_sent():
    """A client that pipelines a burst and shuts its sending side down
    still gets every reply — the chunks past the connection budget are
    served after the FIN — and then the server's close."""

    async def run():
        from repro.net.datapath import FRAME_HDR

        tcp = await TcpDatapath(
            SupervisedRedisService(),
            policy=AdmissionPolicy(per_conn_budget=4),
        ).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", tcp.port
        )
        sets = [RP.encode_set(k, k + 100) for k in range(1, 14)]
        writer.write(b"".join(FRAME_HDR.pack(len(p)) + p for p in sets))
        writer.write_eof()
        blob = await asyncio.wait_for(reader.read(), 2.0)  # to the close
        size = FRAME_HDR.size + len(sets[0])
        assert [RP.decode_reply(blob[off + FRAME_HDR.size:off + size])
                for off in range(0, len(blob), size)] \
            == [(True, k + 100) for k in range(1, 14)]
        assert max(tcp.stats.batch_hist) <= 4
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.01)
        assert tcp.admission.connections == 0
        await tcp.stop()

    asyncio.run(run())


# -- userspace bridge (net) --------------------------------------------------


@pytest.mark.net
def test_userspace_bridge_fallthrough_and_drop():
    async def run():
        from repro.apps.memcached.userspace import UserspaceMemcached

        store = UserspaceMemcached()
        endpoint = await UserspaceEndpoint(store.handle).start()
        bridge = await UserspaceBridge(endpoint.port).start()
        svc = build_service(
            "memcached", fallback="userspace", userspace=bridge.request
        )
        dp = await UdpDatapath(svc, cpu=0).start()
        gen = UdpLoadGenerator(
            [dp.port],
            lambda cid, seq: (seq, MP.encode_set(seq, seq + 1)),
            n_clients=1, requests_per_client=20, matcher=mc_matcher,
        )
        res = await gen.run()
        assert res.failures == 0
        assert svc.stats.kernel_tx == 0
        assert svc.stats.userspace_pass == 20
        assert endpoint.served == 20
        assert store.sets == 20
        await dp.stop()
        bridge.close()
        endpoint.close()

    asyncio.run(run())
